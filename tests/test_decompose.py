"""Fitting engine: round trips, products, differential polynomials, uniqueness."""

import numpy as np
import pytest

from thetadecomp.algebra import AlgebraElement, BasisSymbol, evaluate_element, in_theta_subalgebra
from thetadecomp.decompose import (
    DerivSymbol,
    FitConfig,
    Product,
    Scale,
    Sum,
    _eval_cfg,
    diff_poly_decompose,
    fit_in_basis,
    level_sum,
    product_expand,
    verify_theorem3,
)
from thetadecomp.errors import (
    DimensionMismatchError,
    LevelSumInvalidError,
    ResidualTooLargeError,
)
from thetadecomp.evaluation import TruncationConfig, theta_series, wderiv_fd
from thetadecomp.numerics import (
    MultiIndex,
    PeriodMatrix,
    enumerate_characteristics,
    validate_level,
)

LEVEL2 = validate_level([[2]])
LEVEL4 = validate_level([[4]])
OMEGA = PeriodMatrix([[1j]])
CHARS2 = enumerate_characteristics(LEVEL2, 1)
CHARS4 = enumerate_characteristics(LEVEL4, 1)
CFG = FitConfig(seed=0)


def random_element(rng, max_degree=2):
    terms = {}
    for jrows in ([[d]] for d in range(max_degree + 1)):
        for ch in CHARS2:
            terms[BasisSymbol(LEVEL2, MultiIndex.from_rows(jrows), ch)] = complex(
                rng.normal(), rng.normal()
            )
    return AlgebraElement(terms)


def coeff_sup_diff(x, y):
    syms = set(x.terms()) | set(y.terms())
    return max(abs(x.terms().get(s, 0) - y.terms().get(s, 0)) for s in syms)


class TestFitInBasis:
    def test_round_trip(self):
        rng = np.random.default_rng(42)
        x = random_element(rng)
        ecfg = _eval_cfg(LEVEL2, OMEGA, CFG.sample_box, 2)
        f = lambda z, w: evaluate_element(x, OMEGA, z, w, ecfg).value
        dec = fit_in_basis(f, LEVEL2, 2, OMEGA, CFG)
        assert coeff_sup_diff(dec.element, x) < 1e-6
        assert dec.residual < 1e-8
        assert dec.conditioning < 1e8

    def test_zero_function(self):
        dec = fit_in_basis(lambda z, w: 0j, LEVEL2, 2, OMEGA, CFG)
        assert dec.element.is_zero()
        assert dec.residual < 1e-12

    def test_basis_element_recovers_itself(self):
        s = BasisSymbol(LEVEL2, MultiIndex.from_rows([[1]]), CHARS2[0])
        ecfg = _eval_cfg(LEVEL2, OMEGA, CFG.sample_box, 1)
        f = lambda z, w: evaluate_element(
            AlgebraElement.from_symbol(s), OMEGA, z, w, ecfg
        ).value
        dec = fit_in_basis(f, LEVEL2, 1, OMEGA, CFG)
        assert set(dec.element.terms()) == {s}
        assert abs(dec.element.terms()[s] - 1) < 1e-6

    def test_out_of_span_raises(self):
        # degree bound too small for the sampled function
        s = BasisSymbol(LEVEL2, MultiIndex.from_rows([[2]]), CHARS2[0])
        ecfg = _eval_cfg(LEVEL2, OMEGA, CFG.sample_box, 2)
        f = lambda z, w: evaluate_element(
            AlgebraElement.from_symbol(s), OMEGA, z, w, ecfg
        ).value
        with pytest.raises(ResidualTooLargeError):
            fit_in_basis(f, LEVEL2, 1, OMEGA, CFG)

    def test_degenerate_samples_rejected(self):
        # a vanishingly small sample box collapses every row of the design
        # matrix to the same point; the guard must resample and then fail
        from thetadecomp.errors import IllConditionedError

        ecfg = _eval_cfg(LEVEL2, OMEGA, 0.4, 2)
        s = BasisSymbol(LEVEL2, MultiIndex.zeros(1, 1), CHARS2[0])
        f = lambda z, w: evaluate_element(
            AlgebraElement.from_symbol(s), OMEGA, z, w, ecfg
        ).value
        with pytest.raises(IllConditionedError):
            fit_in_basis(f, LEVEL2, 2, OMEGA, FitConfig(seed=0, sample_box=1e-9))

class TestProductExpand:
    def test_level_doubling(self):
        s = BasisSymbol(LEVEL2, MultiIndex.zeros(1, 1), CHARS2[0])
        dec = product_expand(s, s, OMEGA, CFG)
        assert dec.element.levels() == [LEVEL4]
        assert all(t.j.size == 0 for t in dec.element.terms())
        assert dec.residual < 1e-8
        # the coefficients are the level-4 theta constants of this period point
        cfg = TruncationConfig(radius=8, tail_tol=1e-10)
        by_index = {t.char.index: c for t, c in dec.element.items()}
        for idx, coeff in by_index.items():
            const = theta_series(LEVEL4, CHARS4[idx], OMEGA, [[0.0]], cfg).value
            assert abs(coeff - const) < 1e-8

    def test_degree_additivity(self):
        s0 = BasisSymbol(LEVEL2, MultiIndex.zeros(1, 1), CHARS2[0])
        s1 = BasisSymbol(LEVEL2, MultiIndex.from_rows([[1]]), CHARS2[1])
        dec = product_expand(s0, s1, OMEGA, CFG)
        assert dec.element.levels() == [LEVEL4]
        assert dec.element.degree() <= 1
        assert dec.residual < 1e-8

    def test_level_sum_entrywise(self):
        hexl = validate_level([[2, 1], [1, 2]])
        assert level_sum(hexl, hexl) == validate_level([[4, 2], [2, 4]])

    def test_level_sum_invalid(self):
        # off-diagonal entries of opposite sign cancel to zero
        m1 = validate_level([[2, 1], [1, 2]])
        m2 = validate_level([[2, -1], [-1, 2]])
        with pytest.raises(LevelSumInvalidError):
            level_sum(m1, m2)

    def test_product_with_cancelling_levels_raises(self):
        m1 = validate_level([[2, 1], [1, 2]])
        m2 = validate_level([[2, -1], [-1, 2]])
        om = PeriodMatrix([[1j]])
        a = BasisSymbol(m1, MultiIndex.zeros(2, 1), enumerate_characteristics(m1, 1)[0])
        b = BasisSymbol(m2, MultiIndex.zeros(2, 1), enumerate_characteristics(m2, 1)[0])
        with pytest.raises(LevelSumInvalidError):
            product_expand(a, b, om, CFG)


def deriv(level, jrows, char):
    return DerivSymbol(level, MultiIndex.from_rows(jrows), char)


class TestDiffPolyDecompose:
    def test_single_symbol_is_fixed(self):
        d = deriv(LEVEL2, [[1]], CHARS2[0])
        dec = diff_poly_decompose(d, OMEGA, CFG)
        want = BasisSymbol(LEVEL2, MultiIndex.from_rows([[1]]), CHARS2[0])
        assert dec.element == AlgebraElement.from_symbol(want)
        assert dec.conditioning == 0.0

    def test_product_of_theta_symbols(self):
        expr = Product((deriv(LEVEL2, [[0]], CHARS2[0]), deriv(LEVEL2, [[0]], CHARS2[1])))
        dec = diff_poly_decompose(expr, OMEGA, FitConfig(seed=0, holdout=20))
        assert dec.element.levels() == [LEVEL4]
        assert all(t.j.size == 0 for t in dec.element.terms())
        assert dec.residual < 1e-6
        assert in_theta_subalgebra(dec.element)

    def test_wronskian(self):
        d0 = deriv(LEVEL2, [[0]], CHARS2[0])
        d1 = deriv(LEVEL2, [[1]], CHARS2[0])
        d2 = deriv(LEVEL2, [[2]], CHARS2[0])
        expr = Sum((Product((d0, d2)), Scale(-1.0, Product((d1, d1)))))
        dec = diff_poly_decompose(expr, OMEGA, FitConfig(seed=0, holdout=20))
        assert dec.element.levels() == [LEVEL4]
        assert dec.residual < 1e-5
        # the multiplication parts of the shift operators cancel in this
        # combination, so it is a derivative-free element of the doubled level
        assert in_theta_subalgebra(dec.element)
        assert all(s.j.size == 0 for s in dec.element.terms())
        report = verify_theorem3(expr, dec, OMEGA, CFG)
        assert report["max_z0_residual"] < 1e-5
        assert report["max_sample_residual"] < 1e-8
        assert report["max_quasiperiod_residual"] < 1e-6

    def test_syntactic_zero(self):
        d1 = deriv(LEVEL2, [[1]], CHARS2[0])
        expr = Sum((d1, Scale(-1.0, d1)))
        dec = diff_poly_decompose(expr, OMEGA, CFG)
        assert dec.element.is_zero()
        assert dec.residual < 1e-7

    def test_two_seed_uniqueness(self):
        expr = Product((deriv(LEVEL2, [[0]], CHARS2[0]), deriv(LEVEL2, [[1]], CHARS2[0])))
        d_a = diff_poly_decompose(expr, OMEGA, FitConfig(seed=0))
        d_b = diff_poly_decompose(expr, OMEGA, FitConfig(seed=987654321))
        assert coeff_sup_diff(d_a.element, d_b.element) < 1e-6

    def test_scale_and_sum_are_exact(self):
        d1 = deriv(LEVEL2, [[1]], CHARS2[0])
        expr = Sum((Scale(2.5j, d1), Scale(0.5, d1)))
        dec = diff_poly_decompose(expr, OMEGA, CFG)
        s = BasisSymbol(LEVEL2, MultiIndex.from_rows([[1]]), CHARS2[0])
        assert dec.element == AlgebraElement.from_symbol(s, 0.5 + 2.5j)

    def test_width_mismatch(self):
        d = deriv(LEVEL2, [[1]], CHARS2[0])
        with pytest.raises(DimensionMismatchError):
            diff_poly_decompose(d, PeriodMatrix([[1j, 0.3j], [0.3j, 2j]]), CFG)

    def test_nan_certificate_raises(self, monkeypatch):
        # a NaN kernel must not pass as a certified residual of 0
        from thetadecomp import decompose
        from thetadecomp.evaluation import ThetaValue

        nan = ThetaValue(value=complex(float("nan"), 0.0), tail_bound=0.0)
        monkeypatch.setattr(decompose, "theta_series", lambda *args: nan)
        with pytest.raises(ResidualTooLargeError, match="not finite"):
            diff_poly_decompose(deriv(LEVEL2, [[0]], CHARS2[0]), OMEGA, CFG)


class TestRestrictZ0:
    """Restriction to Z = 0 is evaluate_element at Z = 0."""

    CFG_T = TruncationConfig(radius=8, tail_tol=1e-10)

    def at_z0(self, x, w):
        return evaluate_element(x, OMEGA, [[0.0]], w, self.CFG_T)

    def test_theta_value(self):
        x = AlgebraElement.from_symbol(BasisSymbol(LEVEL2, MultiIndex.zeros(1, 1), CHARS2[0]))
        got = self.at_z0(x, [[0.0]])
        assert abs(got.value - 1.0037348854877393) < 1e-10

    def test_odd_symmetry(self):
        x = AlgebraElement.from_symbol(BasisSymbol(LEVEL2, MultiIndex.from_rows([[1]]), CHARS2[0]))
        got = self.at_z0(x, [[0.0]])
        assert abs(got.value) <= got.tail_bound + 1e-12

    def test_matches_derivative(self):
        x = AlgebraElement.from_symbol(BasisSymbol(LEVEL2, MultiIndex.from_rows([[1]]), CHARS2[0]))
        w = np.array([[0.1 + 0.2j]])
        got = self.at_z0(x, w)
        f = lambda ww: theta_series(LEVEL2, CHARS2[0], OMEGA, ww, self.CFG_T).value
        fd = wderiv_fd(f, w, MultiIndex.from_rows([[1]]))
        assert abs(got.value - fd) < 1e-6

    def test_empty_element(self):
        got = self.at_z0(AlgebraElement.zero(), [[0.0]])
        assert got.value == 0 and got.tail_bound == 0


class TestSerializationRoundTrip:
    def test_element_json(self):
        from thetadecomp.serialization import element_from_json, element_to_json

        x = AlgebraElement(
            {
                BasisSymbol(LEVEL2, MultiIndex.from_rows([[1]]), CHARS2[1]): 0.25 - 2j,
                BasisSymbol(LEVEL4, MultiIndex.zeros(1, 1), CHARS4[3]): 1.0,
            }
        )
        assert element_from_json(element_to_json(x)) == x

    def test_expr_json(self):
        from thetadecomp.serialization import expr_from_json, expr_to_json

        expr = Sum(
            (
                Product((deriv(LEVEL2, [[0]], CHARS2[0]), deriv(LEVEL2, [[2]], CHARS2[0]))),
                Scale(-1.0 + 0j, Product((deriv(LEVEL2, [[1]], CHARS2[0]),) * 2)),
            )
        )
        assert expr_from_json(expr_to_json(expr)) == expr
