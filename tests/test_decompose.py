"""Fitting engine: round trips, products, differential polynomials, uniqueness."""

import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetadecomp.algebra import AlgebraElement, BasisSymbol, evaluate_element, in_theta_subalgebra
from thetadecomp import decompose, evaluation, verify
from thetadecomp.decompose import (
    SAMPLE_BOX,
    DerivSymbol,
    FitConfig,
    Product,
    Scale,
    Sum,
    diff_poly_decompose,
    fit_in_basis,
    level_sum,
    _worst,
    product_expand,
    verify_theorem3,
)
from thetadecomp.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    LevelSumInvalidError,
    RadiusUnachievableError,
    ResidualTooLargeError,
)
from thetadecomp.evaluation import (
    TruncationConfig,
    aux_theta_block,
    aux_theta_series,
    shift_operator_check,
    tail_bound,
    theta_series,
    truncation_config,
)
from thetadecomp.numerics import (
    MultiIndex,
    PeriodMatrix,
    enumerate_characteristics,
    multi_indices_of_size,
    multi_indices_up_to,
    validate_level,
)
from thetadecomp.verify import SHIFT_TOL, THEOREM3_SHIFT_TOL, THEOREM3_TOL

LEVEL2 = validate_level([[2]])
LEVEL4 = validate_level([[4]])
HEX = validate_level([[2, 1], [1, 2]])
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
        ecfg = truncation_config(LEVEL2, OMEGA, SAMPLE_BOX, 2)
        f = lambda z, w: evaluate_element(x, OMEGA, z, w, ecfg).value
        dec = fit_in_basis(f, LEVEL2, 2, OMEGA, CFG)
        assert coeff_sup_diff(dec.element, x) < 1e-6
        assert dec.residual < 1e-8
        assert dec.conditioning < 1e8

    def test_f_is_called_once_on_the_stacks(self):
        # f sees the n_fit + holdout points of a seed as one stack
        x = random_element(np.random.default_rng(5), max_degree=1)
        ecfg = truncation_config(LEVEL2, OMEGA, SAMPLE_BOX, 1)
        shapes = []

        def f(z, w):
            shapes.append((z.shape, w.shape))
            return evaluate_element(x, OMEGA, z, w, ecfg).value

        dec = fit_in_basis(f, LEVEL2, 1, OMEGA, CFG)
        total = 2 * 2 * 2 + CFG.holdout  # OVERSAMPLE x (2 multi-indices x 2 characteristics)
        assert shapes == [((total, 1, 1), (total, 1, 1))]
        assert coeff_sup_diff(dec.element, x) < 1e-6

    def test_zero_function(self):
        dec = fit_in_basis(lambda z, w: 0j, LEVEL2, 2, OMEGA, CFG)
        assert dec.element.is_zero()
        assert dec.residual < 1e-12

    def test_basis_element_recovers_itself(self):
        s = BasisSymbol(LEVEL2, MultiIndex.from_rows([[1]]), CHARS2[0])
        ecfg = truncation_config(LEVEL2, OMEGA, SAMPLE_BOX, 1)
        f = lambda z, w: evaluate_element(
            AlgebraElement.from_symbol(s), OMEGA, z, w, ecfg
        ).value
        dec = fit_in_basis(f, LEVEL2, 1, OMEGA, CFG)
        assert set(dec.element.terms()) == {s}
        assert abs(dec.element.terms()[s] - 1) < 1e-6

    def test_out_of_span_raises(self):
        # degree bound too small for the sampled function
        s = BasisSymbol(LEVEL2, MultiIndex.from_rows([[2]]), CHARS2[0])
        ecfg = truncation_config(LEVEL2, OMEGA, SAMPLE_BOX, 2)
        f = lambda z, w: evaluate_element(
            AlgebraElement.from_symbol(s), OMEGA, z, w, ecfg
        ).value
        with pytest.raises(ResidualTooLargeError):
            fit_in_basis(f, LEVEL2, 1, OMEGA, CFG)

    def test_degenerate_samples_rejected(self, monkeypatch):
        # a vanishingly small sample box collapses every row of the design
        # matrix to the same point; the guard must resample and then fail
        from thetadecomp import decompose
        from thetadecomp.errors import IllConditionedError

        ecfg = truncation_config(LEVEL2, OMEGA, 0.4, 2)
        s = BasisSymbol(LEVEL2, MultiIndex.zeros(1, 1), CHARS2[0])
        f = lambda z, w: evaluate_element(
            AlgebraElement.from_symbol(s), OMEGA, z, w, ecfg
        ).value
        monkeypatch.setattr(decompose, "SAMPLE_BOX", 1e-9)
        with pytest.raises(IllConditionedError):
            fit_in_basis(f, LEVEL2, 2, OMEGA, FitConfig(seed=0))

    @pytest.mark.parametrize("degree", [-1, 1.5, True])
    def test_degree_is_an_integer_at_least_zero(self, degree):
        # -1 ended in numpy's "need at least one array to concatenate"
        with pytest.raises(ValueError, match="degree"):
            fit_in_basis(lambda z, w: 1.0, LEVEL2, degree, OMEGA, CFG)

    def test_nan_function_raises(self):
        # a NaN right-hand side must not pass the holdout check as residual nan
        with pytest.raises(ResidualTooLargeError, match="not finite"):
            fit_in_basis(lambda z, w: complex(float("nan"), 0.0), LEVEL2, 1, OMEGA, CFG)

    def test_nan_kernel_raises(self, monkeypatch):
        # a NaN design matrix is rejected before the least-squares solve
        from thetadecomp import evaluation

        monkeypatch.setattr(evaluation, "_aux_value",
                            lambda level, j, chars, *rest: [complex(float("nan"), 0.0)] * len(chars))
        with pytest.raises(ResidualTooLargeError, match="not finite"):
            fit_in_basis(lambda z, w: 1.0 + 0j, LEVEL2, 1, OMEGA, CFG)


class TestFitConfig:
    @pytest.mark.parametrize("field,value", [("seed", 1.5), ("seed", True), ("seed", "0"), ("seed", None),
                                             ("holdout", 2.5), ("holdout", False), ("holdout", 0)])
    def test_seed_and_holdout_are_integers(self, field, value):
        # holdout 2.5 and seed 1.5 were accepted, and diff_poly_decompose then failed inside
        # numpy with a bare TypeError
        with pytest.raises(ValueError, match=field):
            FitConfig(**{field: value})

    def test_numpy_integers_are_kept_as_ints(self):
        cfg = FitConfig(seed=np.int64(3), holdout=np.int32(5))
        assert (type(cfg.seed), type(cfg.holdout), cfg.seed, cfg.holdout) == (int, int, 3, 5)

    @pytest.mark.parametrize("tol", [True, "1e-8", None, 0.0, -1.0, math.nan])
    def test_fit_tol_is_a_positive_real(self, tol):
        # True was read as a tolerance of 1, and "1e-8" ended in a bare TypeError from '>'
        with pytest.raises(ValueError, match="fit_tol must be positive"):
            FitConfig(fit_tol=tol)

    def test_real_fit_tols_are_kept_as_floats(self):
        for tol, want in ((np.float32(0.5), 0.5), (np.int64(1), 1.0), (math.inf, math.inf)):
            got = FitConfig(fit_tol=tol).fit_tol
            assert type(got) is float and got == want

    @pytest.mark.parametrize("seed", [1.5, "3", True, None])
    def test_every_stream_reads_its_seed_as_an_integer(self, seed):
        # 1.5 and "3" ended in a bare TypeError from '&', and True was seed 1
        with pytest.raises(ValueError, match="seed must be an integer"):
            decompose._rng(seed, decompose._STREAM_FIT)

    def test_numpy_integer_seed_is_its_int(self):
        draw = decompose._rng(np.int64(7), decompose._STREAM_FIT).uniform(size=4)
        assert np.array_equal(draw, decompose._rng(7, decompose._STREAM_FIT).uniform(size=4))


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

    @pytest.mark.parametrize("part", ["coefficient", "bound"])
    def test_non_finite_coefficient_or_bound_raises(self, monkeypatch, part):
        # a NaN at one characteristic of [[2]] x [[2]] must not be pruned away with its bound
        pair_terms = decompose._pair_terms

        def planted(*args):
            out = {}
            for jp, (coef, bound) in pair_terms(*args).items():
                if part == "coefficient":
                    coef = coef.copy()
                    coef[1] = complex("nan")
                else:
                    bound = math.nan
                out[jp] = coef, bound
            return out

        monkeypatch.setattr(decompose, "_pair_terms", planted)
        s = BasisSymbol(LEVEL2, MultiIndex.zeros(1, 1), CHARS2[0])
        with pytest.raises(ResidualTooLargeError, match="not finite"):
            product_expand(s, s, OMEGA, CFG)

    def test_product_with_cancelling_levels_raises(self):
        m1 = validate_level([[2, 1], [1, 2]])
        m2 = validate_level([[2, -1], [-1, 2]])
        om = PeriodMatrix([[1j]])
        a = BasisSymbol(m1, MultiIndex.zeros(2, 1), enumerate_characteristics(m1, 1)[0])
        b = BasisSymbol(m2, MultiIndex.zeros(2, 1), enumerate_characteristics(m2, 1)[0])
        with pytest.raises(LevelSumInvalidError):
            product_expand(a, b, om, CFG)


def product_levels():
    """Admissible level pairs with h <= 2 whose sum is admissible."""
    rows = [[[2]], [[4]], [[2, 1], [1, 2]], [[2, -1], [-1, 2]], [[2, 1], [1, 4]], [[4, -1], [-1, 2]]]
    levels = [validate_level(r) for r in rows]
    pairs = []
    for m1 in levels:
        for m2 in levels:
            if m1.h == m2.h:
                try:
                    level_sum(m1, m2)
                except LevelSumInvalidError:
                    continue
                pairs.append((m1, m2))
    return pairs


FORMULA_PAIRS = product_levels()
FIT_COLUMNS = 100  # the characteristic budget of one oracle fit: characteristics x multi-indices


def constant_radius(m1, m2, omega, degree):
    """The radius of a product's D points, as ``product_expand`` takes it: the kernel's
    radius rule at level K and Z = W = 0 (``truncation_config`` at box 0), the largest over
    every degree up to ``degree``."""
    pair = decompose._level_pair(m1, m2)
    return max(truncation_config(pair, omega, 0.0, d).radius for d in range(degree + 1))


@st.composite
def formula_cases(draw):
    m1, m2 = draw(st.sampled_from(FORMULA_PAIRS))
    g = draw(st.sampled_from((1, 2))) if m1.h == 1 else 1  # h = g = 2 has >= 144 characteristics
    re = draw(st.floats(0.05, 0.5)) * draw(st.sampled_from((-1, 1)))
    if g == 1:
        omega = PeriodMatrix([[complex(re, draw(st.floats(0.8, 1.5)))]])
    else:
        off = complex(draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.3, 0.3)))
        omega = PeriodMatrix([[complex(re, draw(st.floats(0.9, 1.5))), off],
                              [off, complex(-re / 2, draw(st.floats(0.9, 1.5)))]])
    size1 = draw(st.integers(0, 2))
    size2 = draw(st.integers(0, 2 - size1))
    h = m1.h
    j1 = draw(st.sampled_from(multi_indices_of_size(h, g, size1)))
    j2 = draw(st.sampled_from(multi_indices_of_size(h, g, size2)))
    columns = len(multi_indices_up_to(h, g, size1 + size2)) * level_sum(m1, m2).det() ** g
    assume(columns <= FIT_COLUMNS)
    c1, c2 = (enumerate_characteristics(m, g) for m in (m1, m2))
    s1 = BasisSymbol(m1, j1, draw(st.sampled_from(c1)))
    s2 = BasisSymbol(m2, j2, draw(st.sampled_from(c2)))
    return s1, s2, omega


def plain_least_radius(level, omega, degree, z_sup, log_scale, tol):
    """The least radius whose tail bound is within tol, searched from 1 with no memo: None if
    no radius up to the cap certifies it."""
    for radius in range(1, evaluation.RADIUS_CAP + 1):
        if tail_bound(level, omega, degree, z_sup, log_scale, radius) <= tol:
            return radius
    return None


@st.composite
def least_radius_cases(draw):
    m1, m2 = draw(st.sampled_from(FORMULA_PAIRS))
    level = draw(st.sampled_from((m1, level_sum(m1, m2), decompose._level_pair(m1, m2))))
    g = draw(st.sampled_from((1, 2)))
    re = draw(st.floats(-0.5, 0.5))
    if g == 1:
        omega = PeriodMatrix([[complex(re, draw(st.floats(0.3, 1.5)))]])
    else:
        off = complex(draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.2, 0.2)))
        omega = PeriodMatrix([[complex(re, draw(st.floats(0.5, 1.5))), off],
                              [off, complex(-re, draw(st.floats(0.5, 1.5)))]])
    arg = st.one_of(st.just(0.0), st.floats(0.0, 3.0))  # z_sup and log_scale
    return (level, omega, draw(st.integers(0, 4)), draw(arg), draw(arg),
            draw(st.sampled_from((1e-4, 1e-8, 1e-12, 1e-15))))


class TestLeastRadius:
    """``evaluation._least_radius``, the one memoised radius search of every lattice sum."""

    @settings(max_examples=150)
    @given(least_radius_cases())
    def test_memoised_search_is_the_search_from_one(self, case):
        # integral levels and the levels K of product pairs: a search at a nonzero z_sup or
        # log scale starts at the radius at zero, and must still find the least radius
        expected = plain_least_radius(*case)
        for _ in range(2):  # the second call reads the memo
            try:
                got = evaluation._least_radius(*case)
            except RadiusUnachievableError:
                got = None
            assert got == expected


class TestAdditionFormula:
    """product_expand by the theta addition formula, against fit_in_basis as the oracle."""

    @settings(max_examples=40)
    @given(formula_cases())
    def test_formula_agrees_with_the_fit(self, case):
        from thetadecomp.decompose import _pair_terms, _product_fit

        s1, s2, omega = case
        dec = product_expand(s1, s2, omega, CFG)
        fit = _product_fit(s1, s2, omega, CFG)
        assert coeff_sup_diff(dec.element, fit.element) < CFG.fit_tol
        assert dec.conditioning == 0.0 and 0.0 < dec.residual < CFG.fit_tol
        assert dec.element.degree() <= s1.j.size + s2.j.size
        # each coefficient's certified bound covers the terms two more shells add
        radius = constant_radius(s1.level, s2.level, omega, s1.j.size + s2.j.size)
        near, far = _pair_terms(s1, s2, omega, radius), _pair_terms(s1, s2, omega, radius + 2)
        assert near.keys() == far.keys()
        for jp, (coef, bound) in near.items():
            assert np.abs(coef - far[jp][0]).max() <= bound

    def test_multi_term_factors_agree_with_the_fit(self):
        from thetadecomp.decompose import _product_fit

        rng = np.random.default_rng(3)
        omega = PeriodMatrix([[0.3 + 1.1j]])
        x, y = random_element(rng, max_degree=1), random_element(rng, max_degree=1)
        dec = product_expand(x, y, omega, CFG)
        assert coeff_sup_diff(dec.element, _product_fit(x, y, omega, CFG).element) < 1e-8

    def test_no_sample_fit_or_series(self, monkeypatch):
        from thetadecomp import algebra, evaluation

        def refuse(*args, **kwargs):
            raise AssertionError("product_expand must not sample, fit or solve")

        monkeypatch.setattr(decompose, "fit_in_basis", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        for module in (algebra, decompose, evaluation):
            monkeypatch.setattr(module, "aux_theta_block", refuse)
        s = BasisSymbol(HEX, MultiIndex.from_rows([[1], [0]]), enumerate_characteristics(HEX, 1)[1])
        t = BasisSymbol(HEX, MultiIndex.from_rows([[0], [1]]), enumerate_characteristics(HEX, 1)[2])
        assert len(product_expand(s, t, PeriodMatrix([[0.2 + 1j]]), CFG).element) > 0

    def test_decompose_calls_the_module_product(self, monkeypatch):
        # a wrapper installed on decompose.product_expand (the per-layer tracer's) sees every product
        calls = []

        def counted(*args):
            calls.append(args)
            return product_expand(*args)

        monkeypatch.setattr(decompose, "product_expand", counted)
        expr = Product((deriv(LEVEL2, [[0]], CHARS2[0]), deriv(LEVEL2, [[1]], CHARS2[1])))
        diff_poly_decompose(expr, OMEGA, CFG)
        assert len(calls) == 1

    @pytest.mark.parametrize("j1,j2,a,b", [
        ([[0, 0], [0, 0]], [[0, 0], [0, 0]], 1, 5),
        ([[1, 0], [0, 1]], [[0, 1], [1, 0]], 1, 5),
        ([[1, 0], [0, 1]], [[0, 1], [1, 0]], 0, 1),
    ], ids=["J0-1x5", "deg4-1x5", "deg4-0x1"])
    def test_hex_g2_product(self, j1, j2, a, b, monkeypatch):
        # h*g = 4: level sum [[4,2],[2,4]] with 144 characteristics; a fit took 26 s.  The D
        # points are the kernel's kept points at K: 6,235 of 14,641 at J = 0, and 9,717 of
        # 28,561 at degree 4, where the whole cube's roundoff allowance would exceed fit_tol
        from thetadecomp.decompose import _pair_terms

        omega = PeriodMatrix([[1j, 0.25], [0.25, 1.5j]])
        chars = enumerate_characteristics(HEX, 2)
        s = BasisSymbol(HEX, MultiIndex.from_rows(j1), chars[a])
        t = BasisSymbol(HEX, MultiIndex.from_rows(j2), chars[b])
        degree = s.j.size + t.j.size
        started = time.perf_counter()
        dec = product_expand(s, t, omega, CFG)
        assert time.perf_counter() - started < 1.0
        assert 0.0 < dec.residual <= CFG.fit_tol and dec.element.levels() == [level_sum(HEX, HEX)]
        assert degree or len(dec.element) == 16
        # each coefficient's certified bound covers the terms two more shells add
        radius = constant_radius(HEX, HEX, omega, degree)
        pair = decompose._level_pair(HEX, HEX)
        kept = evaluation._quadratic_form(pair, omega, radius)[0]
        read = []  # the D points: what _pair_terms reads of the kernel's form, past its memo

        def recorded(level, omega_, radius_):
            out = evaluation._quadratic_form(level, omega_, radius_)
            read.append((level, radius_, out[0]))
            return out

        monkeypatch.setattr(decompose, "_quadratic_form", recorded)
        _pair_terms.__wrapped__(s, t, omega, radius)
        monkeypatch.undo()
        [(level, at, points)] = read
        assert level is pair and at == radius and points is kept
        assert len(points) < (2 * radius + 1) ** 4
        near, far = _pair_terms(s, t, omega, radius), _pair_terms(s, t, omega, radius + 2)
        assert near.keys() == far.keys()
        for jp, (coef, bound) in near.items():
            assert np.abs(coef - far[jp][0]).max() <= bound
        rng = np.random.default_rng(11)
        z = rng.uniform(-0.4, 0.4, (4, 2, 2)) + 1j * rng.uniform(-0.4, 0.4, (4, 2, 2))
        w = rng.uniform(-0.4, 0.4, (4, 2, 2)) + 1j * rng.uniform(-0.4, 0.4, (4, 2, 2))
        lhs = math.prod(evaluate_element(AlgebraElement.from_symbol(x), omega, z, w,
                                         truncation_config(HEX, omega, SAMPLE_BOX, x.j.size)).value
                        for x in (s, t))
        sum_cfg = truncation_config(level_sum(HEX, HEX), omega, SAMPLE_BOX, degree)
        rhs = evaluate_element(dec.element, omega, z, w, sum_cfg).value
        # scale-normalised: the degree-4 values reach about 600
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(lhs).max())

    def test_memo_holds_coefficients_not_points(self):
        # hex g=2 at J = 0: each pair of characteristics sums over the same 6,000-odd D points,
        # and the memo of eight more pairs holds less than one complex array of them; an Omega
        # of its own keeps the memo cold
        import tracemalloc

        omega = PeriodMatrix([[1j, 0.25], [0.25, 1.45j]])
        chars = enumerate_characteristics(HEX, 2)
        j0 = MultiIndex.zeros(2, 2)
        radius = constant_radius(HEX, HEX, omega, 0)
        points = len(evaluation._quadratic_form(decompose._level_pair(HEX, HEX), omega, radius)[0])
        pairs = [(BasisSymbol(HEX, j0, chars[a]), BasisSymbol(HEX, j0, chars[(a + 2) % 9])) for a in range(9)]
        first = decompose._pair_terms(*pairs[0], omega, radius)  # the caches the pairs share
        assert all(not coef.flags.writeable for coef, _ in first.values())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for s, t in pairs[1:]:
                decompose._pair_terms(s, t, omega, radius)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 16 * points

    def test_box_over_the_point_cap_is_refused_unbuilt(self):
        from thetadecomp.decompose import _pair_terms

        s = BasisSymbol(HEX, MultiIndex.zeros(2, 1), enumerate_characteristics(HEX, 1)[0])
        # the series kernel's check and message: one cap for every lattice sum
        with pytest.raises(BudgetExceededError, match="radius 600 cube of 1442401 lattice points exceeds"):
            _pair_terms(s, s, OMEGA, radius=600)  # 1201^2 points

    def test_no_radius_near_the_boundary(self):
        # Im Omega = 0.0011 is just above the evaluation floor: the envelope decays too slowly
        # for any radius up to the cap, and the one search refuses
        s = BasisSymbol(LEVEL2, MultiIndex.zeros(1, 1), CHARS2[0])
        with pytest.raises(RadiusUnachievableError, match="no radius up to 64 certifies"):
            product_expand(s, s, PeriodMatrix([[0.0011j]]), CFG)

    def test_bound_over_fit_tol_raises(self):
        s = BasisSymbol(LEVEL2, MultiIndex.zeros(1, 1), CHARS2[0])
        with pytest.raises(ResidualTooLargeError, match="coefficient bound"):
            product_expand(s, s, OMEGA, FitConfig(fit_tol=1e-300))

    def test_width_mismatch(self):
        s = BasisSymbol(LEVEL2, MultiIndex.zeros(1, 1), CHARS2[0])
        with pytest.raises(DimensionMismatchError):
            product_expand(s, s, PeriodMatrix([[1j, 0.3j], [0.3j, 2j]]), CFG)

    @pytest.mark.parametrize("factor", ["symbol", "element"])
    def test_zero_factor_gives_the_zero_product(self, factor):
        # as _decompose_node treats it; this raised "product factors must each carry a single level"
        s = BasisSymbol(LEVEL2, MultiIndex.zeros(1, 1), CHARS2[0])
        other = s if factor == "symbol" else random_element(np.random.default_rng(3))
        zero = AlgebraElement.zero()
        for pair in ((zero, other), (other, zero)):
            dec = product_expand(*pair, OMEGA, CFG)
            assert dec.element.is_zero() and (dec.residual, dec.conditioning) == (0.0, 0.0)


def deriv(level, jrows, char):
    return DerivSymbol(level, MultiIndex.from_rows(jrows), char)


@st.composite
def high_order_products(draw):
    """A product of two g=1 leaves of level [[2]], [[4]] or hex, |J1|, |J2| <= 3 (hex:
    |J1| + |J2| <= 3), at one of three Omega: the grid where finite-difference
    derivatives of order up to 6 certified right decompositions at up to 1.1e9."""
    m1, m2 = draw(st.sampled_from([(a, b) for a in (LEVEL2, LEVEL4) for b in (LEVEL2, LEVEL4)]
                                  + [(HEX, HEX)]))
    size1 = draw(st.integers(0, 3))
    size2 = draw(st.integers(0, 3 if m1.h == 1 else 3 - size1))
    leaves = [DerivSymbol(m, draw(st.sampled_from(multi_indices_of_size(m.h, 1, size))),
                          draw(st.sampled_from(enumerate_characteristics(m, 1))))
              for m, size in ((m1, size1), (m2, size2))]
    omega = PeriodMatrix([[draw(st.sampled_from((1j, 0.25 + 1j, -0.3 + 0.8j)))]])
    return Product(tuple(leaves)), omega


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
        # the zero element has no level component, so no shift-law case
        assert verify_theorem3(expr, dec, OMEGA, CFG)["max_quasiperiod_residual"] == 0.0

    def test_worst_keeps_nan(self):
        nan = float("nan")
        assert _worst([]) == 0.0 and type(_worst([])) is float
        assert _worst([0.5, 2.0, 1.0]) == 2.0 and type(_worst([0.5, 2.0])) is float
        for residuals in ([nan], [1.0, nan], [nan, 1.0], [0.0, nan, 3.0]):
            assert np.isnan(_worst(residuals))

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

    def test_certificate_differentiates_each_symbol_once(self, monkeypatch):
        # one kernel call per (level, J) of the leaves, over their distinct characteristics,
        # and one per (level, J) run of the element's terms, each on the whole point stack:
        # the derivatives are the series at Z = 0
        from thetadecomp import algebra, decompose

        calls = []
        block = aux_theta_block

        def counted(level, j, *rest):
            calls.append(j)
            return block(level, j, *rest)

        d0, d1, d2 = (deriv(LEVEL2, [[k]], CHARS2[0]) for k in range(3))
        d0b = deriv(LEVEL2, [[0]], CHARS2[1])
        w = np.array([[[0.1 + 0.2j]], [[-0.3 + 0.05j]]])  # two certificate points, one stack
        z = np.zeros_like(w)
        element = AlgebraElement({d0: 0.5, d1: 1j})
        cases = [
            (d2, AlgebraElement.from_symbol(d2), 1 + 1),  # single_j2: leaf and term are one symbol
            (Sum((Product((d0, d2)), Scale(-1.0, Product((d1, d1))))), element, 3 + 2),  # wronskian
            (Product((d0, d0b)), element, 1 + 2),  # two leaves of one (level, J): one leaf call
        ]
        for expr, elem, kernel_calls in cases:
            calls.clear()
            for module in (algebra, decompose):
                monkeypatch.setattr(module, "aux_theta_block", counted)
            got = decompose._mismatch(expr, elem, OMEGA, z, w)
            assert len(calls) == kernel_calls
            monkeypatch.undo()
            # the value is the one a series read per occurrence gives, one residual per point
            aux = {s: aux_theta_block(LEVEL2, s.j, [s.char], OMEGA, z, w,
                                      truncation_config(LEVEL2, OMEGA, SAMPLE_BOX, s.j.size))[0][:, 0]
                   for s in (d0, d1, d2, d0b)}
            lhs = {d2: aux[d2], cases[1][0]: aux[d0] * aux[d2] + -1.0 * (aux[d1] * aux[d1]),
                   cases[2][0]: aux[d0] * aux[d0b]}[expr]
            rhs = evaluate_element(elem, OMEGA, z, w, truncation_config(LEVEL2, OMEGA, SAMPLE_BOX,
                                                                        elem.degree())).value
            assert np.array_equal(got, np.abs(lhs - rhs))

    def test_theorem3_suite_certifies_only_what_it_reports(self, monkeypatch):
        # per expression: the decomposition's certificate, one stack of THEOREM3_HOLDOUT
        # points at Z = 0, then verify_theorem3's z0 and sample residuals as one stack of
        # twice as many, Z = 0 then the sampled Z; the second seed is fitted, not certified
        from thetadecomp import decompose, verify

        stacks = []
        certify = decompose._mismatch

        def counted(expr, elem, omega, z, w):
            stacks.append((len(w), not z.any()))
            return certify(expr, elem, omega, z, w)

        monkeypatch.setattr(decompose, "_mismatch", counted)
        report = verify.run_theorem3_suite(seed=0)
        assert report["passed"]
        holdout = verify.THEOREM3_HOLDOUT
        assert stacks == [(holdout, True), (2 * holdout, False)] * 6

    @pytest.mark.parametrize("planted_at", range(4))
    def test_nan_in_the_second_seed_fit_fails_its_case(self, monkeypatch, planted_at):
        # a NaN planted in each fitted product, at its planted_at-th symbol in sorted order,
        # is the case's seed agreement wherever the set of both elements' symbols yields it
        fit = verify._product_fit

        def planted(*args):
            dec = fit(*args)
            terms = dec.element.terms()
            at = sorted(terms, key=lambda s: s.sort_key())[planted_at % len(terms)]
            terms[at] = complex("nan")
            return decompose.Decomposition(AlgebraElement(terms), dec.residual, dec.conditioning)

        monkeypatch.setattr(verify, "_product_fit", planted)
        report = verify.run_theorem3_suite(seed=0)
        assert report["passed"] is False
        cases = {case["expression"]: case for case in report["expressions"]}
        for name in ("theta_product", "wronskian"):
            assert math.isnan(cases[name]["seed_agreement"]) and cases[name]["passed"] is False
        for name in ("single_j0", "single_j1", "single_j2"):  # no product: unchanged, an int
            assert cases[name]["seed_agreement"] == 0 and type(cases[name]["seed_agreement"]) is int
            assert cases[name]["passed"] is True

    def test_uncertified_node_is_the_pruned_element(self):
        from thetadecomp.decompose import _decompose_node

        expr = Product((deriv(LEVEL2, [[0]], CHARS2[0]), deriv(LEVEL2, [[1]], CHARS2[0])))
        element = _decompose_node(expr, OMEGA, CFG)
        assert element == element.prune()
        assert element == diff_poly_decompose(expr, OMEGA, CFG).element

    def test_nan_certificate_raises(self, monkeypatch):
        # a NaN kernel must not pass as a certified residual of 0
        from thetadecomp import evaluation

        monkeypatch.setattr(evaluation, "_aux_value",
                            lambda level, j, chars, *rest: np.full(len(chars), complex("nan")))
        with pytest.raises(ResidualTooLargeError, match="not finite"):
            diff_poly_decompose(deriv(LEVEL2, [[0]], CHARS2[0]), OMEGA, CFG)

    def test_kernel_calls_of_a_hex_product(self, monkeypatch):
        # one hex g=1 degree-1 product: none to expand it (the addition formula; a fit
        # took 5), then one stacked call per distinct leaf (2) and per J of the element
        # (2) for the certificate.  Finite differences of each distinct symbol took 8,
        # and point by point 808.
        from thetadecomp import algebra, decompose, evaluation

        calls = []
        block = evaluation.aux_theta_block

        def counted(*args):
            calls.append(args)
            return block(*args)

        for module in (algebra, decompose, evaluation):
            monkeypatch.setattr(module, "aux_theta_block", counted)
        hexc = enumerate_characteristics(HEX, 1)
        expr = Product((deriv(HEX, [[1], [0]], hexc[1]), deriv(HEX, [[0], [0]], hexc[2])))
        dec = diff_poly_decompose(expr, OMEGA, CFG)
        assert dec.residual < 1e-7 and len(dec.element) == 6
        assert len(calls) == 4

    @settings(max_examples=30)
    @given(high_order_products(), st.integers(0, 2**32 - 1))
    def test_shift_check_radius_is_the_least_for_its_stack(self, case, seed):
        # one setup per level component, from the stack of its four cases' shifted and base
        # points: the least radius that certifies that stack, never above the shift box's
        from thetadecomp.verify import _shift_box

        expr, omega = case
        cfg = FitConfig(seed=seed)
        dec = diff_poly_decompose(expr, omega, cfg)
        setups = []
        point_config = decompose._point_config

        def recorded(level, omega_, degree, z, w, tol):
            setup = point_config(level, omega_, degree, z, w, tol)
            setups.append((level, degree, z, w, tol, setup.radius))
            return setup

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decompose, "_point_config", recorded)
            report = verify_theorem3(expr, dec, omega, cfg)
        assert report["max_quasiperiod_residual"] < THEOREM3_SHIFT_TOL
        assert [(level, degree) for level, degree, *_ in setups] == [
            (level, dec.element.level_component(level).degree()) for level in dec.element.levels()]
        for level, degree, z, w, tol, radius in setups:
            assert tol == evaluation.TAIL_TARGET and z.shape == w.shape == (8, level.h, 1)
            point = evaluation._tail_point(level, omega, degree, z, w)[1:]
            assert tail_bound(level, omega, degree, *point, radius) <= tol
            assert radius == 1 or tail_bound(level, omega, degree, *point, radius - 1) > tol
            assert radius <= truncation_config(level, omega, _shift_box(omega), degree).radius

    def test_shift_check_tail_bounds_start_at_the_zero_drift_radius(self, monkeypatch):
        # one shift check of a hex g=1 degree-1 product, its radius at W = Z = 0 memoised: the
        # setup of its level component, [[4,2],[2,4]], calls tail_bound once per radius from 3
        # to its own 4, where a search from 1 calls it 4 times.  The memo starts empty, so
        # the count does not depend on what ran before
        evaluation._least_radius.cache_clear()
        hexc = enumerate_characteristics(HEX, 1)
        expr = Product((deriv(HEX, [[1], [0]], hexc[1]), deriv(HEX, [[0], [0]], hexc[2])))
        dec = diff_poly_decompose(expr, OMEGA, CFG)
        report = verify_theorem3(expr, dec, OMEGA, CFG)
        setups, calls = [], []
        point_config, bound = decompose._point_config, evaluation.tail_bound

        def recorded(level, omega, degree, z, w, tol):
            before = len(calls)
            setup = point_config(level, omega, degree, z, w, tol)
            r0 = evaluation._least_radius(level, omega, degree, 0.0, 0.0, tol)
            setups.append((setup.radius, r0, len(calls) - before))
            return setup

        monkeypatch.setattr(decompose, "_point_config", recorded)
        monkeypatch.setattr(evaluation, "tail_bound", lambda *args: calls.append(args) or bound(*args))
        assert verify_theorem3(expr, dec, OMEGA, CFG) == report
        assert setups == [(4, 3, 2)]

    def test_shift_checks_leave_the_radius_memo_as_it_was(self):
        # each shift-check stack is a one-off key, searched past the memo: checks at new
        # seeds, whose stacks are new, add no entry once the first check has memoised the
        # start at W = Z = 0 and the sample box's radii
        hexc = enumerate_characteristics(HEX, 1)
        expr = Product((deriv(HEX, [[1], [0]], hexc[1]), deriv(HEX, [[0], [0]], hexc[2])))
        dec = diff_poly_decompose(expr, OMEGA, CFG)
        evaluation._least_radius.cache_clear()
        verify_theorem3(expr, dec, OMEGA, CFG)
        size = evaluation._least_radius.cache_info().currsize
        assert size > 0
        for seed in (1, 2, 3):
            verify_theorem3(expr, dec, OMEGA, FitConfig(seed=seed, holdout=CFG.holdout))
        assert evaluation._least_radius.cache_info().currsize == size

    @pytest.mark.parametrize("j1,j2", [(2, 2), (3, 2), (3, 3)])
    def test_high_order_products_certify(self, j1, j2):
        # right decompositions (sample residuals 7.5e-12 to 9.5e-10) that finite-difference
        # derivatives certified at 0.22, 3.2e3 and 3.7e7; the exact ones read 6.9e-13,
        # 1.6e-11 and 8.2e-11
        expr = Product((deriv(LEVEL2, [[j1]], CHARS2[0]), deriv(LEVEL2, [[j2]], CHARS2[1])))
        dec = diff_poly_decompose(expr, OMEGA, CFG)
        report = verify_theorem3(expr, dec, OMEGA, CFG)
        assert dec.residual < THEOREM3_TOL and report["max_z0_residual"] < THEOREM3_TOL
        assert report["max_sample_residual"] < 1e-8

    @settings(max_examples=60)
    @given(high_order_products())
    def test_products_certify_at_every_order(self, case):
        # worst over the whole grid: 1.9e-6, at [[4]] x [[4]], |J1| = |J2| = 3, Omega =
        # -0.3+0.8i, where the values compared reach 5.1e8
        expr, omega = case
        dec = diff_poly_decompose(expr, omega, CFG)
        report = verify_theorem3(expr, dec, omega, CFG)
        assert dec.residual < THEOREM3_TOL and report["max_z0_residual"] < THEOREM3_TOL


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
        # the J = 1 symbol at Z = 0 is the kernel value the ladder check raises J = 0 to,
        # and there the check's 2 pi i (M Z) term is zero: it compares it with d/dW theta
        x = AlgebraElement.from_symbol(BasisSymbol(LEVEL2, MultiIndex.from_rows([[1]]), CHARS2[0]))
        w = np.array([[0.1 + 0.2j]])
        z = np.zeros((1, 1))
        got = self.at_z0(x, w)
        assert got.value == aux_theta_series(LEVEL2, MultiIndex.from_rows([[1]]), CHARS2[0], OMEGA,
                                             z, w, self.CFG_T).value
        j0 = MultiIndex.zeros(1, 1)
        for char in CHARS2:
            assert shift_operator_check(LEVEL2, j0, char, OMEGA, z, w, 1, 1, self.CFG_T) < SHIFT_TOL

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
