"""Operator algebra on formal symbol combinations: exact identities."""

import collections
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetadecomp import numerics
from thetadecomp.algebra import (
    AlgebraElement,
    BasisSymbol,
    OperatorId,
    apply,
    apply_raising_power,
    commutator,
    evaluate_element,
    in_theta_subalgebra,
    lowering_op,
    raising_op,
    scaling_op,
)
from thetadecomp.errors import DimensionMismatchError, IndexOutOfRangeError, NegativeEntryError
from thetadecomp.evaluation import TruncationConfig, theta_series
from thetadecomp.numerics import (
    MultiIndex,
    PeriodMatrix,
    enumerate_characteristics,
    multi_indices_up_to,
    validate_level,
)
from thetadecomp.verify import _ALGEBRA_CONFIGS

LEVEL2 = validate_level([[2]])
LEVEL4 = validate_level([[4]])
HEX = validate_level([[2, 1], [1, 2]])


def sym(level, j_rows, char_idx=0, g=None):
    g = g if g is not None else len(j_rows[0])
    chars = enumerate_characteristics(level, g)
    return BasisSymbol(level, MultiIndex.from_rows(j_rows), chars[char_idx])


def _moved(s, k, a, step):
    """``s`` at J +- epsilon_ka, built through the public constructors."""
    rows = [list(row) for row in s.j.j]
    rows[k - 1][a - 1] += step
    return BasisSymbol(s.level, MultiIndex(tuple(map(tuple, rows))), s.char)


def _reference_apply(op, x):
    """The operator built term by term from checked symbols: per-term image lists, each
    image a public construction."""
    out = {}
    i, a = op.i, op.j
    for s, coeff in x.items():
        m = s.level.entries
        if op.kind == "scale":
            images = [(s, coeff * m[i - 1][a - 1])]
        elif op.kind == "raise":
            images = [(_moved(s, i, a, +1), coeff)]
        else:
            images = [(_moved(s, l, a, -1), coeff * m[i - 1][l - 1] * jla)
                      for l in range(1, s.h + 1) if (jla := s.j.j[l - 1][a - 1])]
        for new, c in images:
            out[new] = out.get(new, 0) + c
    return AlgebraElement(out)


def _reference_sub(x, y):
    return x + (-1) * y


def _ops(h, g):
    return ([scaling_op(k, l) for k in range(1, h + 1) for l in range(1, h + 1)]
            + [lowering_op(m, a) for m in range(1, h + 1) for a in range(1, g + 1)]
            + [raising_op(n, b) for n in range(1, h + 1) for b in range(1, g + 1)])


_CONFIGS = [(validate_level(rows), g) for rows, g in _ALGEBRA_CONFIGS]
# floats and complex numbers whose parts may be signed zeros, subnormals or near 1e300;
# level entries <= 4 and |J| <= 4 keep every image of a commutator finite
_REALS = st.floats(-1e300, 1e300) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 9.9e299])
_COEFFS = (st.integers(-9, 9) | _REALS | st.builds(complex, _REALS, _REALS)
           | st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False))


@st.composite
def _cases(draw):
    """Two elements of one commutator-suite pair, |J| <= 4, and two of its operators."""
    level, g = draw(st.sampled_from(_CONFIGS))
    symbols = st.builds(BasisSymbol, st.just(level),
                        st.sampled_from(multi_indices_up_to(level.h, g, 4)),
                        st.sampled_from(enumerate_characteristics(level, g)))
    x, y = (AlgebraElement(draw(st.dictionaries(symbols, _COEFFS, min_size=1, max_size=12)))
            for _ in range(2))
    ops = st.sampled_from(_ops(level.h, g))
    return x, y, draw(ops), draw(ops)


class TestDerivedSymbols:
    def test_checks_of_the_public_constructor(self):
        j = MultiIndex.zeros(1, 1)
        with pytest.raises(DimensionMismatchError):  # a characteristic of another level
            BasisSymbol(LEVEL2, j, enumerate_characteristics(LEVEL4, 1)[0])
        with pytest.raises(DimensionMismatchError):  # J has h = 2 at a level with h = 1
            BasisSymbol(LEVEL2, MultiIndex.zeros(2, 1), enumerate_characteristics(LEVEL2, 1)[0])
        with pytest.raises(DimensionMismatchError):  # J has g = 2, the characteristic g = 1
            BasisSymbol(LEVEL2, MultiIndex.zeros(1, 2), enumerate_characteristics(LEVEL2, 1)[0])

    @settings(max_examples=200)
    @given(_cases())
    def test_apply_commutator_and_sub_are_the_checked_construction(self, case):
        x, y, op1, op2 = case
        for op in (op1, op2):
            got, want = apply(op, x), _reference_apply(op, x)
            # every image equals, and hashes as, its public construction; coefficients
            # are the reference's bit for bit, and terms that cancel are dropped
            for s in got.terms():
                public = BasisSymbol(s.level, MultiIndex(s.j.j), s.char)
                assert s == public and hash(s) == hash(public)
            assert {s: repr(c) for s, c in got.items()} == {s: repr(c) for s, c in want.items()}
            assert all(c != 0 for _, c in got.items())
        want = _reference_sub(_reference_apply(op1, _reference_apply(op2, x)),
                              _reference_apply(op2, _reference_apply(op1, x)))
        assert commutator(op1, op2, x) == want
        assert x - y == _reference_sub(x, y)
        assert (x - x).is_zero() and all(c != 0 for _, c in (x - y).items())

    def test_hot_path_builds_no_checked_symbol(self, monkeypatch):
        # a 20-term element of hex g = 2 with |J| <= 4; apply, commutator and the kernel
        # test build each image from its term's checked symbol, with no checked bump
        # and no __post_init__ (the kernel test's operators are built on its first call)
        rng = random.Random(5)
        chars = enumerate_characteristics(HEX, 2)
        symbols = [BasisSymbol(HEX, j, ch) for j in multi_indices_up_to(2, 2, 4) for ch in chars]
        x = AlgebraElement({s: rng.choice([-3, -1, 2, 7]) for s in rng.sample(symbols, 20)})
        assert len(x) == 20
        ops = _ops(2, 2)
        in_theta_subalgebra(x)
        counts = collections.Counter()

        def counting(name, method):
            def counted(*args):
                counts[name] += 1
                return method(*args)
            return counted

        for cls in (BasisSymbol, MultiIndex, OperatorId):
            monkeypatch.setattr(cls, "__post_init__", counting(cls.__name__, cls.__post_init__))
        monkeypatch.setattr(MultiIndex, "bump", counting("bump", MultiIndex.bump))
        for op in ops:
            apply(op, x)
        for op1, op2 in itertools.combinations(ops, 2):
            commutator(op1, op2, x)
        in_theta_subalgebra(x)
        assert counts == {}
        apply_raising_power(MultiIndex.from_rows([[1, 0], [0, 2]]), x)  # builds its operators
        assert counts == {"MultiIndex": 1, "OperatorId": 3}
        counts.clear()
        symbols[0].j.bump(1, 1, +1)  # the counters do count
        BasisSymbol(HEX, MultiIndex.zeros(2, 2), chars[0])
        assert counts == {"bump": 1, "BasisSymbol": 1, "MultiIndex": 1}


class TestBumpMemo:
    @settings(max_examples=150)
    @given(st.sampled_from(_CONFIGS), st.data())
    def test_memo_changes_no_image(self, config, data):
        # every bump, cold (memo cleared) and then warm, equals and hashes as its public
        # construction, and a negative entry raises on both passes
        level, g = config
        s = BasisSymbol(level, data.draw(st.sampled_from(multi_indices_up_to(level.h, g, 4))),
                        data.draw(st.sampled_from(enumerate_characteristics(level, g))))
        moves = list(itertools.product(range(1, level.h + 1), range(1, g + 1), (1, -1)))
        numerics._bump.cache_clear()
        cold = {}
        for memo in ("cold", "warm"):
            for k, a, step in moves:
                if s.j.j[k - 1][a - 1] + step < 0:
                    with pytest.raises(NegativeEntryError):
                        s.j.bump(k, a, step)
                    continue
                want = _moved(s, k, a, step)
                j = s.j.bump(k, a, step)
                assert j == want.j and hash(j) == hash(want.j)
                if memo == "cold":
                    cold[k, a, step] = j
                else:  # read from the memo, not built again
                    assert j is cold[k, a, step]


class TestApply:
    def test_lowering_on_j1(self):
        x = AlgebraElement.from_symbol(sym(LEVEL2, [[1]]))
        got = apply(lowering_op(1, 1), x)
        assert got == AlgebraElement.from_symbol(sym(LEVEL2, [[0]]), 2)

    def test_lowering_kills_j0(self):
        x = AlgebraElement.from_symbol(sym(LEVEL2, [[0]], char_idx=1))
        assert apply(lowering_op(1, 1), x).is_zero()

    def test_raising(self):
        x = AlgebraElement.from_symbol(sym(LEVEL2, [[0]]))
        assert apply(raising_op(1, 1), x) == AlgebraElement.from_symbol(sym(LEVEL2, [[1]]))

    def test_lowering_mixes_rows(self):
        # h=2: coefficient of each lowered term comes from the level row
        x = AlgebraElement.from_symbol(sym(HEX, [[1], [1]]))
        got = apply(lowering_op(1, 1), x)
        want = (
            2 * AlgebraElement.from_symbol(sym(HEX, [[0], [1]]))
            + 1 * AlgebraElement.from_symbol(sym(HEX, [[1], [0]]))
        )
        assert got == want

    def test_scaling(self):
        x = AlgebraElement.from_symbol(sym(LEVEL4, [[0]]), coeff=3)
        assert apply(scaling_op(1, 1), x) == AlgebraElement.from_symbol(sym(LEVEL4, [[0]]), 12)

    def test_linearity_is_exact(self):
        rng = random.Random(17)
        chars = enumerate_characteristics(HEX, 1)
        js = multi_indices_up_to(2, 1, 3)
        ops = [lowering_op(1, 1), lowering_op(2, 1), raising_op(1, 1), scaling_op(1, 2)]
        for _ in range(50):
            x = AlgebraElement(
                {
                    BasisSymbol(HEX, rng.choice(js), rng.choice(chars)): rng.randint(-5, 5)
                    for _ in range(4)
                }
            )
            y = AlgebraElement(
                {
                    BasisSymbol(HEX, rng.choice(js), rng.choice(chars)): rng.randint(-5, 5)
                    for _ in range(4)
                }
            )
            c = rng.randint(-3, 3)
            for op in ops:
                assert apply(op, x + c * y) == apply(op, x) + c * apply(op, y)

    def test_index_out_of_range(self):
        x = AlgebraElement.from_symbol(sym(LEVEL2, [[0]]))
        with pytest.raises(IndexOutOfRangeError):
            apply(lowering_op(1, 2), x)
        with pytest.raises(IndexOutOfRangeError):
            apply(scaling_op(2, 1), x)

    @pytest.mark.parametrize("make", [scaling_op, lowering_op, raising_op])
    @pytest.mark.parametrize("bad", [1.0, True, 0, -1, np.int64(1), "1", None])
    def test_operator_indices_are_checked_at_construction(self, make, bad):
        # refused before any element is seen, so the zero element cannot hide a bad index
        with pytest.raises(IndexOutOfRangeError):
            make(bad, 1)
        with pytest.raises(IndexOutOfRangeError):
            make(1, bad)


class TestRaisingPower:
    def test_power_two(self):
        x = AlgebraElement.from_symbol(sym(LEVEL2, [[0]]))
        got = apply_raising_power(MultiIndex.from_rows([[2]]), x)
        assert got == AlgebraElement.from_symbol(sym(LEVEL2, [[2]]))

    def test_zero_power_is_identity(self):
        x = AlgebraElement.from_symbol(sym(LEVEL2, [[1]]), coeff=2 + 1j)
        assert apply_raising_power(MultiIndex.zeros(1, 1), x) == x

    def test_raising_ops_commute(self):
        x = AlgebraElement.from_symbol(sym(LEVEL2, [[1, 0]], g=2))
        one_two = apply(raising_op(1, 1), apply(raising_op(1, 2), x))
        two_one = apply(raising_op(1, 2), apply(raising_op(1, 1), x))
        assert one_two == two_one


class TestCommutators:
    def test_lower_raise_same_column(self):
        x = AlgebraElement.from_symbol(sym(LEVEL2, [[0]]))
        assert commutator(lowering_op(1, 1), raising_op(1, 1), x) == 2 * x

    def test_scale_raise_commute(self):
        x = AlgebraElement.from_symbol(sym(LEVEL2, [[2]]), coeff=5)
        assert commutator(scaling_op(1, 1), raising_op(1, 1), x).is_zero()

    def test_lower_raise_distinct_columns(self):
        x = AlgebraElement.from_symbol(sym(LEVEL2, [[1, 1]], g=2))
        assert commutator(lowering_op(1, 1), raising_op(1, 2), x).is_zero()

    @pytest.mark.parametrize("level,h", [(LEVEL2, 1), (LEVEL4, 1), (HEX, 2)])
    @pytest.mark.parametrize("g", [1, 2])
    def test_full_relation_table(self, level, h, g):
        """All five bracket families, exactly, on every symbol of order <= 3."""
        chars = enumerate_characteristics(level, g)
        scalings = [scaling_op(k, l) for k in range(1, h + 1) for l in range(1, h + 1)]
        lowerings = [lowering_op(m, a) for m in range(1, h + 1) for a in range(1, g + 1)]
        raisings = [raising_op(n, b) for n in range(1, h + 1) for b in range(1, g + 1)]
        symbols = [
            AlgebraElement.from_symbol(BasisSymbol(level, j, ch))
            for j in multi_indices_up_to(h, g, 3)
            for ch in chars[: min(3, len(chars))]
        ]
        for x in symbols:
            for e1, e2 in itertools.combinations(scalings, 2):
                assert commutator(e1, e2, x).is_zero()
            for e in scalings:
                for d in lowerings:
                    assert commutator(e, d, x).is_zero()
                for r in raisings:
                    assert commutator(e, r, x).is_zero()
            for d1, d2 in itertools.combinations(lowerings, 2):
                assert commutator(d1, d2, x).is_zero()
            for r1, r2 in itertools.combinations(raisings, 2):
                assert commutator(r1, r2, x).is_zero()
            for d in lowerings:
                for r in raisings:
                    got = commutator(d, r, x)
                    if d.j == r.j:
                        assert got == apply(scaling_op(d.i, r.i), x)
                    else:
                        assert got.is_zero()

    def test_ladder_on_vacuum(self):
        # lowering after raising on an order-zero symbol scales by the level entry
        for level, h in ((LEVEL2, 1), (HEX, 2)):
            chars = enumerate_characteristics(level, 1)
            for m in range(1, h + 1):
                for n in range(1, h + 1):
                    s = AlgebraElement.from_symbol(
                        BasisSymbol(level, MultiIndex.zeros(h, 1), chars[0])
                    )
                    got = commutator(lowering_op(m, 1), raising_op(n, 1), s)
                    assert got == level.entries[m - 1][n - 1] * s


class TestThetaSubalgebra:
    def test_mixed_levels_order_zero(self):
        x = 3 * AlgebraElement.from_symbol(sym(LEVEL2, [[0]])) + 1j * AlgebraElement.from_symbol(
            sym(LEVEL4, [[0]], char_idx=1)
        )
        assert in_theta_subalgebra(x)

    def test_positive_order_fails(self):
        assert not in_theta_subalgebra(AlgebraElement.from_symbol(sym(LEVEL2, [[1]])))

    def test_zero_element(self):
        assert in_theta_subalgebra(AlgebraElement.zero())

    def test_matches_structural_test_on_random_elements(self):
        rng = random.Random(23)
        chars2 = enumerate_characteristics(LEVEL2, 1)
        chars_hex = enumerate_characteristics(HEX, 1)
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                if rng.random() < 0.5:
                    s = BasisSymbol(
                        LEVEL2,
                        MultiIndex.from_rows([[rng.randint(0, 2)]]),
                        rng.choice(chars2),
                    )
                else:
                    s = BasisSymbol(
                        HEX,
                        MultiIndex.from_rows([[rng.randint(0, 2)], [rng.randint(0, 2)]]),
                        rng.choice(chars_hex),
                    )
                terms[s] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            # split by shape: h=1 and h=2 symbols cannot share one element
            for h in (1, 2):
                x = AlgebraElement({s: c for s, c in terms.items() if s.h == h})
                if x.is_zero():
                    continue
                structural = all(s.j.size == 0 for s in x.terms())
                assert in_theta_subalgebra(x) == structural


class TestElementArithmetic:
    def test_exact_cancellation(self):
        x = AlgebraElement.from_symbol(sym(LEVEL2, [[1]]), coeff=3)
        assert (x - x).is_zero()

    def test_levels_and_components(self):
        x = AlgebraElement.from_symbol(sym(LEVEL2, [[0]])) + AlgebraElement.from_symbol(
            sym(LEVEL4, [[1]]), coeff=2j
        )
        assert x.levels() == [LEVEL2, LEVEL4]
        assert x.level_component(LEVEL4) == AlgebraElement.from_symbol(sym(LEVEL4, [[1]]), 2j)
        assert x.degree() == 1

    def test_prune(self):
        x = AlgebraElement(
            {sym(LEVEL2, [[0]]): 1e-15, sym(LEVEL2, [[1]]): 0.5}
        )
        assert len(x.prune()) == 1

    def test_prune_keeps_non_finite_coefficients(self):
        kept = {sym(LEVEL2, [[1]]): float("nan"), sym(LEVEL2, [[2]]): complex("nan+0j"),
                sym(LEVEL2, [[3]]): float("-inf"), sym(LEVEL2, [[4]]): complex(1e-15, float("inf"))}
        x = AlgebraElement({sym(LEVEL2, [[0]]): 1e-15, **kept})
        assert x.prune().terms().keys() == kept.keys()

    def test_shape_mismatch_detected(self):
        x = AlgebraElement.from_symbol(sym(LEVEL2, [[0]])) + AlgebraElement.from_symbol(
            sym(HEX, [[0], [0]])
        )
        with pytest.raises(DimensionMismatchError):
            x.shape()


class TestEvaluateElement:
    CFG = TruncationConfig(radius=8, tail_tol=1e-10)
    OMEGA = PeriodMatrix([[1j]])

    def test_single_symbol(self):
        from thetadecomp.evaluation import aux_theta_series

        s = sym(LEVEL2, [[1]])
        x = AlgebraElement.from_symbol(s)
        z = np.array([[0.2 + 0.1j]])
        w = np.array([[0.1 - 0.2j]])
        direct = aux_theta_series(s.level, s.j, s.char, self.OMEGA, z, w, self.CFG)
        got = evaluate_element(x, self.OMEGA, z, w, self.CFG)
        assert got.value == direct.value
        assert got.tail_bound == direct.tail_bound

    def test_one_block_per_level_and_multi_index(self, monkeypatch):
        from thetadecomp import algebra
        from thetadecomp.evaluation import aux_theta_block, aux_theta_series

        # three levels, several (level, J) runs of one to three characteristics
        x = AlgebraElement({
            sym(LEVEL2, [[1]], 1): 0.5 - 1j, sym(LEVEL2, [[1]], 0): 2,
            sym(LEVEL2, [[0]], 1): -1.5j, sym(LEVEL4, [[2]], 3): 0.25,
            sym(LEVEL4, [[2]], 0): 1 + 1j, sym(LEVEL4, [[2]], 2): -3,
            sym(LEVEL4, [[0]], 1): 0.75, sym(LEVEL2, [[2]], 0): 1j,
        })
        z = np.array([[0.2 + 0.1j]])
        w = np.array([[0.1 - 0.2j]])
        value, tail = 0j, 0.0
        for s, coeff in x.sorted_terms():
            one = aux_theta_series(s.level, s.j, s.char, self.OMEGA, z, w, self.CFG)
            value += complex(coeff) * one.value
            tail += abs(coeff) * one.tail_bound
        calls = []

        def counted(level, j, chars, *args):
            calls.append((level, j, [c.index for c in chars]))
            return aux_theta_block(level, j, chars, *args)

        monkeypatch.setattr(algebra, "aux_theta_block", counted)
        got = evaluate_element(x, self.OMEGA, z, w, self.CFG)
        assert got.value == value and got.tail_bound == tail
        # one call per run, in the order of the sorted terms
        assert [(level, j.size, c) for level, j, c in calls] == [
            (LEVEL2, 0, [1]), (LEVEL2, 1, [0, 1]), (LEVEL2, 2, [0]),
            (LEVEL4, 0, [1]), (LEVEL4, 2, [0, 2, 3]),
        ]

    def test_stack_is_its_points(self):
        # stacked Z and W give one value per point, and one bound that covers each
        x = AlgebraElement({sym(LEVEL2, [[1]], 1): 0.5 - 1j, sym(LEVEL2, [[0]], 0): 2,
                            sym(LEVEL4, [[2]], 3): 0.25, sym(LEVEL4, [[2]], 0): 1 + 1j})
        rng = np.random.default_rng(2)
        z, w = rng.uniform(-0.4, 0.4, (2, 6, 1, 1)) + 1j * rng.uniform(-0.4, 0.4, (2, 6, 1, 1))
        got = evaluate_element(x, self.OMEGA, z, w, self.CFG)
        assert got.value.shape == (6,)
        for s in range(6):
            one = evaluate_element(x, self.OMEGA, z[s], w[s], self.CFG)
            assert isinstance(one.value, complex)
            assert abs(got.value[s] - one.value) <= 1e-14 * abs(one.value)
            assert one.tail_bound <= got.tail_bound

    def test_difference_cancels_exactly(self):
        s = sym(LEVEL2, [[1]])
        x = AlgebraElement.from_symbol(s, coeff=1.0)
        assert (x - x).is_zero()
        got = evaluate_element(x - x, self.OMEGA, [[0.0]], [[0.1]], self.CFG)
        assert got.value == 0 and got.tail_bound == 0

    def test_zero_element_at_a_stack_is_one_zero_per_point(self):
        # it returned the scalar 0j
        zs = np.zeros((3, 1, 1), dtype=complex)
        got = evaluate_element(AlgebraElement.zero(), self.OMEGA, zs, zs + 0.1, self.CFG)
        assert got.value.shape == (3,) and not got.value.any() and got.tail_bound == 0.0
        one = evaluate_element(AlgebraElement.zero(), self.OMEGA, zs[0], zs[0], self.CFG)
        assert type(one.value) is complex and one.value == 0

    def test_matches_finite_difference(self):
        x = AlgebraElement.from_symbol(sym(LEVEL2, [[1]]), coeff=2)
        w = 0.1 + 0.2j
        got = evaluate_element(x, self.OMEGA, [[0.0]], [[w]], self.CFG)
        ch = enumerate_characteristics(LEVEL2, 1)[0]
        h = 1e-5
        fd = (
            theta_series(LEVEL2, ch, self.OMEGA, [[w + h]], self.CFG).value
            - theta_series(LEVEL2, ch, self.OMEGA, [[w - h]], self.CFG).value
        ) / (2 * h)
        assert abs(got.value - 2 * fd) < 1e-6

    def test_lowering_matches_z_derivative(self):
        # the symbolic lowering action agrees with (2 pi i)^-1 d/dZ of the series
        x = AlgebraElement.from_symbol(sym(LEVEL2, [[2]]))
        lowered = apply(lowering_op(1, 1), x)
        z = np.array([[0.2 - 0.1j]])
        w = np.array([[0.1 + 0.15j]])
        step = 1e-5
        fd = (
            evaluate_element(x, self.OMEGA, z + step, w, self.CFG).value
            - evaluate_element(x, self.OMEGA, z - step, w, self.CFG).value
        ) / (2 * step) / (2j * np.pi)
        got = evaluate_element(lowered, self.OMEGA, z, w, self.CFG).value
        assert abs(fd - got) < 1e-7
