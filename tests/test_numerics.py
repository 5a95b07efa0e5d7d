"""Exact-arithmetic core: level validation, characteristics, SNF, multi-indices."""

import itertools
import math
import random
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from thetadecomp import numerics
from thetadecomp.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InvalidBinomError,
    NegativeEntryError,
    NotEvenError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SingularMatrixError,
    ZeroEntryError,
)
from thetadecomp.numerics import (
    Characteristic,
    LevelMatrix,
    MultiIndex,
    PeriodMatrix,
    enumerate_characteristics,
    int_det,
    multi_binom,
    multi_indices_up_to,
    smith_normal_form,
    validate_level,
)


def brute_force_cosets(m_rows, search=8):
    """Independent oracle: enumerate M^-1 Z^h / Z^h by scanning integer vectors.

    Returns the set of canonical [0,1) representatives, computed with exact
    rational arithmetic and without Smith-form machinery.
    """
    h = len(m_rows)
    m = [[Fraction(x) for x in row] for row in m_rows]
    # invert M over the rationals by Gaussian elimination
    aug = [row[:] + [Fraction(int(i == j)) for j in range(h)] for i, row in enumerate(m)]
    for c in range(h):
        p = next(r for r in range(c, h) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(h):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    minv = [row[h:] for row in aug]
    reps = set()
    for b in itertools.product(range(-search, search + 1), repeat=h):
        a = tuple(sum(minv[i][k] * b[k] for k in range(h)) % 1 for i in range(h))
        reps.add(a)
    return reps


class TestValidateLevel:
    def test_smallest_even(self):
        lvl = validate_level([[2]])
        assert lvl.h == 1 and lvl.det() == 2

    def test_two_by_two(self):
        lvl = validate_level([[2, 1], [1, 2]])
        assert lvl.det() == 3

    def test_derived_constants(self):
        lvl = validate_level([[2, 1], [1, 2]])
        assert lvl.min_eig == pytest.approx(1.0)
        assert lvl.row_sum_norm == 3.0
        assert lvl.as_array() is lvl.as_array()
        assert not lvl.as_array().flags.writeable
        # cached values never enter equality or hashing
        assert lvl == LevelMatrix(lvl.entries) and hash(lvl) == hash(LevelMatrix(lvl.entries))

    def test_array_and_row_sum_norm_are_set_at_construction(self):
        # most parsed levels are read for both; the least eigenvalue waits for its first read
        lvl = validate_level([[4, -3], [-3, 8]])
        fields = vars(lvl)
        assert not fields["_array"].flags.writeable and fields["row_sum_norm"] == 11.0
        np.testing.assert_array_equal(fields["_array"], [[4.0, -3.0], [-3.0, 8.0]])
        assert "min_eig" not in fields
        assert lvl.min_eig == pytest.approx(6 - math.sqrt(13)) and "min_eig" in vars(lvl)

    def test_hash_is_computed_once(self):
        # equal levels built separately are equal, hash equal, and share evaluation memos
        from thetadecomp import evaluation

        a, b = validate_level([[4, 2], [2, 4]]), validate_level([[4, 2], [2, 4]])
        assert a is not b and a == b and hash(a) == hash(b)
        assert vars(a)["_hash"] == hash(a) == hash((a.entries,))
        omega = PeriodMatrix([[1j, 0.25], [0.25, 1.5j]])
        assert evaluation._quadratic_form(a, omega, 2) is evaluation._quadratic_form(b, omega, 2)

    def test_period_matrix_reach(self):
        from thetadecomp.verify import _shift_box

        om = PeriodMatrix([[1j, -0.3j], [-0.3j, 2j]])
        assert _shift_box(om) == pytest.approx(0.4 + 2.3 + 1.0)
        assert om.im_min_eig == pytest.approx(min(np.linalg.eigvalsh([[1, -0.3], [-0.3, 2]])))

    def test_zero_entry_rejected(self):
        with pytest.raises(ZeroEntryError):
            validate_level([[2, 0], [0, 2]])

    def test_odd_diagonal_rejected(self):
        with pytest.raises(NotEvenError):
            validate_level([[1]])

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            validate_level([[2, 1], [3, 2]])

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            validate_level([[-2]])
        with pytest.raises(NotPositiveDefiniteError):
            validate_level([[2, 4], [4, 2]])

    @pytest.mark.parametrize("read,m", [(validate_level, [2]), (validate_level, 2),
                                        (MultiIndex.from_rows, [1, 2])],
                             ids=["level-row", "level-scalar", "multi-index-row"])
    def test_input_that_is_no_sequence_of_rows(self, read, m):
        # refused before any entry is read, not a bare "'int' object is not iterable"
        with pytest.raises(DimensionMismatchError, match="sequence of rows"):
            read(m)

    @pytest.mark.parametrize("entry", [np.complex128(1), 1 + 0j, np.complex64(2)],
                             ids=["numpy-complex128", "python-complex", "numpy-complex64"])
    def test_complex_entry_is_refused_with_no_warning(self, entry):
        # a zero imaginary part included: int() of a numpy complex used to drop it and warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatchError, match=r"entry \(0,1\)"):
                validate_level([[2, entry], [1, 2]])
            with pytest.raises(DimensionMismatchError, match=r"entry \(0,0\)"):
                MultiIndex.from_rows(np.array([[entry]]))

    def test_level_matrix_is_hashable(self):
        assert validate_level([[2]]) == validate_level([[2]])
        assert len({validate_level([[2]]), validate_level([[4]])}) == 2


class TestCharacteristics:
    def test_level_two(self):
        chars = enumerate_characteristics(validate_level([[2]]), 1)
        assert [c.a for c in chars] == [((Fraction(0),),), ((Fraction(1, 2),),)]
        assert [c.index for c in chars] == [0, 1]

    def test_level_four(self):
        chars = enumerate_characteristics(validate_level([[4]]), 1)
        assert [c.a[0][0] for c in chars] == [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]

    def test_hexagonal_level_matches_brute_force(self):
        lvl = validate_level([[2, 1], [1, 2]])
        chars = enumerate_characteristics(lvl, 1)
        assert len(chars) == 3
        got = {tuple(row[0] for row in c.a) for c in chars}
        assert got == brute_force_cosets([[2, 1], [1, 2]])
        assert got == {
            (Fraction(0), Fraction(0)),
            (Fraction(1, 3), Fraction(1, 3)),
            (Fraction(2, 3), Fraction(2, 3)),
        }

    def test_budget_is_checked_before_enumerating(self, monkeypatch):
        monkeypatch.setattr(numerics, "CHARACTERISTIC_CAP", 4)
        assert len(enumerate_characteristics(validate_level([[2]]), 2)) == 4
        with pytest.raises(BudgetExceededError, match="2\\^3"):
            enumerate_characteristics(validate_level([[2]]), 3)
        with pytest.raises(BudgetExceededError):
            enumerate_characteristics(validate_level([[2, 1], [1, 2]]), 2)

    def test_enumeration_builds_no_array(self):
        # a series reads the arrays of the characteristics it sums only, so none is built here
        chars = enumerate_characteristics(validate_level([[4, -3], [-3, 8]]), 2)
        assert len(chars) == 23 ** 2 and not any("_array" in vars(c) for c in chars)
        assert chars[-1].as_array().shape == (2, 2) and "_array" in vars(chars[-1])

    def test_over_budget_is_refused_at_once(self):
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="2\\^40"):
            enumerate_characteristics(validate_level([[2]]), 40)
        assert time.perf_counter() - started < 1.0

    def test_cap_is_decided_without_the_power(self):
        # det^g is never formed: 2^256000000 alone would take 32 MB
        level = validate_level([[2]])
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="2\\^256000000"):
                enumerate_characteristics(level, 256_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("g", [2.0, True, False, 0, -1, "2", None])
    def test_g_is_an_integer_at_least_one(self, g):
        # g = 2.0 ended in a bare TypeError from range(), and g = True gave the g = 1 characteristics
        with pytest.raises(DimensionMismatchError, match="g must be an integer >= 1"):
            enumerate_characteristics(validate_level([[2]]), g)

    def test_numpy_integer_g_is_a_g(self):
        chars = enumerate_characteristics(validate_level([[2]]), np.int64(2))
        assert chars is enumerate_characteristics(validate_level([[2]]), 2)
        assert len(chars) == 4 and all(len(row) == 2 for c in chars for row in c.a)

    def test_count_is_det_to_the_g(self):
        assert len(enumerate_characteristics(validate_level([[2, 1], [1, 2]]), 2)) == 9
        assert len(enumerate_characteristics(validate_level([[2]]), 2)) == 4

    @pytest.mark.parametrize(
        "rows,g",
        [
            ([[2]], 1),
            ([[2]], 2),
            ([[4]], 1),
            ([[4]], 2),
            ([[2, 1], [1, 2]], 1),
            ([[2, 1], [1, 2]], 2),
            ([[2, -1], [-1, 2]], 1),
            ([[6]], 1),
        ],
    )
    def test_system_is_valid(self, rows, g):
        lvl = validate_level(rows)
        chars = enumerate_characteristics(lvl, g)
        assert len(chars) == lvl.det() ** g
        for c in chars:
            # canonical box and integrality of M*a
            for row in c.a:
                assert all(0 <= x < 1 for x in row)
            for i in range(lvl.h):
                for col in range(g):
                    v = sum(Fraction(lvl.entries[i][k]) * c.a[k][col] for k in range(lvl.h))
                    assert v.denominator == 1
        # pairwise distinct modulo integer matrices: canonical reps differ literally
        seen = {c.a for c in chars}
        assert len(seen) == len(chars)


class TestSmithNormalForm:
    def assert_snf(self, m):
        u, d, v = smith_normal_form(m)
        um = np.array(u, dtype=object) @ np.array(m, dtype=object) @ np.array(v, dtype=object)
        assert np.array_equal(um, np.array(d, dtype=object))
        assert abs(int_det(u)) == 1
        assert abs(int_det(v)) == 1
        diag = [d[i][i] for i in range(len(d))]
        assert all(x > 0 for x in diag)
        for i in range(len(diag) - 1):
            assert diag[i + 1] % diag[i] == 0
        return diag

    def test_one_by_one(self):
        assert self.assert_snf([[2]]) == [2]

    def test_identity(self):
        assert self.assert_snf([[1, 0], [0, 1]]) == [1, 1]

    def test_hexagonal(self):
        # hand elimination: swap rows, clear, clean up signs -> diag(1, 3)
        assert self.assert_snf([[2, 1], [1, 2]]) == [1, 3]

    def test_random_matrices(self):
        rng = random.Random(7)
        done = 0
        while done < 40:
            n = rng.choice([1, 2, 3])
            m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            if int_det(m) == 0:
                with pytest.raises(SingularMatrixError):
                    smith_normal_form(m)
                continue
            diag = self.assert_snf(m)
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(int_det(m))
            done += 1

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            smith_normal_form([[1, 1], [1, 1]])


class TestMultiIndex:
    def test_size_and_factorial(self):
        j = MultiIndex.from_rows([[2, 1]])
        assert j.size == 3
        assert j.factorial() == 2

    def test_size_is_set_at_construction_and_stays_out_of_equality(self):
        # on every path that builds an index: public, zeros, from_rows, bump cold and warm,
        # and apply's images, which read the bump memo directly
        from thetadecomp.algebra import AlgebraElement, BasisSymbol, apply, lowering_op, raising_op

        a = MultiIndex(((2, 1), (0, 3)))
        built = [a, MultiIndex.zeros(2, 3), MultiIndex.from_rows([[2, 1], [0, 3]])]
        numerics._bump.cache_clear()
        built += [a.bump(1, 1, +1), a.bump(2, 2, -1), a.bump(1, 1, +1), a.bump(2, 2, -1)]
        level = validate_level([[2, 1], [1, 2]])
        x = AlgebraElement.from_symbol(BasisSymbol(level, a, enumerate_characteristics(level, 2)[0]))
        for op in (raising_op(2, 1), lowering_op(1, 2)):
            built += [s.j for s in apply(op, x).terms()]
        assert len(built) == 10
        for j in built:
            assert vars(j)["size"] == sum(map(sum, j.j))
        b = MultiIndex.from_rows([[2, 1], [0, 3]])
        assert a.size == b.size == 6 and a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != MultiIndex.from_rows([[3, 0], [0, 3]])

    def test_bump(self):
        j = MultiIndex.zeros(1, 2)
        assert j.bump(1, 1, +1).j == ((1, 0),)
        assert j.bump(1, 1, +1).bump(1, 1, -1) == j

    def test_bump_negative(self):
        with pytest.raises(NegativeEntryError):
            MultiIndex.zeros(1, 1).bump(1, 1, -1)

    def test_bump_out_of_range(self):
        with pytest.raises(DimensionMismatchError):
            MultiIndex.zeros(1, 1).bump(2, 1, +1)

    def test_hash_is_computed_once(self):
        # the value of the default dataclass hash, so every memo key is unchanged
        rows = ((2, 1), (0, 3))
        j = MultiIndex(rows)
        assert vars(j)["_hash"] == hash(j) == hash((rows,))

    def test_bump_checks_the_entry_it_moves(self):
        # lowering the one zero entry of an index whose other entries are positive
        with pytest.raises(NegativeEntryError):
            MultiIndex.from_rows([[3, 0], [2, 5]]).bump(1, 2, -1)

    @pytest.mark.parametrize("k,a", [(0, 1), (3, 1), (1, 0), (1, 3), (-1, 1)])
    def test_bump_index_outside_h_by_g(self, k, a):
        with pytest.raises(DimensionMismatchError):
            MultiIndex.from_rows([[1, 2], [3, 4]]).bump(k, a, +1)

    @pytest.mark.parametrize("step", [0, 2, -2])
    def test_bump_step_other_than_one(self, step):
        with pytest.raises(ValueError):
            MultiIndex.from_rows([[1, 2]]).bump(1, 1, step)

    def test_bump_is_the_checked_index(self):
        # its stored fields, size included, are the public constructor's, built or memoised
        j = MultiIndex.from_rows([[3, 0], [2, 5]])
        for _ in range(2):
            for k, a, step in itertools.product((1, 2), (1, 2), (1, -1)):
                if j.j[k - 1][a - 1] + step < 0:
                    continue
                rows = [list(row) for row in j.j]
                rows[k - 1][a - 1] += step
                want = MultiIndex(tuple(map(tuple, rows)))
                got = j.bump(k, a, step)
                assert got == want and hash(got) == hash(want) and vars(got) == vars(want)

    def test_float_index_raises_where_its_integer_is_cached(self):
        # 1.0 == 1 and hashes alike, so a memo keyed on the raw index would return a result
        j = MultiIndex.from_rows([[1, 2], [3, 4]])
        want = j.bump(1, 1, +1)
        for k, a in ((1.0, 1), (1, 1.0), (1.5, 1)):
            with pytest.raises(TypeError):
                j.bump(k, a, +1)
        assert j.bump(1, 1, +1) is want

    @pytest.mark.parametrize("entry", [1.0, np.int64(1), True])
    def test_entries_are_python_ints(self, entry):
        # equal by value is then equal entry by entry, so a memoised bump of an index never
        # returns the entries of an equal index of another type ([[2.0]] for [[1]] + 1)
        with pytest.raises(DimensionMismatchError):
            MultiIndex(((entry,),))
        assert MultiIndex.from_rows([[entry]]).j == ((1,),)
        assert type(MultiIndex.from_rows([[entry]]).bump(1, 1, +1).j[0][0]) is int

    def test_negative_result_raises_on_every_repeat(self):
        j = MultiIndex.from_rows([[3, 0], [2, 5]])
        cached = numerics._bump.cache_info().currsize
        for _ in range(3):
            with pytest.raises(NegativeEntryError):
                j.bump(1, 2, -1)
        assert numerics._bump.cache_info().currsize == cached  # an exception is never stored

    @pytest.mark.parametrize("k,a,step", [(True, 1, 1), (np.int64(1), np.int64(2), np.int64(-1)),
                                          (2, True, True), (1, 2, 1.0)])
    def test_integral_indices_of_other_types(self, k, a, step):
        # bool and numpy integer indices give the int index's result, with int entries
        j = MultiIndex.from_rows([[1, 2], [3, 4]])
        rows = [list(row) for row in j.j]
        rows[int(k) - 1][int(a) - 1] += int(step)
        for _ in range(2):  # cold, then from the memo
            got = j.bump(k, a, step)
            assert got == MultiIndex(tuple(map(tuple, rows))) and hash(got) == hash((got.j,))
            assert all(type(x) is int for row in got.j for x in row)

    def test_binom(self):
        k = MultiIndex.from_rows([[2, 1]])
        p = MultiIndex.from_rows([[1, 1]])
        assert multi_binom(k, p) == 2

    def test_binom_invalid(self):
        with pytest.raises(InvalidBinomError):
            multi_binom(MultiIndex.from_rows([[1]]), MultiIndex.from_rows([[2]]))

    def test_negative_entries_rejected(self):
        with pytest.raises(NegativeEntryError):
            MultiIndex.from_rows([[-1]])

    def test_bump_roundtrip_random(self):
        rng = random.Random(3)
        for _ in range(200):
            h, g = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
            j = MultiIndex(tuple(tuple(rng.randint(0, 3) for _ in range(g)) for _ in range(h)))
            k, a = rng.randint(1, h), rng.randint(1, g)
            assert j.bump(k, a, +1).bump(k, a, -1) == j
            assert j.bump(k, a, +1).size == j.size + 1

    def test_binom_factorial_identity(self):
        # binom(K,P) * P! * (K-P)! == K!
        rng = random.Random(5)
        for _ in range(200):
            h, g = rng.choice([(1, 1), (2, 1), (2, 2)])
            krows = tuple(tuple(rng.randint(0, 4) for _ in range(g)) for _ in range(h))
            prows = tuple(tuple(rng.randint(0, kx) for kx in row) for row in krows)
            k = MultiIndex(krows)
            p = MultiIndex(prows)
            km = MultiIndex(tuple(tuple(kx - px for kx, px in zip(kr, pr)) for kr, pr in zip(krows, prows)))
            assert multi_binom(k, p) * p.factorial() * km.factorial() == k.factorial()

    def test_enumeration(self):
        idx = multi_indices_up_to(1, 2, 2)
        assert [m.j for m in idx] == [
            ((0, 0),),
            ((0, 1),),
            ((1, 0),),
            ((0, 2),),
            ((1, 1),),
            ((2, 0),),
        ]


class TestPeriodMatrix:
    def test_valid(self):
        om = PeriodMatrix([[1j]])
        assert om.g == 1 and om.im_min_eig == 1.0

    def test_two_by_two(self):
        om = PeriodMatrix([[1j, 0.3j], [0.3j, 2j]])
        assert om.g == 2
        assert om.im_min_eig > 0.9

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            PeriodMatrix([[1j, 0.2j], [0.3j, 2j]])

    @pytest.mark.parametrize("rows, entry", [
        ([[complex(math.inf, 1.0)]], r"\(0,0\)"),
        ([[complex(1.0, math.inf)]], r"\(0,0\)"),
        ([[complex(math.nan, 1.0)]], r"\(0,0\)"),  # was reported as not symmetric
        ([[1j, 0.3j], [complex(0.0, math.nan), 2j]], r"\(1,0\)"),  # before the symmetry check
        ([[1j, 0.3j], [0.3j, complex(-math.inf, 2.0)]], r"\(1,1\)"),
    ])
    def test_nonfinite_entry_is_refused_by_name(self, rows, entry):
        # such an Omega was admitted, and the series setup failed on a NaN with a numpy warning
        with pytest.raises(DimensionMismatchError, match=rf"entry {entry} = .* is not finite"):
            PeriodMatrix(rows)

    def test_equal_and_hash_by_value(self):
        rows = [[0.1 + 1j, 0.3j], [0.3j, 2j]]
        a, b = PeriodMatrix(rows), PeriodMatrix(rows)
        assert a == b and hash(a) == hash(b)
        assert a != PeriodMatrix([[0.1 + 1j, 0.3j], [0.3j, 2.5j]])
        assert a != PeriodMatrix([[1j]]) and a != rows

    def test_near_boundary(self):
        # one floor on the least eigenvalue of Im Omega, checked when Omega is built
        with pytest.raises(NotPositiveDefiniteError, match="boundary"):
            PeriodMatrix([[1e-4j]])
        # diagonal entries 0.5, eigenvalues 1 and 5e-4
        with pytest.raises(NotPositiveDefiniteError, match="boundary"):
            PeriodMatrix([[0.5j, 0.4995j], [0.4995j, 0.5j]])

    def test_not_positive(self):
        with pytest.raises(NotPositiveDefiniteError):
            PeriodMatrix([[-1j]])
        with pytest.raises(NotPositiveDefiniteError):
            PeriodMatrix([[1.0]])
