"""Series evaluation, certified tails, quasi-periodicity and shift-law residuals."""

import itertools
import json
import math
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetadecomp import evaluation
from thetadecomp.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    RadiusUnachievableError,
    ThetaError,
    TruncationInsufficientError,
)
from thetadecomp.evaluation import (
    TruncationConfig,
    aux_theta_series,
    choose_radius,
    quasi_period_residual,
    shift_operator_check,
    tail_bound,
    theta_series,
    transformation_factor,
    truncation_config,
)
from thetadecomp.numerics import (
    MultiIndex,
    PeriodMatrix,
    enumerate_characteristics,
    multi_indices_up_to,
    validate_level,
)
from thetadecomp.verify import SHIFT_TOL, THEOREM3_TOL

LEVEL2 = validate_level([[2]])
LEVEL4 = validate_level([[4]])
HEX = validate_level([[2, 1], [1, 2]])
OMEGA_I = PeriodMatrix([[1j]])
CFG = TruncationConfig(radius=8, tail_tol=1e-10)

# aux_theta_block values and tail bounds as float.hex, frozen before the kernel's per-call
# work was trimmed: the twelve (Omega, level, |J|) specs of series-g2 at one seeded point,
# hex and [[2]] g=1 stacks of 32 points over all characteristics with |J| <= 2, and hex g=2
# at an Omega with Re Omega != 0
KERNEL_VALUES = json.loads((Path(__file__).parent / "data" / "kernel_values_seed0.json").read_text())

# frozen from the direct-summation oracle over |n| <= 10 (scratch derivation,
# re-checked by oracle_theta below)
THETA_M2_A0 = 1.0037348854877393
THETA_M2_AHALF = 0.4157606025960271


def oracle_theta(m, a, omega, w, nmax=10):
    """Independent direct summation over |n| <= nmax (h = g = 1 only)."""
    s = 0j
    for n in range(-nmax, nmax + 1):
        b = n + a
        s += np.exp(np.pi * 1j * m * (b * b * omega + 2 * w * b))
    return s


def chars(level, g=1):
    return enumerate_characteristics(level, g)


class TestThetaSeries:
    def test_frozen_value_a0(self):
        got = theta_series(LEVEL2, chars(LEVEL2)[0], OMEGA_I, [[0.0]], CFG)
        assert abs(got.value - THETA_M2_A0) < 1e-12 + got.tail_bound
        assert abs(complex(oracle_theta(2, 0.0, 1j, 0.0)) - THETA_M2_A0) < 1e-14

    def test_frozen_value_ahalf(self):
        got = theta_series(LEVEL2, chars(LEVEL2)[1], OMEGA_I, [[0.0]], CFG)
        assert abs(got.value - THETA_M2_AHALF) < 1e-12 + got.tail_bound
        assert abs(complex(oracle_theta(2, 0.5, 1j, 0.0)) - THETA_M2_AHALF) < 1e-14

    def test_integer_shift_invariance(self):
        w = np.array([[0.1 + 0.2j]])
        base = theta_series(LEVEL2, chars(LEVEL2)[0], OMEGA_I, w, CFG)
        shifted = theta_series(LEVEL2, chars(LEVEL2)[0], OMEGA_I, w + 1.0, CFG)
        assert abs(base.value - shifted.value) <= base.tail_bound + shifted.tail_bound + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            theta_series(LEVEL2, chars(LEVEL2)[0], OMEGA_I, [[0.0, 0.0]], CFG)

    def test_wrong_level_char(self):
        with pytest.raises(DimensionMismatchError):
            theta_series(LEVEL2, chars(LEVEL4)[0], OMEGA_I, [[0.0]], CFG)

    def test_truncation_insufficient(self):
        tight = TruncationConfig(radius=1, tail_tol=1e-14)
        with pytest.raises(TruncationInsufficientError):
            theta_series(LEVEL2, chars(LEVEL2)[0], OMEGA_I, [[0.5j]], tight)

    @pytest.mark.parametrize("radius", [3.5, 3.0, math.inf, math.nan, True, 0, -2, "3", None])
    def test_radius_is_an_integer_at_least_one(self, radius):
        # radius 3.5 summed the half-integer grid arange(-3.5, 4.5): at W = 0.1 + 0.05i it gave
        # 0.3531 - 0.0780i, not 1.0014 - 0.0024i, under a "certified" bound of 7.6e-34
        with pytest.raises(ValueError, match="radius must be an integer >= 1"):
            TruncationConfig(radius=radius, tail_tol=1e-10)

    @pytest.mark.parametrize("tol", [True, "1e-8", None, 1j, 0, -1e-10, math.nan])
    def test_tail_tol_is_a_positive_real(self, tol):
        # True was read as a tolerance of 1, and "1e-8" ended in a bare TypeError from '>'
        with pytest.raises(ValueError, match="tail_tol must be positive"):
            TruncationConfig(radius=8, tail_tol=tol)

    def test_real_tail_tols_are_kept_as_floats(self):
        for tol, want in ((np.float64(1e-10), 1e-10), (np.float32(0.5), 0.5), (np.int64(2), 2.0),
                          (math.inf, math.inf)):
            got = TruncationConfig(radius=8, tail_tol=tol).tail_tol
            assert type(got) is float and got == want

    def test_numpy_integer_radius_is_kept_as_an_int(self):
        cfg = TruncationConfig(radius=np.int64(8), tail_tol=1e-10)
        assert type(cfg.radius) is int and cfg == CFG
        assert theta_series(LEVEL2, chars(LEVEL2)[0], OMEGA_I, [[0.1 + 0.05j]], cfg) == \
            theta_series(LEVEL2, chars(LEVEL2)[0], OMEGA_I, [[0.1 + 0.05j]], CFG)

    @pytest.mark.parametrize("w", [complex("nan"), complex(0.0, math.inf)])
    def test_nonfinite_w_is_a_value_error(self, w):
        # W = NaN gave a NaN value next to a "certified" bound (4.6e-175 here), W = i inf a NaN
        # value and a NaN bound
        with pytest.raises(ValueError, match="finite"):
            theta_series(LEVEL2, chars(LEVEL2)[0], OMEGA_I, [[w]], CFG)

    def test_nan_bound_is_truncation_insufficient(self, monkeypatch):
        # the tolerance check reads "not bound <= tol", so a NaN bound never passes
        monkeypatch.setattr(evaluation, "tail_bound", lambda *args: math.nan)
        with pytest.raises(TruncationInsufficientError, match="nan"):
            theta_series(LEVEL2, chars(LEVEL2)[0], OMEGA_I, [[0.1j]], CFG)

    def test_near_boundary_omega_rejected(self):
        with pytest.raises(NotPositiveDefiniteError, match="boundary"):
            shallow = PeriodMatrix([[1e-4j]])
            theta_series(LEVEL2, chars(LEVEL2)[0], shallow, [[0.0]], CFG)


class TestAuxThetaSeries:
    def test_j0_matches_theta_for_any_z(self):
        j0 = MultiIndex.zeros(1, 1)
        w = [[0.07 - 0.11j]]
        t = theta_series(LEVEL2, chars(LEVEL2)[0], OMEGA_I, w, CFG)
        for z in ([[0.0]], [[0.3 + 0.2j]], [[-1.7j]]):
            v = aux_theta_series(LEVEL2, j0, chars(LEVEL2)[0], OMEGA_I, z, w, CFG)
            assert v.value == t.value

    @pytest.mark.parametrize("z", [complex(math.inf, 0.0), complex("nan")])
    def test_nonfinite_z_is_a_value_error(self, z):
        # at |J| = 1 either Z gave a NaN value and a NaN bound, with no error
        j1 = MultiIndex.from_rows([[1]])
        with pytest.raises(ValueError, match="finite"):
            aux_theta_series(LEVEL2, j1, chars(LEVEL2)[0], OMEGA_I, [[z]], [[0.1j]], CFG)

    def test_odd_symmetry_j1(self):
        j1 = MultiIndex.from_rows([[1]])
        v = aux_theta_series(LEVEL2, j1, chars(LEVEL2)[0], OMEGA_I, [[0.0]], [[0.0]], CFG)
        assert abs(v.value) < v.tail_bound + 1e-12

    def test_j1_matches_w_derivative(self):
        j1 = MultiIndex.from_rows([[1]])
        w = 0.1 + 0.2j
        v = aux_theta_series(LEVEL2, j1, chars(LEVEL2)[0], OMEGA_I, [[0.0]], [[w]], CFG)
        h = 1e-5
        fd = (oracle_theta(2, 0.0, 1j, w + h) - oracle_theta(2, 0.0, 1j, w - h)) / (2 * h)
        assert abs(v.value - fd) / abs(fd) < 1e-6
        assert v.value != 0

    def test_polynomial_degree_in_z(self):
        # total Z-degree is |J|: forward differences of order |J|+1 vanish
        rng = np.random.default_rng(11)
        for rows in ([[0]], [[1]], [[2]], [[3]]):
            j = MultiIndex.from_rows(rows)
            z0 = rng.uniform(-0.3, 0.3, (1, 1)) + 1j * rng.uniform(-0.3, 0.3, (1, 1))
            dz = rng.uniform(-0.5, 0.5, (1, 1)) + 1j * rng.uniform(-0.5, 0.5, (1, 1))
            w = rng.uniform(-0.3, 0.3, (1, 1)) + 1j * rng.uniform(-0.3, 0.3, (1, 1))
            n = j.size + 1
            vals = [
                aux_theta_series(LEVEL2, j, chars(LEVEL2)[0], OMEGA_I, z0 + t * dz, w, CFG).value
                for t in range(n + 1)
            ]
            diff = sum((-1) ** (n - k) * math.comb(n, k) * vals[k] for k in range(n + 1))
            assert abs(diff) < 1e-6


class TestQuasiPeriodicity:
    def test_zero_shift_is_exact(self):
        j = MultiIndex.zeros(1, 1)
        r = quasi_period_residual(
            LEVEL2, j, chars(LEVEL2)[0], OMEGA_I, [[0.0]], [[0.1 + 0.2j]],
            [[0]], [[0]], CFG,
        )
        assert r == 0.0

    def test_unit_shift(self):
        j = MultiIndex.zeros(1, 1)
        r = quasi_period_residual(
            LEVEL2, j, chars(LEVEL2)[0], OMEGA_I, [[0.0]], [[0.1 + 0.2j]],
            [[1]], [[0]], TruncationConfig(radius=8, tail_tol=1e-9),
        )
        assert r < 1e-9

    def test_j2_mixed_shift(self):
        j = MultiIndex.from_rows([[2]])
        r = quasi_period_residual(
            LEVEL2, j, chars(LEVEL2)[0], OMEGA_I, [[0.3]], [[0.1 + 0.2j]],
            [[-1]], [[1]], TruncationConfig(radius=8, tail_tol=1e-8),
        )
        assert r < 1e-8

    def test_g2_omega(self):
        omega = PeriodMatrix([[1j, 0.3j], [0.3j, 2j]])
        level = LEVEL2
        ch = enumerate_characteristics(level, 2)[1]
        j = MultiIndex.from_rows([[1, 0]])
        radius = choose_radius(level, omega, 2.8, 1e-12, j.size)
        cfg = TruncationConfig(radius=radius, tail_tol=1e-11)
        rng = np.random.default_rng(5)
        z = rng.uniform(-0.4, 0.4, (1, 2)) + 1j * rng.uniform(-0.4, 0.4, (1, 2))
        w = rng.uniform(-0.4, 0.4, (1, 2)) + 1j * rng.uniform(-0.4, 0.4, (1, 2))
        r = quasi_period_residual(level, j, ch, omega, z, w, [[1, -1]], [[0, 1]], cfg)
        assert r < 1e-8

    @pytest.mark.parametrize("xi,eta", [
        ([[math.inf]], [[0]]),  # no integer: it passed, then failed as "not finite" after a warning
        ([[0]], [[2 ** 60 + 1]]),  # an integer no double holds: it was read as 2^60
        ([[math.nan]], [[0]]),
        ([[0.5]], [[0]]),
        ([[0, 0]], [[0]]),
    ])
    def test_shift_must_be_an_exact_integer_matrix(self, xi, eta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatchError):
                quasi_period_residual(LEVEL2, MultiIndex.zeros(1, 1), chars(LEVEL2)[0], OMEGA_I,
                                      [[0.0]], [[0.0]], xi, eta, CFG)

    def test_factor_at_zero_shift(self):
        assert transformation_factor(LEVEL2, OMEGA_I, np.zeros((1, 1)), np.zeros((1, 1))) == 1.0

    @pytest.mark.parametrize("count", [None, 3])
    def test_f_is_called_once(self, count):
        # on the shifted points, then the base points, as one stack; the residuals are
        # those of one call per side
        omega = PeriodMatrix([[1j, 0.3j], [0.3j, 2j]])
        ch = enumerate_characteristics(LEVEL2, 2)[1]
        j = MultiIndex.from_rows([[1, 0]])
        cfg = truncation_config(LEVEL2, omega, 2.8, 1)
        rng = np.random.default_rng(3)
        shape = (1, 2) if count is None else (count, 1, 2)
        z, w = (rng.uniform(-0.4, 0.4, (2, *shape)) + 1j * rng.uniform(-0.4, 0.4, (2, *shape)))
        xi, eta = rng.integers(-1, 2, (2, *shape)).astype(float)
        stacks = []

        def f(zz, ww):
            stacks.append(ww.shape)
            return evaluation.aux_theta_block(LEVEL2, j, [ch], omega, zz, ww, cfg)[0][:, 0]

        got = evaluation.shift_law_residual(f, LEVEL2, omega, z, w, xi, eta)
        assert stacks == [(2 * (count or 1), 1, 2)]
        two = [evaluation.aux_theta_block(LEVEL2, j, [ch], omega, zz, ww, cfg)[0][..., 0]
               for zz, ww in ((z + xi, w + xi @ omega.omega + eta), (z, w))]
        factor = transformation_factor(LEVEL2, omega, w, xi)
        want = abs(two[0] - factor * two[1]) / np.maximum(1.0, abs(factor))
        assert np.shape(got) == np.shape(want) and np.allclose(got, want, rtol=0, atol=1e-15)
        if count is None:
            assert got == quasi_period_residual(LEVEL2, j, ch, omega, z, w, xi, eta, cfg) < 1e-8


class TestShiftOperator:
    def test_j0(self):
        j = MultiIndex.zeros(1, 1)
        r = shift_operator_check(
            LEVEL2, j, chars(LEVEL2)[0], OMEGA_I, [[0.0]], [[0.1]], 1, 1, CFG,
        )
        assert r < 1e-6

    def test_j1_complex_z(self):
        j = MultiIndex.from_rows([[1]])
        r = shift_operator_check(
            LEVEL2, j, chars(LEVEL2)[0], OMEGA_I, [[0.2 + 0.1j]], [[0.1]], 1, 1, CFG,
        )
        assert r < 1e-6

    def test_z_zero_reduces_to_derivative(self):
        # at Z=0 the multiplication term vanishes: series(J=1) equals dtheta/dW
        j1 = MultiIndex.from_rows([[1]])
        w = 0.1 + 0.0j
        v = aux_theta_series(LEVEL2, j1, chars(LEVEL2)[0], OMEGA_I, [[0.0]], [[w]], CFG)
        h = 1e-5
        fd = (oracle_theta(2, 0.0, 1j, w + h) - oracle_theta(2, 0.0, 1j, w - h)) / (2 * h)
        assert abs(v.value - fd) < 1e-6

    @pytest.mark.parametrize("rows,z", [([[0]], [[0.0]]), ([[1]], [[0.2 + 0.1j]]), ([[2]], [[-0.3]])])
    def test_base_value_is_read_from_the_stencil(self, monkeypatch, rows, z):
        # two kernel calls: J + e_ka at W, and one stack of W and its four stencil points;
        # the residual equals that of reading W as a stack of its own, bit for bit
        j, ch, w = MultiIndex.from_rows(rows), chars(LEVEL2)[1], np.array([[0.1 + 0.2j]])
        calls = []
        block = evaluation.aux_theta_block

        def counted(*args):
            calls.append(args)
            return block(*args)

        monkeypatch.setattr(evaluation, "aux_theta_block", counted)
        got = shift_operator_check(LEVEL2, j, ch, OMEGA_I, z, w, 1, 1, CFG)
        assert len(calls) == 2
        monkeypatch.undo()
        z = np.asarray(z, dtype=complex)
        lhs = aux_theta_series(LEVEL2, j.bump(1, 1, +1), ch, OMEGA_I, z, w, CFG).value
        base = aux_theta_series(LEVEL2, j, ch, OMEGA_I, z, w, CFG).value
        ws = w + np.array([1e-3, -1e-3, 5e-4, -5e-4])[:, None, None]
        f1, f2, f3, f4 = evaluation.aux_theta_block(LEVEL2, j, [ch], OMEGA_I, np.broadcast_to(z, ws.shape),
                                                    ws, CFG)[0][:, 0]
        fd = (4.0 * ((f3 - f4) / 1e-3) - (f1 - f2) / 2e-3) / 3.0
        rhs = 2j * np.pi * (2 * z[0, 0]) * base + fd
        assert got == abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))

    def test_index_range(self):
        from thetadecomp.errors import IndexOutOfRangeError

        with pytest.raises(IndexOutOfRangeError):
            shift_operator_check(
                LEVEL2, MultiIndex.zeros(1, 1), chars(LEVEL2)[0], OMEGA_I,
                [[0.0]], [[0.0]], 2, 1, CFG,
            )

    @pytest.mark.parametrize("k,a", [(1.5, 1), (True, 1), (1, True), ("1", 1), (1, 1.0)])
    def test_index_is_an_integer(self, k, a):
        # k = 1.5 on a 2x2 level ended in a bare TypeError from operator.index, and True was 1
        from thetadecomp.errors import IndexOutOfRangeError

        with pytest.raises(IndexOutOfRangeError, match="must be an integer"):
            shift_operator_check(HEX, MultiIndex.zeros(2, 1), chars(HEX)[0], OMEGA_I,
                                 [[0.0], [0.0]], [[0.0], [0.0]], k, a, CFG)

    def test_numpy_integer_index_is_an_index(self):
        args = (HEX, MultiIndex.zeros(2, 1), chars(HEX)[1], OMEGA_I, [[0.1], [0.0]], [[0.05j], [0.1]])
        assert shift_operator_check(*args, np.int64(2), np.int32(1), CFG) == shift_operator_check(*args, 2, 1, CFG)


class TestChooseRadius:
    def test_reference_case(self):
        r = choose_radius(LEVEL2, OMEGA_I, 0.5, 1e-12, 0)
        assert r <= 6

    @pytest.mark.parametrize("box", [-5.0, -1e-300, math.inf, math.nan])
    def test_box_is_finite_and_nonnegative(self, box):
        # a box of -5 at degree 1 gave radius 3
        with pytest.raises(ValueError, match="w_box"):
            choose_radius(LEVEL2, OMEGA_I, box, 1e-12, 1)
        with pytest.raises(ValueError, match="w_box"):
            truncation_config(LEVEL2, OMEGA_I, box, 1)

    @pytest.mark.parametrize("level,degree", [(LEVEL2, -3), (LEVEL2, -1), (HEX, -4), (LEVEL2, 1.5),
                                              (LEVEL2, True), (LEVEL2, False), (LEVEL2, "1")])
    def test_degree_is_an_integer_at_least_zero(self, level, degree):
        # at box 0.4, degrees -3 and -1 gave radii 2 and 3 at [[2]], against 3 at degree 0, and
        # -4 gave 3 at hex g = 1, against 4: short of certifying even degree 0
        with pytest.raises(ValueError, match="degree"):
            choose_radius(level, OMEGA_I, 0.4, 1e-12, degree)
        with pytest.raises(ValueError, match="degree"):
            truncation_config(level, OMEGA_I, 0.4, degree)

    @pytest.mark.parametrize("tol", [True, "1e-12", 0.0, math.nan])
    def test_tail_tol_is_checked_outside_the_memo(self, tol):
        # True equals the cached key 1, so the search's memo returned the radius for tail_tol 1
        choose_radius(LEVEL2, OMEGA_I, 0.4, 1, 0)
        with pytest.raises(ValueError, match="tail_tol must be positive"):
            choose_radius(LEVEL2, OMEGA_I, 0.4, tol, 0)
        with pytest.raises(ValueError, match="tail_tol must be positive"):
            evaluation._point_config(LEVEL2, OMEGA_I, 0, [[0.1]], [[0.1j]], tol)

    def test_numpy_integer_degree_is_a_degree(self):
        assert choose_radius(HEX, OMEGA_I, 0.4, 1e-12, np.int64(2)) == choose_radius(HEX, OMEGA_I, 0.4, 1e-12, 2)

    def test_monotone_in_tolerance(self):
        r_tight = choose_radius(LEVEL2, OMEGA_I, 0.5, 1e-12, 0)
        r_loose = choose_radius(LEVEL2, OMEGA_I, 0.5, 1e-3, 0)
        assert r_loose <= r_tight

    def test_monotone_in_degree(self):
        r0 = choose_radius(LEVEL2, OMEGA_I, 0.5, 1e-12, 0)
        r4 = choose_radius(LEVEL2, OMEGA_I, 0.5, 1e-12, 4)
        assert r4 >= r0

    def test_bound_dominates_true_tail(self):
        # oracle: the centred tail |n| > R of [[2]] at Omega = i, summed numerically; the term
        # of x = n + A + xi has modulus exp(2 pi y^2 - 2 pi (x + y)^2) at Im W = y, whose peak
        # X* = -y the window is centred on by xi = rint(-y - A)
        for radius in (2, 3, 4, 6):
            for y in np.linspace(-0.5, 0.5, 11):
                for a in (0.0, 0.5):
                    x0 = a + np.rint(-y - a)
                    true_tail = sum(math.exp(2.0 * math.pi * (y * y - (x0 + n + y) ** 2))
                                    for n in itertools.chain(range(-radius - 60, -radius),
                                                             range(radius + 1, radius + 60)))
                    certified = tail_bound(LEVEL2, OMEGA_I, 0, 0.0, 2.0 * math.pi * y * y, radius)
                    assert certified >= true_tail

    def test_infinite_log_scale_is_an_infinite_bound(self):
        for level, degree in ((LEVEL2, 0), (HEX, 2)):
            assert tail_bound(level, OMEGA_I, degree, 0.4, math.inf, 3) == math.inf
            assert tail_bound(level, OMEGA_I, degree, 0.4, math.nan, 3) == math.inf
        # an infinite |Z| + |X*| weights every term of degree >= 1 infinitely
        assert tail_bound(HEX, OMEGA_I, 2, math.inf, 0.0, 3) == math.inf
        assert tail_bound(HEX, OMEGA_I, 0, math.inf, 0.0, 3) == tail_bound(HEX, OMEGA_I, 0, 0.0, 0.0, 3)
        # an Im W whose square is past the float range: the log scale is +inf, quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evaluation._tail_point(LEVEL2, OMEGA_I, 0, np.zeros((1, 1)),
                                          np.array([[1e160j]]))[1:] == (0.0, math.inf)

    def test_underflowing_envelope_is_taken_in_logs(self):
        # (2 pi rho (|Z| + s + 1))^150 times a Gaussian below e^-700: the shell-12 term at
        # radius 11 is e^4.8, about 124 (log 2 + 150 log(2 pi 2 13) - 2 pi 11^2), where the
        # envelope once returned 0.0 and the bound 5e-324
        term = math.exp(math.log(2) + 150 * math.log(2 * math.pi * 2 * 13) - 2 * math.pi * 11 ** 2)
        assert 124.0 < term < 125.0
        assert term <= tail_bound(LEVEL2, OMEGA_I, 150, 0.0, 0.0, 11) < term * (1.0 + 1e-9)
        # and the radius that certifies degree 150 is the one past the envelope's peak
        assert tail_bound(LEVEL2, OMEGA_I, 150, 0.0, 0.0, 10) > 1e50

    def test_overflowing_envelope_is_taken_in_logs(self):
        # (2 pi rho (|Z| + s + 1))^|J| overflows a float at |Z| = 1e200 or |J| = 300, where the
        # direct product raised OverflowError: the envelope is taken in logs, +inf above the
        # float range, and otherwise |Z|^2 times the direct one at |Z| = 1e100, rounded up
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tail_bound(LEVEL2, OMEGA_I, 2, 1e200, 0.0, 5) == math.inf
            assert tail_bound(LEVEL2, OMEGA_I, 300, 0.0, 0.0, 3) == math.inf
            for radius in range(6, 11):
                ratio = (tail_bound(LEVEL2, OMEGA_I, 2, 1e200, 0.0, radius)
                         / tail_bound(LEVEL2, OMEGA_I, 2, 1e100, 0.0, radius))
                assert 1e200 <= ratio < 1e200 * (1.0 + 1e-11)

    def test_truncation_config_is_the_memoised_choice(self):
        cfg = truncation_config(HEX, OMEGA_I, 0.4, 1)
        assert cfg == TruncationConfig(radius=choose_radius(HEX, OMEGA_I, 0.4, 1e-12, 1),
                                       tail_tol=1e-12)
        # the radius is read from the one radius memo, with no search
        hits = evaluation._least_radius.cache_info().hits
        assert truncation_config(HEX, OMEGA_I, 0.4, 1) == cfg
        assert evaluation._least_radius.cache_info().hits == hits + 1
        assert choose_radius(HEX, OMEGA_I, 0.4, 1e-6, 1) <= cfg.radius

    def test_memo_hits_across_parses_of_omega(self):
        rows = [[1j, 0.3j], [0.3j, 2j]]
        first = truncation_config(LEVEL2, PeriodMatrix(rows), 0.4, 1)
        hits = evaluation._least_radius.cache_info().hits
        assert truncation_config(LEVEL2, PeriodMatrix(rows), 0.4, 1) == first
        assert evaluation._least_radius.cache_info().hits == hits + 1
        form = evaluation._form(LEVEL2, PeriodMatrix(rows))
        assert evaluation._form(LEVEL2, PeriodMatrix(rows)) is form

    def test_unachievable(self):
        # an enormous W box: its log scale, up to pi rho hg box^2 / lambda_min(Im Omega) =
        # 40,212 at box 80, needs a radius near 80, over the cap
        with pytest.raises(RadiusUnachievableError):
            choose_radius(LEVEL2, OMEGA_I, 80.0, 1e-12, 0)

    def test_box_bounds_the_real_and_imaginary_parts(self):
        # a point of the sample box: |Z_ka| = 0.4 sqrt(2), over the box itself
        level = validate_level([[4, -2], [-2, 4]])
        omega = PeriodMatrix([[0.3534500014038884 + 1.276229879903966j]])
        cfg = truncation_config(level, omega, 0.4, 2)
        z = np.full((2, 1), 0.4 + 0.4j)
        w = np.array([[0.4j], [-0.4j]])
        j = MultiIndex.from_rows([[0], [2]])
        _, bound = evaluation.aux_theta_block(level, j, chars(level), omega, z, w, cfg)
        assert bound <= cfg.tail_tol

    # series-g2's radii at box 0.4, |J| = 0, 1, 2: a change here changes the benchmark's work
    @pytest.mark.parametrize("rows,scale,radii", [
        ([[2, 1], [1, 2]], 1.0, (4, 5, 5)), ([[4, 2], [2, 4]], 1.0, (3, 4, 4)),
        ([[2, 1], [1, 2]], 0.7, (5, 6, 6)), ([[4, 2], [2, 4]], 0.7, (4, 4, 5)),
    ])
    def test_series_benchmark_radii(self, rows, scale, radii):
        omega = PeriodMatrix(1j * scale * np.array([[1.0, 0.3], [0.3, 2.0]]))
        level = validate_level(rows)
        assert tuple(choose_radius(level, omega, 0.4, 1e-12, d) for d in range(3)) == radii

    # decompose-ref's radii at the sample box (|J| up to the degree its ops reach) and
    # at the shift box, the most verify_theorem3's shift check may take
    @pytest.mark.parametrize("rows,g,sample,shift", [
        ([[2]], 1, (3, 3, 3), 4), ([[4]], 1, (2, 2, 2), 3),
        ([[2, 1], [1, 2]], 1, (4, 4), 7), ([[4, 2], [2, 4]], 1, (3, 3), 7),
        ([[2]], 2, (3,), 7), ([[4]], 2, (2,), 6),
    ])
    def test_decompose_benchmark_radii(self, rows, g, sample, shift):
        from thetadecomp.decompose import SAMPLE_BOX
        from thetadecomp.verify import _shift_box

        omega = OMEGA_I if g == 1 else PeriodMatrix(1j * np.array([[1.0, 0.3], [0.3, 2.0]]))
        level = validate_level(rows)
        assert tuple(choose_radius(level, omega, SAMPLE_BOX, 1e-12, d) for d in range(len(sample))) == sample
        assert {choose_radius(level, omega, _shift_box(omega), 1e-12, d) for d in range(len(sample))} == {shift}


class TestWDerivFD:
    """The ladder check's finite-difference d/dW against the kernel: at Z = 0 the auxiliary
    series at J + e_ka is the W-derivative of the one at J."""

    def test_against_series_derivative(self):
        # (d/dW) theta equals the J=1 auxiliary series at Z=0
        w = np.array([[0.1 + 0.2j]])
        for ch in chars(LEVEL2):
            assert shift_operator_check(LEVEL2, MultiIndex.zeros(1, 1), ch, OMEGA_I, np.zeros((1, 1)),
                                        w, 1, 1, CFG) < SHIFT_TOL

    @pytest.mark.parametrize("rows,tol", [([[1], [0]], SHIFT_TOL), ([[0], [1]], SHIFT_TOL),
                                          ([[1], [1]], THEOREM3_TOL), ([[2], [0]], THEOREM3_TOL),
                                          ([[0], [2]], THEOREM3_TOL)])
    def test_hex_stack_against_the_exact_derivative(self, rows, tol):
        # the exact W-derivative of order J of the hex g=1 series is the auxiliary series
        # at Z = 0: checked by the ladder identity from every J - e_k below J, for every
        # characteristic at five W, held to the gates the order-J derivative served
        # (the ladder check at |J| = 1, the Theorem 3 gate at |J| = 2).  Measured: at
        # most 8.5e-11
        omega = PeriodMatrix([[0.25 + 1j]])
        cfg = truncation_config(HEX, omega, 0.42, 2)
        j = MultiIndex.from_rows(rows)
        rng = np.random.default_rng(7)
        w = rng.uniform(-0.4, 0.4, (5, 2, 1)) + 1j * rng.uniform(-0.4, 0.4, (5, 2, 1))
        z = np.zeros((2, 1))
        for char in chars(HEX):
            for k in (k for k in (1, 2) if rows[k - 1][0]):
                for point in w:
                    assert shift_operator_check(HEX, j.bump(k, 1, -1), char, omega, z, point, k, 1, cfg) < tol


def _admissible(rows):
    try:
        return validate_level(rows)
    except ThetaError:
        return None


# every admissible level with h <= 2 and diagonal entries up to 6 or 4
LEVELS = [
    level
    for level in map(_admissible, [[[2 * a]] for a in (1, 2, 3)] + [
        [[2 * a, b], [b, 2 * c]] for a in (1, 2) for c in (1, 2) for b in (-3, -2, -1, 1, 2, 3)
    ])
    if level is not None
]
PROPERTY = settings(max_examples=80)
unit = st.floats(-0.5, 0.5)


def product_cube(h, g, radius):
    """The lattice cube in itertools.product order, as an array of h x g matrices."""
    return np.array(
        list(itertools.product(range(-radius, radius + 1), repeat=h * g)), dtype=float
    ).reshape(-1, h, g)


def peak_shift(char, omega, w):
    """xi = rint(X* - A), X* = -Im W (Im Omega)^-1 the Gaussian peak: the re-indexing N -> N + xi
    that centres the window of the series at W on its peak."""
    return np.rint(-w.imag @ np.linalg.inv(omega.omega.imag) - char.as_array())


def reference_terms(level, j, char, omega, z, w, radius, centred=True):
    """The summed terms, one lattice point at a time, by the direct einsum expression, over
    the cube N + xi, |N| <= radius, centred on the Gaussian peak (``peak_shift``), or over
    the cube |N| <= radius about 0 when not ``centred``.

    Also returns the size their roundoff scales with: |term|, but with each
    monomial (M(Z+N+A))_ka taken as sum_l |M_kl| |Z+N+A|_la.  The two differ
    where a monomial cancels, and a monomial that is 0 in exact arithmetic
    comes out of either evaluation as a few units of roundoff.
    """
    m = level.as_array()
    b = product_cube(level.h, omega.g, radius) + char.as_array()
    if centred:
        b += peak_shift(char, omega, w)
    quad = np.einsum("kl,pla,ab,pkb->p", m, b, omega.omega, b)
    lin = np.einsum("kl,la,pka->p", m, w, b)
    lam = np.einsum("kl,pla->pka", m.astype(complex), z[None, :, :] + b)
    weight = np.prod(lam ** j.as_array()[None, :, :], axis=(1, 2))
    gauss = np.exp(np.pi * 1j * (quad + 2.0 * lin))
    lam_abs = np.einsum("kl,pla->pka", np.abs(m), np.abs(z[None, :, :] + b))
    weight_abs = np.prod(lam_abs ** j.as_array()[None, :, :], axis=(1, 2))
    return (2j * np.pi) ** j.size * weight * gauss, (2 * np.pi) ** j.size * weight_abs * np.abs(gauss)


@st.composite
def kernel_cases(draw):
    level = draw(st.sampled_from(LEVELS))
    g = draw(st.sampled_from((1, 2)))
    h = level.h
    re = np.array(draw(st.lists(unit, min_size=g * g, max_size=g * g))).reshape(g, g)
    re[0, 0] = draw(st.sampled_from((-1, 1))) * draw(st.floats(0.05, 0.5))
    im = np.diag(draw(st.lists(st.floats(0.8, 2.0), min_size=g, max_size=g)))
    if g == 2:
        im[0, 1] = draw(st.floats(-0.3, 0.3))
    omega = PeriodMatrix(np.triu(re + 1j * im) + np.triu(re + 1j * im, 1).T)
    char = draw(st.sampled_from(enumerate_characteristics(level, g)))
    j = draw(st.sampled_from(multi_indices_up_to(h, g, 2)))

    def point():
        parts = np.array(draw(st.lists(unit, min_size=2 * h * g, max_size=2 * h * g)))
        return (parts[: h * g] + 1j * parts[h * g:]).reshape(h, g)

    return level, j, char, omega, point(), point(), draw(st.integers(1, 4))


# stacks of S x C x P terms over BLOCK_TERMS, each with its radius and point count S
OVER_BUDGET_STACKS = [
    # 60 points x 3 characteristics x 121 kept points: the points are sliced
    ([[2, 1], [1, 2]], 1, [[0.25 + 1j]], 6, 60),
    # one point of 144 characteristics x 3,343 kept points is over the budget: the
    # characteristics are sliced (the radius is too small to certify; the slices are tested)
    ([[4, 2], [2, 4]], 2, [[0.3 + 1j, 0.25], [0.25, -0.2 + 1.5j]], 4, 2),
]


def over_budget_stack(rows, g, omega, radius, count):
    """One of OVER_BUDGET_STACKS as aux_theta_block arguments: |J| = 1, all characteristics,
    and a seeded stack of points in the sample box."""
    level, omega = validate_level(rows), PeriodMatrix(omega)
    cfg = TruncationConfig(radius=radius, tail_tol=1e6)
    rng = np.random.default_rng(3)
    z, w = (rng.uniform(-0.4, 0.4, (2, count, level.h, g))
            + 1j * rng.uniform(-0.4, 0.4, (2, count, level.h, g)))
    j = MultiIndex.zeros(level.h, g).bump(1, 1, +1)
    return level, j, enumerate_characteristics(level, g), omega, z, w, cfg


@st.composite
def integral_levels(draw):
    """Any admissible level with h <= 2 and diagonal entries up to 40."""
    a = draw(st.integers(1, 20))
    if draw(st.booleans()):
        return validate_level([[2 * a]])
    c = draw(st.integers(1, 20))
    b = draw(st.integers(1, math.isqrt(4 * a * c - 1))) * draw(st.sampled_from((-1, 1)))  # b^2 < 4ac
    return validate_level([[2 * a, b], [b, 2 * c]])


@st.composite
def period_matrices(draw):
    """A g <= 2 period matrix with Im Omega at least 0.1 I."""
    re = draw(st.floats(-0.5, 0.5))
    if draw(st.booleans()):
        return PeriodMatrix([[complex(re, draw(st.floats(0.3, 2.0)))]])
    off = complex(draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.2, 0.2)))
    return PeriodMatrix([[complex(re, draw(st.floats(0.3, 2.0))), off],
                         [off, complex(-re, draw(st.floats(0.3, 2.0)))]])


class TestTailBound:
    @settings(max_examples=300)
    @given(integral_levels(), period_matrices(), st.integers(1, 12),
           st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(0.0, 1e6)),
           st.one_of(st.just(0.0), st.floats(0.0, 50.0), st.floats(0.0, 2e3)))
    def test_bound_does_not_decrease_with_the_degree(self, level, omega, radius, z_sup, log_scale):
        # an integral level's row-sum norm rho is at least 2, so every envelope base
        # 2 pi rho (z_sup + s + 1) exceeds 1: a setup at the largest degree covers each lower one
        # (``_point_config`` for every |J| <= degree, ``decompose._mismatch`` for an element)
        bounds = [tail_bound(level, omega, degree, z_sup, log_scale, radius) for degree in range(7)]
        assert bounds == sorted(bounds)


class TestPointConfig:
    """The least radius of a stack known up front (``evaluation._point_config``)."""

    @PROPERTY
    @given(kernel_cases(), st.sampled_from((1e-4, 1e-8, evaluation.TAIL_TARGET, 1e-15)),
           st.floats(0.0, 8.0))
    def test_point_radius_equals_the_search_from_one(self, case, tol, scale):
        # the search starts at the radius at W = Z = 0, a lower bound since tail_bound does not
        # decrease in |Z| + |X*| or the log scale; it must find the radius the search from 1 finds
        level, j, _, omega, z, w, _ = case
        z, w = scale * z, scale * w

        def radius(setup):
            try:
                return setup()
            except RadiusUnachievableError:
                return None

        point = evaluation._tail_point(level, omega, j.size, z, w)[1:]
        expected = radius(lambda: evaluation._least_radius(level, omega, j.size, *point, tol))
        assert radius(lambda: evaluation._point_config(level, omega, j.size, z, w, tol).radius) == expected

    def test_point_setup_calls_tail_bound_from_the_zero_drift_radius(self, monkeypatch):
        # one stack at Im W up to 2: a search from 1 would make `radius` calls
        level = validate_level([[4, 2], [2, 4]])
        rng = np.random.default_rng(5)
        z = rng.uniform(-0.4, 0.4, (8, 2, 1)) + 1j * rng.uniform(-0.4, 0.4, (8, 2, 1))
        w = rng.uniform(-0.4, 0.4, (8, 2, 1)) + 2j * rng.uniform(0.0, 1.0, (8, 2, 1))
        evaluation._least_radius.cache_clear()  # the count does not depend on what ran before
        r0 = evaluation._least_radius(level, OMEGA_I, 1, 0.0, 0.0, evaluation.TAIL_TARGET)
        calls = []
        bound = evaluation.tail_bound
        monkeypatch.setattr(evaluation, "tail_bound", lambda *args: calls.append(args) or bound(*args))
        cfg = evaluation._point_config(level, OMEGA_I, 1, z, w, evaluation.TAIL_TARGET)
        assert r0 > 1 and len(calls) == cfg.radius - r0 + 1 < cfg.radius


class TestKernel:
    @pytest.mark.parametrize("h,g,radius", [(1, 1, 1), (1, 1, 3), (1, 2, 2), (2, 1, 2),
                                            (2, 2, 1), (2, 2, 2), (1, 3, 1)])
    def test_lattice_box_is_the_product_order(self, h, g, radius):
        # the memo keeps the cube points n with sqrt(q(n)) <= sqrt(lam) R + alpha, in
        # product order; only hex at radius 2 drops any here
        cube = product_cube(h, g, radius).reshape(-1, h * g)
        level = {1: LEVEL2, 2: HEX}[h]
        im_q = np.kron(level.as_array(), np.eye(g))
        cut = math.sqrt(np.linalg.eigvalsh(im_q)[0]) * radius + math.sqrt(np.abs(im_q).sum())
        keep = np.einsum("pi,ij,pj->p", cube, im_q, cube) <= cut * cut
        assert keep.all() == ((h, radius) != (2, 2))
        got = evaluation._quadratic_form(level, PeriodMatrix(1j * np.eye(g)), radius)[0]
        assert got.shape == cube[keep].shape and np.array_equal(got, cube[keep])
        assert not got.flags.writeable

    def test_real_form_skipped_for_imaginary_omega(self):
        assert evaluation._quadratic_form(HEX, OMEGA_I, 3)[-1] is None

    @PROPERTY
    @given(kernel_cases())
    def test_quadratic_form_matches_pointwise_terms(self, case):
        level, j, char, omega, z, w, radius = case
        terms, _ = reference_terms(level, j, char, omega, z, w, radius)
        peak = evaluation._tail_point(level, omega, j.size, z, w)[0]
        got = evaluation._aux_value(level, j, [char], omega, z, w, radius, peak)[0]
        assert abs(got - terms.sum()) <= 1e-13 * np.abs(terms).sum()
        # all characteristics of the level in one call: each value is its own
        # one-characteristic value, to the bit.  Some other characteristic's
        # monomial can cancel to 0 in exact arithmetic, so those are held to the
        # roundoff scale of the terms rather than to the sum of their moduli.
        chars = enumerate_characteristics(level, omega.g)
        block = evaluation._aux_value(level, j, chars, omega, z, w, radius, peak)
        assert len(block) == len(chars) and block[chars.index(char)] == got
        for other, value in zip(chars, block):
            terms, scale = reference_terms(level, j, other, omega, z, w, radius)
            assert abs(value - terms.sum()) <= 1e-13 * scale.sum()
            assert value == evaluation._aux_value(level, j, [other], omega, z, w, radius, peak)[0]
        memo = evaluation._quadratic_form(level, omega, radius)
        assert memo[-1] is not None  # n^t (Re Q) n, computed since Re Omega != 0
        assert not any(arr.flags.writeable for arr in memo)

    def test_dropped_points_are_within_the_tail_bound(self):
        # the cut cube's sum at R against the full cube's at R + 2, both centred on the peak
        # X*: both tails at |Z| + |X*| and the log scale, plus gamma_n * sum|terms| of
        # roundoff for each sum (Higham, eq. 4.4)
        dropped = []

        @PROPERTY
        @given(kernel_cases())
        def check(case):
            level, j, char, omega, z, w, radius = case
            peak = -w.imag @ np.linalg.inv(omega.omega.imag)
            z_sup = float(np.abs(z).max() + np.abs(peak).max()) if j.size else 0.0
            log_scale = -np.pi * float(np.sum(level.as_array() @ w.imag * peak))
            centre = evaluation._tail_point(level, omega, j.size, z, w)[0]
            got = evaluation._aux_value(level, j, [char], omega, z, w, radius, centre)[0]
            allowance = 0.0
            for r in (radius, radius + 2):
                terms, scale = reference_terms(level, j, char, omega, z, w, r)
                nu = len(terms) * np.finfo(float).eps / 2
                allowance += tail_bound(level, omega, j.size, z_sup, log_scale, r)
                allowance += nu / (1 - nu) * scale.sum()
            # terms are now the full cube's at radius + 2
            assert abs(got - terms.sum()) <= allowance
            kept = len(evaluation._quadratic_form(level, omega, radius)[0])
            dropped.append(kept < (2 * radius + 1) ** (level.h * omega.g))

        check()
        assert any(dropped)

    @PROPERTY
    @given(kernel_cases(), st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))
    def test_centred_sum_is_the_uncentred_sum(self, case, im_w):
        # N -> N + xi re-indexes the same series: the kernel's centred sum at its least radius
        # R for 1e-8 against the cube about 0 that holds the centred cube of radius R + 1, whose
        # omitted terms all lie outside that one, wherever that cube fits a budget of 40,000
        # points.  They agree within both tail bounds plus the roundoff of each sum: gamma_n *
        # sum|terms| (Higham, eq. 4.4), and each term's own error from its exponent X, at most
        # eps * slack * (1 + pi |X|) relative, as in ``decompose._pair_terms``, with |X| at
        # most |x|^t |M kron Omega| |x| + 2 |vec MW| . |x| for |x| = |N| + |A| entrywise
        level, j, char, omega, z, w, _ = case
        h, g = level.h, omega.g
        w = w.real + 1j * np.array(im_w[: h * g]).reshape(h, g)
        cfg = evaluation._point_config(level, omega, j.size, z, w, 1e-8)
        xi = peak_shift(char, omega, w)
        reach = cfg.radius + 1 + int(np.abs(xi).max())
        assume((2 * reach + 1) ** (h * g) <= 40_000)
        got, bound = evaluation.aux_theta_block(level, j, [char], omega, z, w, cfg)
        point = evaluation._tail_point(level, omega, j.size, z, w)[1:]
        allowance = bound + tail_bound(level, omega, j.size, *point, cfg.radius + 1)
        eps, m = np.finfo(float).eps, level.as_array()
        q_abs = np.abs(np.kron(m, omega.omega))
        mw_abs = np.abs(m @ w).ravel()
        slack = (h * g) ** 2 + (h + 1) * j.size + 8
        for radius, centred in ((cfg.radius, True), (reach, False)):
            _, scale = reference_terms(level, j, char, omega, z, w, radius, centred)
            offset = char.as_array() + (xi if centred else 0.0)
            x = (np.abs(product_cube(h, g, radius)) + np.abs(offset)).reshape(len(scale), -1)
            size = np.einsum("pi,ij,pj->p", x, q_abs, x) + 2.0 * x @ mw_abs
            nu = len(scale) * eps / 2
            allowance += nu / (1 - nu) * scale.sum() + eps * slack * scale @ (1.0 + np.pi * size)
        terms, _ = reference_terms(level, j, char, omega, z, w, reach, centred=False)
        assert abs(got[0] - terms.sum()) <= allowance

    def test_pruned_terms_are_within_the_bound(self, monkeypatch):
        # the block prunes the terms under its floor; against the kernel's unpruned sum it
        # may differ by their total, at most eps * bound, plus the roundoff gamma_n *
        # sum|terms| of the two sums (n = 2P bounds both); the cases add W + xi Omega
        eps = np.finfo(float).eps
        floors, pruned = [], []
        kernel = evaluation._aux_value

        def recorded(*args):
            floors.append(args[8])  # log_floor
            return kernel(*args)

        monkeypatch.setattr(evaluation, "_aux_value", recorded)

        @PROPERTY
        @given(kernel_cases(), st.lists(st.sampled_from((-1, 0, 1)), min_size=4, max_size=4))
        def check(case, xi):
            level, j, char, omega, z, w, radius = case
            h, g = level.h, omega.g
            w = w + np.array(xi[: h * g], dtype=float).reshape(h, g) @ omega.omega
            cfg = TruncationConfig(radius=radius, tail_tol=1e300)
            all_chars = enumerate_characteristics(level, g)
            try:
                block, bound = evaluation.aux_theta_block(level, j, all_chars, omega, z, w, cfg)
                one, one_bound = evaluation.aux_theta_block(level, j, [char], omega, z, w, cfg)
            except TruncationInsufficientError:
                return
            assert one_bound == bound and one[0] == block[all_chars.index(char)]
            peak = evaluation._tail_point(level, omega, j.size, z, w)[0]
            full = kernel(level, j, [char], omega, z, w, radius, peak)[0]
            _, scale = reference_terms(level, j, char, omega, z, w, radius)
            nu = len(scale) * eps  # n u, with n = 2 * len(scale) >= 2P and u = eps / 2
            assert abs(one[0] - full) <= eps * bound + nu / (1 - nu) * scale.sum()
            # the exponentials exp(-pi Im X) of the kept points, centred on the peak, against
            # the floor
            n = evaluation._quadratic_form(level, omega, radius)[0].reshape(-1, h, g)
            b = n + char.as_array() + peak_shift(char, omega, w)
            m = level.as_array()
            im_x = (np.einsum("kl,pla,ab,pkb->p", m, b, omega.omega, b)
                    + 2.0 * np.einsum("kl,la,pka->p", m, w, b)).imag
            pruned.append(bool((-np.pi * im_x < floors[-1]).any()))

        check()
        assert any(pruned)

    def test_floor_of_the_least_bound(self):
        # a tail that underflows gives the least bound, 5e-324; its floor is taken in logs
        cfg = TruncationConfig(radius=30, tail_tol=1e-300)
        z = w = np.array([[0.1 + 0.2j]])
        for j in (MultiIndex.zeros(1, 1), MultiIndex.from_rows([[2]])):
            values, bound = evaluation.aux_theta_block(LEVEL2, j, chars(LEVEL2), OMEGA_I, z, w, cfg)
            assert bound == 5e-324
            peak = evaluation._tail_point(LEVEL2, OMEGA_I, j.size, z, w)[0]
            full = evaluation._aux_value(LEVEL2, j, chars(LEVEL2), OMEGA_I, z, w, 30, peak)
            assert np.array_equal(values, full)

    @PROPERTY
    @given(kernel_cases())
    def test_memo_holds_the_sub_cube_tail_bound_counts_as_kept(self, case):
        # tail_bound counts only the points outside |n| <= r0 as droppable
        level, _, _, omega, _, _, radius = case
        q, lam, alpha = evaluation._form(level, omega)
        assert np.array_equal(q, np.kron(level.as_array(), omega.omega)) and not q.flags.writeable
        assert lam == pytest.approx(np.linalg.eigvalsh(q.imag)[0], rel=1e-12)
        assert alpha == pytest.approx(math.sqrt(np.abs(q.imag).sum()), rel=1e-12)
        r0 = min(radius, math.floor(1 + radius * math.sqrt(lam) / alpha))
        hg = level.h * omega.g
        kept = {tuple(n) for n in evaluation._quadratic_form(level, omega, radius)[0]}
        sub_cube = product_cube(level.h, omega.g, r0).reshape(-1, hg)
        assert all(tuple(n) in kept for n in sub_cube)

    def test_nothing_is_dropped_at_hg_one(self):
        # alpha = sqrt(lam) at h*g = 1, so the cut keeps the whole cube and adds no term
        assert choose_radius(LEVEL4, OMEGA_I, 0.42, 1e-12, 0) == 2
        for radius in (1, 2, 5):
            assert len(evaluation._quadratic_form(LEVEL4, OMEGA_I, radius)[0]) == 2 * radius + 1

    def test_block_slices_do_not_change_values(self, monkeypatch):
        # 144 characteristics x 6,235 kept points of a 14,641-point cube: two per slice by default
        level = validate_level([[4, 2], [2, 4]])
        omega = PeriodMatrix([[0.3 + 1j, 0.25], [0.25, -0.2 + 1.5j]])
        chars2 = enumerate_characteristics(level, 2)
        z = np.array([[0.1 + 0.2j, -0.3j], [0.2, 0.1 - 0.1j]])
        w = np.array([[0.05 - 0.1j, 0.2 + 0.3j], [-0.1, 0.3j]])
        cfg = TruncationConfig(radius=5, tail_tol=1e-10)
        j = MultiIndex.from_rows([[1, 0], [0, 1]])
        blocks = []
        for terms in (evaluation.BLOCK_TERMS, 1, 1 << 40):
            monkeypatch.setattr(evaluation, "BLOCK_TERMS", terms)
            blocks.append(evaluation.aux_theta_block(level, j, chars2, omega, z, w, cfg))
        (values, bound), *others = blocks
        assert len(values) == 144
        for other_values, other_bound in others:
            assert np.array_equal(values, other_values) and bound == other_bound

    @pytest.mark.parametrize("radius", [1, 3, 4])
    def test_block_bound_is_each_series_bound(self, radius):
        chars2 = enumerate_characteristics(LEVEL2, 2)
        omega = PeriodMatrix([[1j, 0.25], [0.25, 1.5j]])
        z = np.full((1, 2), 0.3 + 0.1j)
        w = np.array([[0.1 + 0.2j, -0.2 - 0.3j]])
        cfg = TruncationConfig(radius=radius, tail_tol=1e-10)
        for j in multi_indices_up_to(1, 2, 2):
            try:
                values, bound = evaluation.aux_theta_block(LEVEL2, j, chars2, omega, z, w, cfg)
            except TruncationInsufficientError:
                for char in chars2:
                    with pytest.raises(TruncationInsufficientError):
                        aux_theta_series(LEVEL2, j, char, omega, z, w, cfg)
                continue
            for char, value in zip(chars2, values):
                one = aux_theta_series(LEVEL2, j, char, omega, z, w, cfg)
                assert one.tail_bound == bound and one.value == value

    @pytest.mark.parametrize("rows,g,omega,radius,count", OVER_BUDGET_STACKS)
    def test_stack_over_the_budget_is_its_points(self, monkeypatch, rows, g, omega, radius, count):
        level, j, chars_, omega, z, w, cfg = over_budget_stack(rows, g, omega, radius, count)
        points = len(evaluation._quadratic_form(level, omega, radius)[0])
        assert count * len(chars_) * points > evaluation.BLOCK_TERMS
        passes = []
        kernel = evaluation._aux_value

        def recorded(level, j, chars, omega, z, w, radius, peak, log_floor):
            passes.append(len(z) * len(chars) * points)
            return kernel(level, j, chars, omega, z, w, radius, peak, log_floor)

        monkeypatch.setattr(evaluation, "_aux_value", recorded)
        values, bound = evaluation.aux_theta_block(level, j, chars_, omega, z, w, cfg)
        assert values.shape == (count, len(chars_)) and len(passes) > 1
        assert max(passes) <= evaluation.BLOCK_TERMS and sum(passes) == values.size * points
        for s in range(count):
            one, one_bound = evaluation.aux_theta_block(level, j, chars_, omega, z[s], w[s], cfg)
            assert np.all(np.abs(values[s] - one) <= 1e-14 * np.abs(one))
            assert one_bound <= bound

    @pytest.mark.parametrize("rows,g,omega,radius,count", OVER_BUDGET_STACKS)
    def test_one_setup_pass_per_stack(self, monkeypatch, rows, g, omega, radius, count):
        # one _tail_point call sets the stack up however its passes slice it, and each pass
        # centres on its points' slice of the stack's peaks
        level, j, chars_, omega, z, w, cfg = over_budget_stack(rows, g, omega, radius, count)
        setups, passes = [], []
        tail_point, kernel = evaluation._tail_point, evaluation._aux_value

        def recorded_setup(*args):
            setups.append(tail_point(*args))
            return setups[-1]

        def recorded_pass(level, j, chars, omega, z, w, radius, peak, log_floor):
            passes.append(len(chars))
            assert np.shares_memory(peak, setups[-1][0]) and peak.shape == w.shape
            assert np.allclose(peak, -w.imag @ np.linalg.inv(omega.omega.imag), rtol=1e-14, atol=0)
            return kernel(level, j, chars, omega, z, w, radius, peak, log_floor)

        monkeypatch.setattr(evaluation, "_tail_point", recorded_setup)
        monkeypatch.setattr(evaluation, "_aux_value", recorded_pass)
        evaluation.aux_theta_block(level, j, chars_, omega, z, w, cfg)
        assert len(setups) == 1 and len(passes) > 1
        assert (min(passes) < len(chars_)) == (count == 2)  # the characteristics are sliced
        evaluation.aux_theta_block(level, j, chars_, omega, z[0], w[0], cfg)
        assert len(setups) == 2

    @PROPERTY
    @given(kernel_cases(), st.lists(st.tuples(unit, unit, unit, unit), min_size=0, max_size=3))
    def test_stack_bound_covers_each_point(self, case, shifts):
        # the stack's one bound is at least each point's own, and is it for one point
        level, j, char, omega, z, w, radius = case
        cfg = TruncationConfig(radius=radius, tail_tol=math.inf)
        zs = np.array([z] + [z * (1 + dz) + dw for dz, dw, *_ in shifts])
        ws = np.array([w] + [w * (1 + 1j * dz) + 1j * dw for *_, dz, dw in shifts])
        _, bound = evaluation.aux_theta_block(level, j, [char], omega, zs, ws, cfg)
        singles = [evaluation.aux_theta_block(level, j, [char], omega, zz, ww, cfg)[1]
                   for zz, ww in zip(zs, ws)]
        assert all(bound >= one for one in singles)
        if len(zs) == 1:
            assert bound == singles[0]

    def test_over_budget_cube_is_refused_unbuilt(self):
        # hex at g=2 with Im Omega = 0.1 I: the chosen radius 19 is a 39^4-point cube
        omega = PeriodMatrix([[0.1j, 0], [0, 0.1j]])
        cfg = truncation_config(HEX, omega, 0.4, 0)
        assert (2 * cfg.radius + 1) ** 4 > evaluation.LATTICE_POINT_CAP
        w = np.full((2, 2), 0.4j)
        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(BudgetExceededError):
                theta_series(HEX, chars(HEX, 2)[0], omega, w, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - started < 1.0
        assert peak < 1 << 20
        # a radius the caller sets is held to the same cap: 1201^2 points at g=1
        with pytest.raises(BudgetExceededError):
            theta_series(HEX, chars(HEX)[0], OMEGA_I, [[0.0], [0.0]],
                         TruncationConfig(radius=600, tail_tol=1.0))

    @pytest.mark.parametrize("case", KERNEL_VALUES, ids=lambda case: case["name"])
    def test_values_match_the_fixture_bit_for_bit(self, case):
        # a change that alters these values on purpose regenerates the file and says so
        def parse(pairs):
            arr = np.vectorize(float.fromhex, otypes=[float])(np.array(pairs))
            return arr[..., 0] + 1j * arr[..., 1]

        level, omega = validate_level(case["level"]), PeriodMatrix(parse(case["omega"]))
        all_chars = enumerate_characteristics(level, omega.g)
        cfg = TruncationConfig(radius=case["radius"], tail_tol=float.fromhex(case["tail_tol"]))
        values, bound = evaluation.aux_theta_block(
            level, MultiIndex.from_rows(case["j"]), [all_chars[i] for i in case["chars"]], omega,
            parse(case["z"]), parse(case["w"]), cfg)
        as_hex = np.vectorize(float.hex, otypes=[object])
        assert bound.hex() == case["bound"]
        assert np.stack((as_hex(values.real), as_hex(values.imag)), axis=-1).tolist() == case["values"]

    def test_characteristic_rows_are_memoised(self):
        # vec A and Q vec A per (level, Omega, characteristics), read-only
        level, omega = validate_level([[4, 2], [2, 4]]), PeriodMatrix([[1j, 0.25], [0.25, 1.5j]])
        some = enumerate_characteristics(level, 2)[3:7]
        a, qa = evaluation._char_rows(level, omega, some)
        assert evaluation._char_rows(level, PeriodMatrix(omega.omega.copy()), some)[1] is qa
        assert np.array_equal(a, [char.as_array().ravel() for char in some])
        np.testing.assert_allclose(qa, a @ np.kron(level.as_array(), omega.omega), rtol=1e-15, atol=1e-15)
        assert not (a.flags.writeable or qa.flags.writeable)

    def test_block_rejects_a_foreign_characteristic(self):
        mixed = chars(LEVEL2) + chars(LEVEL4)[:1]
        with pytest.raises(DimensionMismatchError):
            evaluation.aux_theta_block(LEVEL2, MultiIndex.zeros(1, 1), mixed, OMEGA_I,
                                       [[0.0]], [[0.0]], CFG)
