"""Truncated evaluation of theta series and auxiliary theta series.

One pass over W, ``_tail_point``, sets up a stack of points: the Gaussian peak X* = -Im W
(Im Omega)^-1 of each point, where a term's modulus peaks and its logarithm is the log
scale pi sigma(M Im W (Im Omega)^-1 Im W^t), and the arguments of the stack's one tail
bound.  Each series is summed about its peak: the row of a point and characteristic A is
re-indexed N -> N + xi, xi = rint(X* - A), which is the same series, so its window need not
grow with Im W.  The window is the points of the sup-norm lattice box |N_ka| <= radius in
the Gaussian ellipsoid sqrt(n^t (M kron Im Omega) n) <= sqrt(lambda) * radius + alpha, one
quadratic form Q = M kron Omega, set up with lambda and alpha once per (level, Omega)
(``_form``) and its window once per radius; the characteristics of one level are an array
axis of that sum.  Every evaluation returns the value together with a certified bound on
the omitted tail, derived from the Gaussian decay rate pi * lambda, with lambda =
lambda_min(M) * lambda_min(Im omega), the log scale, and a polynomial-times-Gaussian
envelope when a nonzero multi-index is present: the shells outside the box, plus one term
for the box points outside the ellipsoid (see ``tail_bound``).  Residual checks for the quasi-periodicity and shift-operator laws are
scale-normalized: the raw difference is divided by the magnitude of the quantities compared
(floored at 1), which keeps the checks meaningful in double precision when the
transformation factors grow exponentially.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    RadiusUnachievableError,
    TruncationInsufficientError,
)
from .numerics import (
    Characteristic,
    LevelMatrix,
    MultiIndex,
    PeriodMatrix,
    _as_int,
    _as_int_rows,
    _as_tol,
    _read_only,
)

RADIUS_CAP = 64
TAIL_TARGET = 1e-12  # default certified tail of every evaluation setup
BLOCK_TERMS = 1 << 14  # S x C x P series terms one kernel pass holds at most
LATTICE_POINT_CAP = 1 << 20  # most points of one lattice cube


@dataclass(frozen=True)
class TruncationConfig:
    radius: int
    tail_tol: float

    def __post_init__(self):
        object.__setattr__(self, "radius", _as_int(self.radius, "radius", 1))
        object.__setattr__(self, "tail_tol", _as_tol(self.tail_tol, "tail_tol"))


@dataclass(frozen=True)
class ThetaValue:
    value: complex
    tail_bound: float


def as_matrix(x, h: int, g: int) -> np.ndarray:
    arr = np.asarray(x, dtype=complex)
    if arr.shape != (h, g):
        raise DimensionMismatchError(f"expected a {h}x{g} matrix, got shape {arr.shape}")
    return arr


@functools.lru_cache(maxsize=1024)
def _form(level: LevelMatrix, omega: PeriodMatrix) -> tuple[np.ndarray, float, float]:
    """The (level, Omega) part of every series' setup: Q = M kron Omega, read-only; the decay
    rate lam = lambda_min(M) * lambda_min(Im Omega), at most the least eigenvalue of Im Q;
    and alpha = sqrt(sum_ij |(Im Q)_ij|), the slack of the ellipsoid cut (see ``tail_bound``)."""
    q = _read_only(np.kron(level.as_array(), omega.omega))
    return q, level.min_eig * omega.im_min_eig, math.sqrt(np.abs(q.imag).sum())


def tail_bound(level: LevelMatrix, omega: PeriodMatrix, degree: int,
               z_sup: float, log_scale: float, radius: int) -> float:
    """Upper bound for the omitted tail of the (possibly weighted) series.

    The kernel sums each series about its Gaussian peak X* = -Im W (Im Omega)^-1: the row of
    characteristic A sums x = n + A' over its window n, A' = A + xi with xi = rint(X* - A),
    so delta = X* - A' lies in [-1/2, 1/2]^(hg); the proof uses only |delta|_inf <= 1.  With
    q(y) = y^t (M kron Im Omega) y >= lam |y|^2, lam the decay rate, a term's Gaussian has
    modulus exp(log_scale - pi q(n - delta)), log_scale = pi sigma(M Im W (Im Omega)^-1 Im W^t)
    its value at the peak, and each monomial (M(Z+x))_ka is at most
    rho (|Z|_inf + |X*|_inf + |n - delta|_inf), rho the maximum absolute row sum of the level
    matrix.  ``z_sup`` bounds |Z|_inf + |X*|_inf over the points covered (0 at degree 0).

    Shell s > radius of the sup-norm box has |n - delta|_inf >= s - 1 and contributes at most
        count(s) * (2*pi*rho*(z_sup+s+1))^degree * exp(log_scale - pi*lam*(s-1)^2).

    One more term bounds the cube points ``_quadratic_form`` drops.  A dropped n has
    sqrt(q(n)) > sqrt(lam)*radius + alpha, where alpha^2 = sum_ij |(M kron Im Omega)_ij|
    >= q(delta).  So sqrt(q(n - delta)) > sqrt(lam)*radius, and its term is at most
    (2*pi*rho*(z_sup+radius+1))^degree * exp(log_scale - pi*lam*radius^2).  Every n with
    |n|_inf <= r0 = min(radius, floor(1 + radius*sqrt(lam)/alpha)) has sqrt(q(n)) <= r0*alpha
    <= sqrt(lam)*radius + alpha and is kept, so at most (2*radius+1)^(hg) - (2*r0+1)^(hg)
    points are dropped: none at hg = 1, where alpha = sqrt(lam).

    A term whose exponent is outside [-700, 700], or whose direct product overflows, is taken
    in logs: it is positive wherever its true value is a positive double, and +inf above the
    float range or where an argument is infinite or NaN.  ``level`` is read through h,
    as_array(), min_eig and row_sum_norm, so the level K of a product's theta constants
    (``decompose._LevelPair``, at W = 0: log_scale 0 and X* = 0) is bounded here too.  The
    total is returned times 1 + eps (eps = 2^-52), and is never zero: the kept terms that the
    kernel prunes as too small to matter sum to at most eps times it (see ``aux_theta_block``).
    """
    (_, lam, alpha), rho, hg = _form(level, omega), level.row_sum_norm, level.h * omega.g

    def envelope(count, s, t):
        if not count:
            return 0.0
        expo = log_scale - math.pi * lam * t * t
        base = 2.0 * math.pi * rho * (z_sup + s + 1.0)
        if -700.0 <= expo <= 700.0:
            try:
                term = count * base ** degree * math.exp(expo)
            except OverflowError:
                term = math.inf
            if term < math.inf:
                return term
        # in logs, +inf above the float range and for a NaN
        parts = (math.log(count), degree * math.log(base) if degree else 0.0, expo)
        log_term = sum(parts) + 1e-15 * sum(map(abs, parts))  # their roundoff, rounded up
        return math.exp(log_term) if log_term < 709.0 else math.inf

    r0 = min(radius, math.floor(1.0 + radius * math.sqrt(lam) / alpha))
    total = envelope((2 * radius + 1) ** hg - (2 * r0 + 1) ** hg, radius, radius)
    s = radius + 1
    while total < math.inf:
        shell = envelope((2 * s + 1) ** hg - (2 * s - 1) ** hg, s, s - 1.0)
        total += shell
        if shell == 0.0 or shell < total * 1e-18:
            break
        if s > radius + 10000:  # defensive cap; decay always wins long before
            break
        s += 1
    # the true tail is strictly positive; never report a certified bound of zero
    return max(total, 5e-324) * (1.0 + sys.float_info.epsilon)


@functools.lru_cache(maxsize=64)
def _quadratic_form(level: LevelMatrix, omega: PeriodMatrix, radius: int):
    """The part of the series exponent that depends on (level, Omega, radius) only.

    With Q, lam and alpha from ``_form`` and q(n) = n^t (Im Q) n, keeps the points n of the
    cube |N_ka| <= radius with sqrt(q(n)) <= sqrt(lam)*radius + alpha, flattened to n
    (P x hg) in the cube's order, last entry fastest; ``tail_bound`` certifies the points dropped.  n is the transpose
    of a C-ordered hg x P array: the kernel's exponent product reads n^t whole, and its
    monomials read rows of n^t, each one entry (l, a) of N at every point.  Returns n, Q
    and the per-point forms q(n) and n^t (Re Q) n, all read-only; the last is None when
    Re Omega = 0.  A cube over LATTICE_POINT_CAP points is refused unbuilt: the cap of every
    lattice sum.
    """
    hg = level.h * omega.g
    if (2 * radius + 1) ** hg > LATTICE_POINT_CAP:
        raise BudgetExceededError(
            f"radius {radius} cube of {(2 * radius + 1) ** hg} lattice points exceeds {LATTICE_POINT_CAP}")
    axis = np.arange(-radius, radius + 1, dtype=float)
    cube = np.stack(np.meshgrid(*([axis] * hg), indexing="ij", copy=False), axis=-1).reshape(-1, hg)
    q, lam, alpha = _form(level, omega)

    def form(points, part):
        return np.einsum("pi,ij,pj->p", points, part, points)

    n_imq_n = form(cube, q.imag)
    # q(n) errs by about (hg)^2 eps alpha^2 radius^2, below 1e-9 of cut^2 on every cube
    # under the cap (radius <= 511 once hg >= 2; cut > alpha radius at hg = 1); the
    # slack resolves that roundoff, and that of tail_bound's floor, toward keeping a point
    cut = math.sqrt(lam) * radius + alpha
    keep = n_imq_n <= cut * cut * (1.0 + 1e-9)
    n = _read_only(np.ascontiguousarray(cube[keep].T)).T
    n_req_n = _read_only(form(n, q.real)) if omega.omega.real.any() else None
    return n, q, _read_only(n_imq_n[keep]), n_req_n


@functools.lru_cache(maxsize=1024)
def _char_rows(level: LevelMatrix, omega: PeriodMatrix, chars: tuple) -> tuple[np.ndarray, np.ndarray]:
    """vec A of each characteristic (C x hg) and Q vec A, Q = M kron Omega: the parts of the
    exponent rows that depend on (level, Omega, characteristics) only, read-only."""
    a = np.array([char.as_array().ravel() for char in chars])
    qa = (_form(level, omega)[0] * a[:, None, :]).sum(axis=-1)
    return _read_only(a), _read_only(qa)


def _aux_value(level, j, chars, omega, z, w, radius, peak, log_floor=-math.inf):
    """The truncated series at (..., h, g) points Z, W for C characteristics, as one
    quadratic form X = n^t Q n + c.n + d per (point, characteristic): values (..., C).

    Each row is centred on the Gaussian peak X* of its point, given as ``peak`` (from
    ``_tail_point``, shape (..., h, g)): it sums n + A' over the window n, A' = A + xi with
    xi = rint(X* - A), the same series re-indexed.  Each term is exp(i pi X) times the monomial
    weight.  The points n and the forms q(n) = n^t (Im Q) n and n^t (Re Q) n are memoised per
    (level, Omega, radius) (``_quadratic_form``), vec A and Q vec A per (level, Omega,
    characteristics) (``_char_rows``); a call computes only what depends on Z and W: the
    shifted rows A', Q vec A', c and d, the exponent rows of all S x C pairs as one matrix
    product, and the columns (M(Z+N+A'))_ka of the nonzero J_ka.  A term's exponential has
    modulus exp(-pi Im X), so one comparison prunes the terms where -pi Im X < log_floor (a
    NaN is kept; the default prunes none), and the exp, the monomials and the sums run over
    the kept terms only, each sum in P order.
    """
    n, q, n_imq_n, n_req_n = _quadratic_form(level, omega, radius)
    h, g = level.h, omega.g
    lead = w.shape[:-2]
    w = w.reshape(-1, 1, h, g)
    m = level.as_array()
    a, qa = _char_rows(level, omega, tuple(chars))
    xi = np.rint(peak.reshape(len(w), 1, -1) - a)  # S x C x hg
    a = a + xi  # vec A'
    qa = qa + xi @ q  # Q vec A', Q symmetric
    c = 2.0 * ((m @ w).reshape(len(w), 1, -1) + qa)
    d = ((c - qa)[..., None, :] @ a[..., None]).ravel()  # vec A'^t Q vec A' + 2 vec(MW) . vec A'
    rows = len(d)
    re_x, im_x = (np.concatenate((c.real, c.imag)).reshape(-1, h * g) @ n.T).reshape(2, rows, -1)
    im_x += n_imq_n
    im_x += d.imag[:, None]
    kept = np.flatnonzero(~(im_x > log_floor / -np.pi))
    row = kept // len(n)
    phase = re_x.ravel()[kept] + d.real[row]
    if n_req_n is not None or j.size:
        p = kept - row * len(n)
    if n_req_n is not None:
        phase += n_req_n[p]
    terms = np.empty(len(kept), dtype=complex)  # exp(i pi X) of the kept terms
    np.multiply(im_x.ravel()[kept], -np.pi, out=terms.real)
    np.multiply(phase, np.pi, out=terms.imag)
    np.exp(terms, out=terms)
    if j.size:
        # (M(Z+N+A'))_ka = (M N)_ka + (M(Z+A'))_ka, with (M N)_ka = sum_l M_kl N_la read from
        # the rows (l, a) of n^t at the kept points: integral, so exact in any order
        offsets = (m @ (z.reshape(-1, 1, h, g) + a.reshape(len(w), -1, h, g))).reshape(rows, -1)
        for i, power in enumerate(x for jrow in j.j for x in jrow):
            if power:
                k, col = divmod(i, g)
                mn = m[k, 0] * n.T[col][p]
                for l in range(1, h):
                    mn += m[k, l] * n.T[l * g + col][p]
                lam = offsets[:, i][row]
                lam += mn
                for _ in range(power):
                    terms *= lam
        terms *= (2j * np.pi) ** j.size
    sums = np.zeros(rows, dtype=complex)
    np.add.at(sums, row, terms)  # in P order within each value
    return sums.reshape(*lead, len(chars))


def _tail_point(level: LevelMatrix, omega: PeriodMatrix, degree: int, z, w) -> tuple:
    """The setup of one (h, g) point or a stack of them, in one pass over W: the Gaussian
    peak X* = -Im W (Im Omega)^-1 of each point, where the modulus of every term of its series
    peaks over real N + A; then the arguments at which ``tail_bound`` covers each point, the
    largest |Z| entry plus the largest |X*| entry (0 at degree 0) and the largest log scale
    pi sigma(M Im W (Im Omega)^-1 Im W^t)."""
    with np.errstate(over="ignore", invalid="ignore"):  # a huge W: an infinite or NaN peak and scale
        peak = -np.imag(w) @ omega.im_inv
        log_scale = -math.pi * float((level.as_array() @ np.imag(w) * peak).sum(axis=(-2, -1)).min())
        z_sup = float(np.abs(z).max() + np.abs(peak).max()) if degree else 0.0
    return peak, z_sup, max(log_scale, 0.0)  # a form >= 0 in exact arithmetic; a NaN stays NaN


def aux_theta_block(level: LevelMatrix, j: MultiIndex, chars, omega: PeriodMatrix,
                    z, w, cfg: TruncationConfig) -> tuple[np.ndarray, float]:
    """The auxiliary series of one (level, J) at one (h, g) point or a stack of S points,
    shape (S, h, g), for a list of characteristics: values of shape (C,) or (S, C).

    One call of ``_tail_point`` sets the stack up: the Gaussian peak X* of each point, its
    series summed about it, each pass taking its points' slice, and the stack's one certified
    tail bound, ``tail_bound`` at its largest |Z| + |X*| entries and largest log scale: every
    envelope term grows with both, so it covers each point, and one point gets its own bound.
    The kernel prunes the terms below a floor set from that bound, so that together they stay
    within its eps share (see ``tail_bound``).
    Passes hold at most BLOCK_TERMS S x C x P terms, slicing the points, or the
    characteristics where one point is over the budget.  A Z or W entry that is not finite
    is a ValueError, and a bound that is not within cfg.tail_tol, NaN included, a
    TruncationInsufficientError.
    """
    h, g = level.h, omega.g
    if (j.h, j.g) != (h, g):
        raise DimensionMismatchError(f"multi-index shape {j.h}x{j.g} does not match h={h}, g={g}")
    if any(char.level != level or char.g != g for char in chars):
        raise DimensionMismatchError("characteristic does not match the level matrix and omega")
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    if z.shape != w.shape or w.shape[-2:] != (h, g) or w.ndim not in (2, 3):
        raise DimensionMismatchError(f"Z, W must share a shape {h}x{g} or Sx{h}x{g}: {z.shape}, {w.shape}")
    if not (np.isfinite(z).all() and np.isfinite(w).all()):
        raise ValueError("Z and W must be finite")
    stacked = w.ndim == 3
    z, w = z.reshape(-1, h, g), w.reshape(-1, h, g)
    peak, z_sup, log_scale = _tail_point(level, omega, j.size, z, w)
    bound = tail_bound(level, omega, j.size, z_sup, log_scale, cfg.radius)
    if not bound <= cfg.tail_tol:
        raise TruncationInsufficientError(
            f"tail bound {bound:.3e} exceeds tolerance {cfg.tail_tol:.3e} at radius {cfg.radius}"
        )
    points = len(_quadratic_form(level, omega, cfg.radius)[0])
    # Each pruned term is below eps * bound / (2P) once weighted by at most
    # (2 pi rho (z_sup + radius + 1))^|J|, and a value has fewer than P of them: they stay
    # within the bound's eps share, the factor 2 covering the exponent's roundoff.  In logs,
    # so that the least bound, 5e-324, has a floor; an infinite or NaN bound prunes nothing.
    log_floor = -math.inf
    if bound < math.inf:
        log_floor = (math.log(bound) + math.log(sys.float_info.epsilon / (2 * points))
                     - j.size * math.log(2.0 * math.pi * level.row_sum_norm * (z_sup + cfg.radius + 1.0)))
    c_step = max(1, min(len(chars), BLOCK_TERMS // points))
    s_step = max(1, BLOCK_TERMS // (c_step * points))
    values = np.empty((len(w), len(chars)), dtype=complex)
    for s in range(0, len(w), s_step):
        for lo in range(0, len(chars), c_step):
            values[s:s + s_step, lo:lo + c_step] = _aux_value(
                level, j, chars[lo:lo + c_step], omega, z[s:s + s_step], w[s:s + s_step], cfg.radius,
                peak[s:s + s_step], log_floor)
    return (values if stacked else values[0]), bound


def aux_theta_series(level: LevelMatrix, j: MultiIndex, char: Characteristic,
                     omega: PeriodMatrix, z, w, cfg: TruncationConfig) -> ThetaValue:
    """Auxiliary theta series of the given level, multi-index and characteristic.

    Sums (2 pi i)^|J| * prod_{k,a} (M(Z+N+A))_{ka}^{J_ka}
    * exp{pi i sigma(M((N+A) Omega (N+A)^t + 2 W (N+A)^t))} over the lattice
    box, and certifies the tail.  At J = 0 the value is independent of Z and
    equals the plain theta series.
    """
    values, bound = aux_theta_block(level, j, [char], omega, z, w, cfg)
    return ThetaValue(value=complex(values[0]), tail_bound=bound)


def theta_series(level: LevelMatrix, char: Characteristic, omega: PeriodMatrix,
                 w, cfg: TruncationConfig) -> ThetaValue:
    """Theta series of the given level and characteristic at the point w."""
    zeros = np.zeros((level.h, omega.g), dtype=complex)
    return aux_theta_series(level, MultiIndex.zeros(level.h, omega.g), char, omega, zeros, w, cfg)


def transformation_factor(level: LevelMatrix, omega: PeriodMatrix, w, xi):
    """exp{-pi i sigma(M(xi Omega xi^t + 2 W xi^t))}, the quasi-periodicity factor, at
    one point or at each point of a stack."""
    m = level.as_array()
    quad = np.einsum("kl,...la,ab,...kb->...", m, xi, omega.omega, xi)
    lin = np.einsum("kl,...la,...ka->...", m, w, xi)
    factor = np.exp(-np.pi * 1j * (quad + 2.0 * lin))
    return complex(factor) if factor.ndim == 0 else factor


def quasi_period_residual(level: LevelMatrix, j: MultiIndex, char: Characteristic,
                          omega: PeriodMatrix, z, w, xi, eta,
                          cfg: TruncationConfig) -> float:
    """Residual of the joint shift law at one sample point.

    Compares the series at (Z+xi, W+xi*Omega+eta) against the transformation
    factor times the series at (Z, W).  The difference is divided by
    max(1, |factor|): the factor grows like exp(pi * xi M xi^t * Im Omega),
    and an unnormalized difference would be dominated by double-precision
    roundoff rather than by the law being tested.
    """
    h, g = level.h, omega.g
    z = as_matrix(z, h, g)
    w = as_matrix(w, h, g)
    if np.shape(xi) != (h, g) or np.shape(eta) != (h, g):
        raise DimensionMismatchError(f"xi and eta must be {h}x{g} integer matrices")
    xi, eta = (np.array(_as_int_rows(x), dtype=float) for x in (xi, eta))
    return float(shift_law_residual(
        lambda zz, ww: aux_theta_block(level, j, [char], omega, zz, ww, cfg)[0][:, 0],
        level, omega, z, w, xi, eta,
    ))


def shift_law_residual(f: Callable, level: LevelMatrix, omega: PeriodMatrix,
                       z, w, xi, eta):
    """|f(Z+xi, W+xi*Omega+eta) - factor * f(Z,W)| / max(1, |factor|), for one (h, g)
    case or a stack of them, shape (S, h, g), with ``f`` called once: on one stack of the
    shifted points, then the base points, shape (2S, h, g), S = 1 for one case.

    ``f(z, w)`` is any function that should obey the shift law of ``level``: one
    series, or one level component of an element.
    """
    shape = (-1, level.h, omega.g)
    zs = np.concatenate([np.reshape(x, shape) for x in (z + xi, z)])
    ws = np.concatenate([np.reshape(x, shape) for x in (w + xi @ omega.omega + eta, w)])
    shifted, base = np.split(np.asarray(f(zs, ws)), 2)
    if np.ndim(w) == 2:  # one case: its two values as Python complex scalars
        shifted, base = complex(shifted[0]), complex(base[0])
    factor = transformation_factor(level, omega, w, xi)
    return abs(shifted - factor * base) / np.maximum(1.0, abs(factor))


def shift_operator_check(level: LevelMatrix, j: MultiIndex, char: Characteristic,
                         omega: PeriodMatrix, z, w, k: int, a: int,
                         cfg: TruncationConfig) -> float:
    """Residual of the ladder identity raising J by epsilon_{ka}.

    Compares the series at J+epsilon_{ka} against
    2 pi i (M Z)_{ka} * series(J) + d/dW_{ka} series(J), the derivative taken
    by central differences along Re W_{ka} at steps 1e-3 and 1e-3/2, combined
    by first-order Richardson extrapolation: the package's one numerical
    derivative, kept because the derivative is what this identity tests.  The
    series(J) at W and at the four stencil points are one stack, W first.  At
    Z = 0 it checks independently that the kernel's auxiliary series at
    J+epsilon_{ka} is the W-derivative of the one at J.  Scale-normalized like
    quasi_period_residual, since the finite-difference truncation error grows
    with the magnitude of the function.
    """
    h, g = level.h, omega.g
    k, a = _as_int(k, "k", 1, IndexOutOfRangeError), _as_int(a, "a", 1, IndexOutOfRangeError)
    if not (k <= h and a <= g):
        raise IndexOutOfRangeError(f"shift index ({k},{a}) outside 1..{h} x 1..{g}")
    z = as_matrix(z, h, g)
    w = as_matrix(w, h, g)
    lhs = aux_theta_series(level, j.bump(k, a, +1), char, omega, z, w, cfg).value
    step = 1e-3
    unit = np.zeros((h, g), dtype=complex)
    unit[k - 1, a - 1] = 1.0
    # the stencil moves Re W only, so the stack's tail bound and floor are W's own
    ws = w + np.array([0.0, step, -step, step / 2.0, -step / 2.0])[:, None, None] * unit
    values = aux_theta_block(level, j, [char], omega, np.broadcast_to(z, ws.shape), ws, cfg)[0]
    base, f1, f2, f3, f4 = values[:, 0]
    d1 = (f1 - f2) / (2.0 * step)
    fd = (4.0 * ((f3 - f4) / step) - d1) / 3.0
    mz = (level.as_array() @ z)[k - 1, a - 1]
    rhs = 2j * np.pi * mz * base + fd
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def choose_radius(level: LevelMatrix, omega: PeriodMatrix, w_box: float,
                  tail_tol: float, degree: int) -> int:
    """Smallest radius whose certified tail is below tail_tol.

    ``w_box`` bounds the real and imaginary parts of the entries of Z and W at every
    point the caller intends to evaluate: the tail is taken at |Z_ka| + |X*_ka| <=
    sqrt(2) w_box + w_box ||(Im Omega)^-1||_inf, X* the Gaussian peak, and at the log
    scale pi sigma(M Im W (Im Omega)^-1 Im W^t) <= pi rho hg w_box^2 / lambda_min(Im Omega),
    rho the row-sum norm of the level (a bound on its largest eigenvalue).  A negative or
    non-finite w_box, a degree not an integer >= 0 or a tail_tol not a positive real (bools
    refused) is a ValueError.
    """
    if not 0.0 <= w_box < math.inf:
        raise ValueError(f"w_box must be finite and >= 0, got {w_box!r}")
    degree = _as_int(degree, "degree", 0)
    tail_tol = _as_tol(tail_tol, "tail_tol")
    z_sup = w_box * (math.sqrt(2.0) + omega._im_inv_norm)
    log_scale = math.pi * level.row_sum_norm * level.h * omega.g * w_box * w_box / omega.im_min_eig
    return _least_radius(level, omega, degree, z_sup, log_scale, tail_tol)


@functools.lru_cache(maxsize=1024)
def _least_radius(level: LevelMatrix, omega: PeriodMatrix, degree: int,
                  z_sup: float, log_scale: float, tail_tol: float) -> int:
    """The least radius up to RADIUS_CAP whose ``tail_bound`` at these arguments is within
    tail_tol: the one radius rule of every lattice sum, memoised.  ``tail_bound`` does not
    decrease as its z_sup or log scale grows, so no radius below the least one at W = Z = 0
    certifies other arguments: that search starts there, at its own memoised value.  Callers
    check tail_tol: in here, a key equal to a cached one (True == 1) would skip a check."""
    start = _least_radius(level, omega, degree, 0.0, 0.0, tail_tol) if z_sup or log_scale else 1
    for radius in range(start, RADIUS_CAP + 1):
        if tail_bound(level, omega, degree, z_sup, log_scale, radius) <= tail_tol:
            return radius
    raise RadiusUnachievableError(f"no radius up to {RADIUS_CAP} certifies tail {tail_tol:.3e}")


def _point_config(level: LevelMatrix, omega: PeriodMatrix, degree: int, z, w,
                  tail_tol: float) -> TruncationConfig:
    """The evaluation setup of one point or stack from the points themselves: the least
    radius whose ``tail_bound`` at the stack's ``_tail_point`` is within tail_tol, for every
    |J| <= degree, searched past the memo, since each stack is a one-off key.  cli ``eval``
    sets up its point so, and ``verify_theorem3`` its shift check."""
    tail_tol = _as_tol(tail_tol, "tail_tol")
    radius = _least_radius.__wrapped__(level, omega, degree, *_tail_point(level, omega, degree, z, w)[1:],
                                       tail_tol)
    return TruncationConfig(radius=radius, tail_tol=tail_tol)


def truncation_config(level: LevelMatrix, omega: PeriodMatrix, box: float,
                      degree: int) -> TruncationConfig:
    """The evaluation setup of sampled stacks: ``choose_radius`` for (box, degree) at
    TAIL_TARGET, whose search ``_least_radius`` memoises.  Every point the caller samples
    lies in the box.  A caller that knows its points up front sets them up by
    ``_point_config`` instead, with no box.
    """
    return TruncationConfig(choose_radius(level, omega, box, TAIL_TARGET, degree), TAIL_TARGET)
