"""Decomposition of differential polynomials into the canonical symbol basis.

A product of two series is expanded exactly by the theta addition formula:
each coefficient in the summed level is a lattice sum of theta constants of
K = M1 (M1 + M2)^-1 M2 with a certified tail (see ``product_expand``).
``fit_in_basis`` expresses any sampled function by a dense least-squares
solve (orthogonal factorization via SVD), with the residual measured on
points held out of the solve; it is the oracle the formula is tested
against.  The certificates never read the expanded coefficients' lattice
sums: they compare the expression, each leaf read as its own auxiliary
series, with the element summed symbol by symbol by the series kernel.  At
Z = 0 the auxiliary series is the exact W-derivative of the theta series,
with the kernel's certified tail, so no numerical derivative enters them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .algebra import (
    PRUNE_EPS,
    AlgebraElement,
    BasisSymbol,
    evaluate_element,
)
from .errors import (
    DimensionMismatchError,
    IllConditionedError,
    LevelError,
    LevelSumInvalidError,
    ResidualTooLargeError,
)
from .evaluation import (
    TAIL_TARGET,  # the shift check's target; perfbench/workloads.py imports it from here
    _least_radius,
    _point_config,
    _quadratic_form,
    aux_theta_block,
    shift_law_residual,
    tail_bound,
    truncation_config,
)
# the node classes stay importable from here
from .expr import DerivSymbol, DiffPolyExpr, Product, Scale, Sum, expr_shape, fold  # noqa: F401
from .numerics import (
    LevelMatrix,
    MultiIndex,
    PeriodMatrix,
    _as_int,
    _as_tol,
    _read_only,
    enumerate_characteristics,
    int_det,
    multi_indices_up_to,
    validate_level,
)

COND_LIMIT = 1e8
SAMPLE_BOX = 0.4  # sample points have every real and imaginary part in [-SAMPLE_BOX, SAMPLE_BOX]
OVERSAMPLE = 2.0  # fitted samples per basis symbol
_MASK64 = (1 << 64) - 1

# sample streams; labels keep the draws for different purposes independent
_STREAM_FIT = 0
_STREAM_CERTIFY = 1
_STREAM_VERIFY = 2
_STREAM_VERIFY_SHIFT = 18  # verify_theorem3's shift-law cases
_STREAM_QP_SUITE = 32  # plus the configuration index: the quasiperiodicity suite's cases
_STREAM_KERNEL_SUITE = 48  # the commutator suite's kernel elements


@dataclass(frozen=True)
class FitConfig:
    seed: int = 0
    fit_tol: float = 1e-8
    holdout: int = 16

    def __post_init__(self):
        object.__setattr__(self, "fit_tol", _as_tol(self.fit_tol, "fit_tol"))
        object.__setattr__(self, "seed", _as_int(self.seed, "seed"))
        object.__setattr__(self, "holdout", _as_int(self.holdout, "holdout", 1))


@dataclass
class Decomposition:
    element: AlgebraElement
    residual: float
    conditioning: float


def _rng(seed: int, label: int) -> np.random.Generator:
    # counter-based generator keyed by (seed, stream); every seed is read as an integer here
    return np.random.Generator(np.random.Philox(key=(_as_int(seed, "seed") & _MASK64) + (label << 64)))


def _box_sample(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex array with real and imaginary parts uniform in [-SAMPLE_BOX, SAMPLE_BOX]."""
    box = SAMPLE_BOX
    return rng.uniform(-box, box, shape) + 1j * rng.uniform(-box, box, shape)


def _sample_points(seed: int, label: int, count: int, h: int, g: int):
    rng = _rng(seed, label)
    return _box_sample(rng, (count, h, g)), _box_sample(rng, (count, h, g))


def fit_in_basis(f: Callable, level: LevelMatrix, max_degree: int,
                 omega: PeriodMatrix, cfg: FitConfig) -> Decomposition:
    """Express a sampled function in the candidate basis of one level.

    ``f(z, w)`` maps stacks of points, shape (S, h, g), to S values (a scalar broadcasts),
    must be deterministic and is assumed to lie in the span of the symbols with
    |J| <= max_degree.  Points are drawn uniformly from the sample box; ``f`` is called
    once on all of them, the kernel once per J.  The least-squares problem is solved by SVD,
    coefficients below 1e-12 are pruned, and the residual is the largest
    mismatch on ``cfg.holdout`` points not used in the solve.  Non-finite
    samples raise ResidualTooLargeError before the solve.
    """
    h, g = level.h, omega.g
    eval_cfg = truncation_config(level, omega, SAMPLE_BOX, max_degree)  # refuses a bad degree first
    js = multi_indices_up_to(h, g, max_degree)
    chars = enumerate_characteristics(level, g)
    n_fit = math.ceil(OVERSAMPLE * len(js) * len(chars))
    total = n_fit + cfg.holdout

    conditioning = math.inf
    for seed in (cfg.seed, cfg.seed + 1):
        z, w = _sample_points(seed, _STREAM_FIT, total, h, g)
        # one row per point: J first, then characteristic, one block call per J
        design = np.hstack([aux_theta_block(level, j, chars, omega, z, w, eval_cfg)[0] for j in js])
        rhs = np.broadcast_to(np.asarray(f(z, w), dtype=complex), total)
        if not (np.isfinite(design).all() and np.isfinite(rhs).all()):
            raise ResidualTooLargeError("sampled basis or function values are not finite")
        coeffs, _, _, sv = np.linalg.lstsq(design[:n_fit], rhs[:n_fit], rcond=None)
        conditioning = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
        if conditioning <= COND_LIMIT:
            break
    else:
        raise IllConditionedError(
            f"sample matrix conditioning {conditioning:.3e} above {COND_LIMIT:.0e} after resampling"
        )

    keep = np.abs(coeffs) > PRUNE_EPS
    columns = itertools.product(js, chars)
    element = AlgebraElement({BasisSymbol(level, j, char): complex(c)
                              for (j, char), c, k in zip(columns, coeffs, keep) if k})
    pruned = np.where(keep, coeffs, 0.0)
    predicted = design[n_fit:] @ pruned
    residual = float(np.abs(rhs[n_fit:] - predicted).max())
    if residual > cfg.fit_tol:
        raise ResidualTooLargeError(
            f"holdout residual {residual:.3e} exceeds fit_tol {cfg.fit_tol:.3e}; "
            "input may not lie in the candidate span"
        )
    return Decomposition(element=element, residual=residual, conditioning=conditioning)


def _as_element(x) -> AlgebraElement:
    if isinstance(x, BasisSymbol):
        return AlgebraElement.from_symbol(x)
    if isinstance(x, AlgebraElement):
        return x
    raise TypeError(f"expected a basis symbol or element, got {type(x).__name__}")


def level_sum(l1: LevelMatrix, l2: LevelMatrix) -> LevelMatrix:
    if l1.h != l2.h:
        raise DimensionMismatchError("cannot add level matrices of different size")
    rows = [
        [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(l1.entries, l2.entries)
    ]
    try:
        return validate_level(rows)
    except LevelError as exc:
        raise LevelSumInvalidError(f"sum of levels is not admissible: {exc}") from exc


def _product_levels(e1: AlgebraElement, e2: AlgebraElement, omega: PeriodMatrix):
    """The level pair of a product of two single-level elements, and its degree bound."""
    lv1, lv2 = e1.levels(), e2.levels()
    if len(lv1) != 1 or len(lv2) != 1:
        raise DimensionMismatchError("product factors must each carry a single level")
    if e1.shape()[1] != omega.g or e2.shape()[1] != omega.g:
        raise DimensionMismatchError("product factors do not match the width of omega")
    return _level_pair(lv1[0], lv2[0]), e1.degree() + e2.degree()


@dataclass(frozen=True, eq=False)  # hashed by identity: ``_level_pair`` makes one per (M1, M2)
class _LevelPair:
    """The constants of a product of levels M1, M2, with S = M1 + M2 admissible: S, det S,
    det S * S^-1 M2 = adj(S) M2 (integral, so S^-1 M2 exactly), and K = M1 S^-1 M2 in floats.
    h, as_array(), min_eig and row_sum_norm are K's: to the series kernel's kept points, tail
    bound and radius rule it is the level K."""
    s: LevelMatrix
    det: int
    dt2: np.ndarray
    k: np.ndarray
    h: int
    min_eig: float
    row_sum_norm: float

    def as_array(self) -> np.ndarray:
        return self.k


@functools.lru_cache(maxsize=64)
def _level_pair(m1: LevelMatrix, m2: LevelMatrix) -> _LevelPair:
    s = level_sum(m1, m2)
    det, h = s.det(), s.h

    def cofactor(i, j):  # of S, (-1)^(i+j) times the minor without row i and column j
        minor = [r[:j] + r[j + 1:] for k, r in enumerate(s.entries) if k != i]
        return (-1) ** (i + j) * (int_det(minor) if minor else 1)

    adj = np.array([[cofactor(j, i) for j in range(h)] for i in range(h)], dtype=np.int64)
    dt2 = adj @ np.array(m2.entries, dtype=np.int64)
    k = m1.as_array() @ dt2 / det
    return _LevelPair(s, det, dt2, k, h, float(np.linalg.eigvalsh(k).min()),
                      float(np.abs(k).sum(axis=1).max()))


def _expansion(m1: LevelMatrix, m2: LevelMatrix, j1: MultiIndex, j2: MultiIndex):
    """prod_ka (M1 S^-1 V + E)_ka^J1_ka * prod_ka (M2 S^-1 V - E)_ka^J2_ka, expanded exactly
    in the entries of V = S(Z+U) and E = K D: a tuple of (J', ((q, c), ...)), one row per
    V-monomial V^J' and one pair per monomial E^q in it, q flat over the entries (k, a)."""
    pair = _level_pair(m1, m2)
    h, g = j1.h, j1.g
    t2 = [[Fraction(x, pair.det) for x in row] for row in pair.dt2.tolist()]  # S^-1 M2
    t1 = [[(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(t2)]  # S^-1 M1
    poly = {((0,) * (h * g), (0,) * (h * g)): Fraction(1)}
    for jj, t, sign in ((j1, t1, 1), (j2, t2, -1)):
        for k, a in ((k, a) for k in range(h) for a in range(g) for _ in range(jj.j[k][a])):
            # (M S^-1)_kl = (S^-1 M)_lk, the levels being symmetric
            factor = [(l * g + a, t[l][k]) for l in range(h) if t[l][k]]
            out = defaultdict(Fraction)
            for (v, e), c in poly.items():
                for var, coef in factor:
                    out[v[:var] + (v[var] + 1,) + v[var + 1:], e] += c * coef
                var = k * g + a
                out[v, e[:var] + (e[var] + 1,) + e[var + 1:]] += sign * c
            poly = {key: c for key, c in out.items() if c}
    rows = defaultdict(list)
    for (v, e), c in sorted(poly.items()):
        rows[v].append((e, c))
    return tuple((MultiIndex(tuple(v[i * g:(i + 1) * g] for i in range(h))), tuple(terms))
                 for v, terms in rows.items())


@functools.lru_cache(maxsize=64)
def _pair_terms(s1: BasisSymbol, s2: BasisSymbol, omega: PeriodMatrix, radius: int) -> dict:
    """The product of two symbols by the addition formula, with D points up to ``radius``:
    J' -> (coefficients over the characteristics of S, read-only, their certified error bound).

    The points are D = A - B + n, n the series kernel's kept points at level K
    (``evaluation._quadratic_form``, refused over the cube's cap).  Each D is binned by its
    characteristic of S, C = A - S^-1 M2 D (mod 1), found in integers (det S * C is integral),
    and weighted by e(D) = exp(pi i sigma(K D Omega D^t)); E = K D.  The coefficient of
    (S, J', C) is sum_q c_q (2 pi i)^|q| sum_{D in C} E^q e(D), with c_q from ``_expansion``;
    one bincount per monomial E^q gives the class sums.  Its bound is sum_q |c_q| err[|q|],
    err[d] bounding every class sum (2 pi)^d sum_{D in C} E^q e(D) with |q| = d: ``tail_bound``
    at level K, degree d and Z = W = 0 (shells and cut), plus twice the first-order roundoff of
    the P terms.  That proof holds with X* = 0, log scale 0 and D = n - delta, as delta = B - A
    lies in (-1, 1)^(hg): q(delta) <= alpha^2 = sum_ij |(K kron Im Omega)_ij|, |D|_inf >= s - 1
    on shell s, and |(K D)_ka| <= rho (s + 1), rho the row-sum norm of K.  The memo holds the
    coefficients, arrays the size of the characteristics, and not the D points.
    """
    m1, m2, a, b = s1.level, s2.level, s1.char.a, s2.char.a
    pair, degree = _level_pair(m1, m2), s1.j.size + s2.j.size
    h, g, hg = pair.h, omega.g, pair.h * omega.g
    n, form = _quadratic_form(pair, omega, radius)[:2]
    n = n.reshape(-1, h, g)
    diff = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    dt2 = pair.dt2.tolist()
    c0 = [[int(pair.det * a[i][c] - sum(dt2[i][l] * diff[l][c] for l in range(h))) for c in range(g)]
          for i in range(h)]
    keys = (np.array(c0, dtype=np.int64) - pair.dt2 @ n.astype(np.int64)) % pair.det
    rows, inverse = np.unique(keys.reshape(-1, hg), axis=0, return_inverse=True)
    # det S * C, flattened to integers, of each characteristic C of S -> its index
    codes = {tuple(int(pair.det * x) for row in char.a for x in row): char.index
             for char in enumerate_characteristics(pair.s, g)}
    cls = np.array([codes[tuple(row)] for row in rows.tolist()])[inverse.ravel()]
    d = (n + np.array(diff, dtype=float)).reshape(-1, hg)
    weights = np.exp(1j * np.pi * np.einsum("pi,ij,pj->p", d, form, d))
    e = (pair.k @ d.reshape(-1, h, g)).reshape(-1, hg) if degree else None
    # each term errs by at most eps * slack * (1 + pi |x|) relative, |x| <= |D|^t |K kron Omega| |D|,
    # and the sum of P terms adds P eps of their moduli
    slack = hg * hg + (h + 1) * degree + 8
    ad = np.abs(d)
    scale = np.abs(weights) * (len(d) + slack * (1.0 + np.pi * np.einsum("pi,ij,pj->p", ad, np.abs(form), ad)))
    e_sup = pair.row_sum_norm * ad.max(axis=1)
    err = [tail_bound(pair, omega, deg, 0.0, 0.0, radius)
           + 2.0 * sys.float_info.epsilon * (2.0 * np.pi) ** deg * float(scale @ e_sup ** deg)
           for deg in range(degree + 1)]
    sums, out = {}, {}
    for jp, monomials in _expansion(m1, m2, s1.j, s2.j):
        coef, bound = 0j, 0.0
        for q, c in monomials:
            if q not in sums:
                x = weights * np.prod(e ** np.array(q), axis=1) if any(q) else weights
                sums[q] = np.bincount(cls, x.real, len(codes)) + 1j * np.bincount(cls, x.imag, len(codes))
            coef = coef + float(c) * (2j * np.pi) ** sum(q) * sums[q]
            bound += abs(float(c)) * err[sum(q)]
        out[jp] = _read_only(coef), bound
    return out


def product_expand(s1, s2, omega: PeriodMatrix, cfg: FitConfig) -> Decomposition:
    """Expand a pointwise product of two single-level elements in the summed level.

    The theta addition formula: with S = M1 + M2, K = M1 S^-1 M2, X = U + S^-1 M2 D and
    Y = U - S^-1 M1 D, sigma(M1 X Omega X^t) + sigma(M2 Y Omega Y^t) = sigma(S U Omega U^t)
    + sigma(K D Omega D^t), and M1(Z+X), M2(Z+Y) are linear in V = S(Z+U) and E = K D.  So
    the product of two symbols is a combination of the symbols of S with degree at most
    |J1| + |J2|, whose coefficients are lattice sums over D = A - B + N (``_pair_terms``).
    No sample, design matrix or solve is made; ``cfg.seed`` is not read.  Coefficients
    at most PRUNE_EPS are dropped.  ``residual`` is the largest certified bound on the
    error of a coefficient, a dropped one's modulus included, and ``conditioning`` is 0.0.
    A residual above ``cfg.fit_tol``, or a non-finite coefficient or bound, raises
    ResidualTooLargeError.  A zero factor gives the zero product, with residual 0.0.
    """
    e1, e2 = _as_element(s1), _as_element(s2)
    if e1.is_zero() or e2.is_zero():
        return Decomposition(element=AlgebraElement.zero(), residual=0.0, conditioning=0.0)
    pair, _ = _product_levels(e1, e2, omega)
    chars = enumerate_characteristics(pair.s, omega.g)
    coeffs, bounds = {}, {}
    for t1, c1 in e1.sorted_terms():
        for t2, c2 in e2.sorted_terms():
            c = complex(c1) * complex(c2)
            degree = t1.j.size + t2.j.size
            # the radius rule at level K and Z = W = 0, the most over degrees <= |J1| + |J2|:
            # below a row-sum norm of 1/(4 pi), K's bound need not grow with the degree
            radius = max(_least_radius(pair, omega, d, 0.0, 0.0, TAIL_TARGET) for d in range(degree + 1))
            for jp, (coef, bound) in _pair_terms(t1, t2, omega, radius).items():
                coeffs[jp] = coeffs.get(jp, 0j) + c * coef
                bounds[jp] = bounds.get(jp, 0.0) + abs(c) * bound
    terms, residual = {}, 0.0
    for jp, coef in coeffs.items():
        if not (np.isfinite(coef).all() and math.isfinite(bounds[jp])):
            raise ResidualTooLargeError(f"coefficients or bound of J' = {jp} are not finite")
        keep = np.abs(coef) > PRUNE_EPS
        residual = max(residual, bounds[jp] + float(np.abs(coef[~keep]).max(initial=0.0)))
        terms.update((BasisSymbol(pair.s, jp, chars[i]), complex(coef[i])) for i in np.flatnonzero(keep))
    if not residual <= cfg.fit_tol:
        raise ResidualTooLargeError(f"coefficient bound {residual:.3e} exceeds fit_tol {cfg.fit_tol:.3e}")
    return Decomposition(element=AlgebraElement(terms), residual=residual, conditioning=0.0)


def _product_fit(s1, s2, omega: PeriodMatrix, cfg: FitConfig) -> Decomposition:
    """The product of two single-level elements by ``fit_in_basis`` on its sampled values:
    the oracle ``product_expand`` is checked against."""
    e1, e2 = _as_element(s1), _as_element(s2)
    pair, degree = _product_levels(e1, e2, omega)
    cfg1, cfg2 = (truncation_config(e.levels()[0], omega, SAMPLE_BOX, e.degree()) for e in (e1, e2))

    def f(z, w):
        return evaluate_element(e1, omega, z, w, cfg1).value * evaluate_element(e2, omega, z, w, cfg2).value

    return fit_in_basis(f, pair.s, degree, omega, cfg)


def _decompose_node(expr, omega, cfg, product=None) -> AlgebraElement:
    """Symbol-level decomposition, uncertified: each pairwise product by ``product``
    (``product_expand``, looked up per call so that a wrapper installed on the module is
    seen), the accumulated product pruned after each factor and the whole element pruned at
    the end, which drops the cancellation residue of sums of products."""
    product = product or product_expand

    def mul(parts):
        acc = parts[0]
        for nxt in parts[1:]:
            out = AlgebraElement.zero()
            for la in acc.levels():
                for lb in nxt.levels():
                    out = out + product(acc.level_component(la), nxt.level_component(lb), omega, cfg).element
            acc = out.prune()
        return acc

    def add(parts):
        return sum(parts, AlgebraElement.zero())

    return fold(expr, AlgebraElement.from_symbol, add, mul, operator.mul).prune()


def _concat(parts) -> list:
    return [x for part in parts for x in part]


def _worst(residuals) -> float:
    """The largest residual: 0.0 for none, NaN if any is NaN (a case passes only if r < tol)."""
    return float(np.max(residuals, initial=0.0))


def _mismatch(expr, elem: AlgebraElement, omega, z, w) -> np.ndarray:
    """|expression - element| at each point of the stacks z, w (S x h x g): the leaves
    read as their auxiliary series, one kernel call per (level, J) over its distinct
    characteristics, and each level component of the element by ``evaluate_element``, one
    call per (level, J) run, all at the sample box's radius.  At Z = 0 the auxiliary series
    of (M, J, A) is the W-derivative of order J of its theta series, so there the two sides
    are W-derivative polynomials of plain theta series, summed exactly."""
    groups = defaultdict(dict)  # (level, J) -> its distinct leaves, in the order first met
    for d in fold(expr, lambda d: [d], _concat, _concat, lambda _, leaves: leaves):
        groups[d.level, d.j][d] = None
    aux = {}
    for (level, j), leaves in groups.items():
        cfg_a = truncation_config(level, omega, SAMPLE_BOX, j.size)
        values = aux_theta_block(level, j, [d.char for d in leaves], omega, z, w, cfg_a)[0]
        aux.update(zip(leaves, values.T))
    lhs = fold(expr, aux.__getitem__, sum, math.prod, operator.mul)
    degree = elem.degree()
    rhs = sum(evaluate_element(elem.level_component(lvl), omega, z, w,
                               truncation_config(lvl, omega, SAMPLE_BOX, degree)).value
              for lvl in elem.levels())
    return np.abs(lhs - rhs)


def diff_poly_decompose(expr: DiffPolyExpr, omega: PeriodMatrix, cfg: FitConfig) -> Decomposition:
    """Rewrite a differential polynomial as one combination of basis symbols.

    Leaves map to their symbols, sums and scalings combine exactly, and each
    pairwise product is expanded by ``product_expand``.  The returned residual
    is an end-to-end certificate at ``cfg.holdout`` fresh W points and Z = 0:
    the largest |expression - combination|, both read as W-derivative
    polynomials of plain theta series, each derivative the auxiliary series at
    Z = 0 (``_mismatch``).  The residual is absolute and carries no roundoff
    allowance.  A certificate that is not finite raises ResidualTooLargeError.
    ``conditioning`` is 0.0: no fit is made.
    """
    h, g = expr_shape(expr)
    if g != omega.g:
        raise DimensionMismatchError("expression width does not match omega")
    element = _decompose_node(expr, omega, cfg)
    _, w_pts = _sample_points(cfg.seed, _STREAM_CERTIFY, cfg.holdout, h, g)
    residual = _worst(_mismatch(expr, element, omega, np.zeros_like(w_pts), w_pts))
    if not math.isfinite(residual):
        raise ResidualTooLargeError(f"certificate residual {residual} is not finite")
    return Decomposition(element=element, residual=residual, conditioning=0.0)


def verify_theorem3(expr: DiffPolyExpr, dec: Decomposition, omega: PeriodMatrix,
                    cfg: FitConfig) -> dict:
    """Independent checks that a decomposition represents its expression.

    Reports the largest mismatch between the expression and the decomposed
    element (``_mismatch``) on a stream of its own (a) at Z = 0, as W-derivative
    polynomials, (b) at sampled Z, as functions of (Z, W), and (c) the worst
    shift-law residual of the element's level components, certifying that the
    output transforms with the summed level.  (a) and (b) are one stack, Z = 0
    then the sampled Z at the same W; (c) is one stack per level component, the
    shifted and the base points of its four cases, set up by ``_point_config``
    from its own points at TAIL_TARGET.
    """
    h, g = expr_shape(expr)
    box = SAMPLE_BOX
    z_pts, w_pts = _sample_points(cfg.seed, _STREAM_VERIFY, cfg.holdout, h, g)
    stack_z, stack_w = np.concatenate((np.zeros_like(z_pts), z_pts)), np.concatenate((w_pts, w_pts))
    z0, sample = np.split(_mismatch(expr, dec.element, omega, stack_z, stack_w), 2)

    # shift-law residual of each level component of the output
    qp = []
    rng = _rng(cfg.seed, _STREAM_VERIFY_SHIFT)
    for lvl in dec.element.levels():
        comp = dec.element.level_component(lvl)

        def value(z, w, lvl=lvl, comp=comp):
            return evaluate_element(comp, omega, z, w, _point_config(lvl, omega, comp.degree(), z, w,
                                                                     TAIL_TARGET)).value

        cases = [(rng.uniform(-box, box, (h, g)) * (1 + 0j), _box_sample(rng, (h, g)),
                  rng.integers(-1, 2, (h, g)).astype(float), rng.integers(-1, 2, (h, g)).astype(float))
                 for _ in range(4)]
        qp.extend(shift_law_residual(value, lvl, omega, *map(np.array, zip(*cases))))

    return {
        "points": cfg.holdout,
        "max_z0_residual": _worst(z0),
        "max_sample_residual": _worst(sample),
        "max_quasiperiod_residual": _worst(qp),
    }
