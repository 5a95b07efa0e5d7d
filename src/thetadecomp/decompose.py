"""Decomposition of differential polynomials into the canonical symbol basis.

A product of two series is expanded exactly by the theta addition formula:
each coefficient in the summed level is a lattice sum of theta constants of
K = M1 (M1 + M2)^-1 M2 with a certified tail (see ``product_expand``).
``fit_in_basis`` expresses any sampled function by a dense least-squares
solve (orthogonal factorization via SVD), with the residual measured on
points held out of the solve; it is the oracle the formula is tested
against.  ``diff_poly_decompose`` certifies each coefficient by an error
bound propagated through the expression tree, from the formula's certified
bounds, the roundoff of the tree's arithmetic and what it prunes; it
samples nothing.  ``verify_theorem3`` is the independent, sampled check: it
never reads the expanded coefficients' lattice sums, but compares the
expression, each leaf read as its own auxiliary series, with the element
summed symbol by symbol by the series kernel.  At Z = 0 the auxiliary series
is the exact W-derivative of the theta series, with the kernel's certified
tail, so no numerical derivative enters it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .algebra import (
    PRUNE_EPS,
    AlgebraElement,
    BasisSymbol,
    _symbol,
    evaluate_element,
)
from . import evaluation
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
    Characteristic,
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
_EPS = np.finfo(float).eps

# sample streams; labels keep the draws for different purposes independent (1 is retired)
_STREAM_FIT = 0
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
    bounds: dict | None = None  # symbol -> certified bound on its coefficient's error, where propagated


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


def _product_levels(f1, f2, omega: PeriodMatrix):
    """The level pair of a product of two single-level factors, given by their symbols, and its
    degree bound."""
    lv1, lv2 = ({s.level for s in f} for f in (f1, f2))
    if len(lv1) != 1 or len(lv2) != 1:
        raise DimensionMismatchError("product factors must each carry a single level")
    if any(s.g != omega.g for f in (f1, f2) for s in f):
        raise DimensionMismatchError("product factors do not match the width of omega")
    return _level_pair(*lv1, *lv2), max(s.j.size for s in f1) + max(s.j.size for s in f2)


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

    The D sum is the series kernel's (``evaluation._aux_value``) at level K, Z = W = 0 and
    peak 0, its one characteristic the offset delta = A - B centred into [-1/2, 1/2]^(hg)
    exactly, which it then does not shift: D = delta + n over its kept points n, each sum split
    by the class of S of each D, C = A - S^-1 M2 D (mod 1), found in integers (det S * C is
    integral).  At J = q, one call per distinct q, it gives (2 pi i)^|q| sum_{D in C} E^q e(D),
    E = K D, e(D) = exp(pi i sigma(K D Omega D^t)); the coefficient of (S, J', C) is sum_q c_q
    times that, c_q from ``_expansion``, and its bound sum_q |c_q| err[|q|].  err[d] bounds
    every class sum at |q| = d: ``tail_bound`` at level K, degree d, Z = W = 0 (X* = 0, log
    scale 0), plus twice the first-order roundoff of the P terms t = (2 pi i)^d e(D) prod_d
    ((K n)_ka + (K delta)_ka), each factor at most e = rho |D|_inf, rho the row-sum norm of K.
    With y = |n| + |delta|, the exponent n^t Q n + 2 delta^t Q n + delta^t Q delta, Q = K kron
    Omega, errs by at most (hg^2 + 8) eps y^t |Q| y, the exp, products and (2 pi i)^d by (d + 8)
    eps relative, and each factor, K and delta being rounded, by (h + 2) eps rho |y|_inf.  So t
    errs by eps (2 pi)^d |e(D)| ((hg^2 + d + 8)(1 + pi y^t |Q| y) e^d + d (h + 2) rho |y|_inf
    e^(d-1)) at most, and the sum adds P eps (2 pi e)^d |e(D)|, |e(D)| the kernel's own term at
    q = 0, one class per point.  The memo holds the coefficients, not the D points.
    """
    m1, m2, a, b = s1.level, s2.level, s1.char.a, s2.char.a
    pair, degree = _level_pair(m1, m2), s1.j.size + s2.j.size
    h, g, hg, rho = pair.h, omega.g, pair.h * omega.g, pair.row_sum_norm
    n, form = _quadratic_form(pair, omega, radius)[:2]
    delta = tuple(tuple(x - y - round(x - y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
    dt2 = pair.dt2.tolist()
    c0 = [[int(pair.det * a[i][c] - sum(dt2[i][l] * delta[l][c] for l in range(h))) for c in range(g)]
          for i in range(h)]
    keys = (np.array(c0, dtype=np.int64) - pair.dt2 @ n.reshape(-1, h, g).astype(np.int64)) % pair.det
    rows, inverse = np.unique(keys.reshape(-1, hg), axis=0, return_inverse=True)
    # det S * C, flattened to integers, of each characteristic C of S -> its index
    codes = {tuple(int(pair.det * x) for row in char.a for x in row): char.index
             for char in enumerate_characteristics(pair.s, g)}
    cls = np.array([codes[tuple(row)] for row in rows.tolist()])[inverse.ravel()]
    offset, zero = Characteristic(pair, delta, 0), np.zeros((h, g))

    def kernel(q, split):
        j = MultiIndex(tuple(q[i * g:(i + 1) * g] for i in range(h)))
        return evaluation._aux_value(pair, j, [offset], omega, zero, zero, radius, zero, -math.inf, split)

    q0 = (0,) * hg
    terms = kernel(q0, (np.arange(len(n)), len(n)))  # the q = 0 terms, one class per point
    moduli = np.abs(terms)
    y, e_sup = np.abs(n) + np.abs(offset.as_array().ravel()), rho * np.abs(n + offset.as_array().ravel()).max(axis=1)
    scale = moduli * (len(n) + (hg * hg + degree + 8) * (1.0 + np.pi * np.einsum("pi,ij,pj->p", y, np.abs(form), y)))
    factor = moduli * (h + 2) * rho * y.max(axis=1)
    err = [tail_bound(pair, omega, d, 0.0, 0.0, radius) + 2.0 * _EPS * (2.0 * np.pi) ** d
           * float(scale @ e_sup ** d + d * (factor @ e_sup ** max(d - 1, 0))) for d in range(degree + 1)]
    expansion = _expansion(m1, m2, s1.j, s2.j)
    distinct = {q for _, monomials in expansion for q, _ in monomials}
    sums = {q: kernel(q, (cls, len(codes))) for q in distinct - {q0}}
    if q0 in distinct:  # the kernel's split sum of the same terms, in P order
        sums[q0] = np.zeros(len(codes), dtype=complex)
        np.add.at(sums[q0], cls, terms)
    return {jp: (_read_only(np.array([float(c) for _, c in monomials]) @ np.array([sums[q] for q, _ in monomials])),
                 sum(abs(float(c)) * err[sum(q)] for q, c in monomials)) for jp, monomials in expansion}


def _expand(pair: _LevelPair, x, y, omega: PeriodMatrix):
    """The product of two factors of the level pair's levels, each a list of (symbol,
    coefficient, bound) in sorted order, by the addition formula: its element, its bounds and
    the formula's own bound.

    Bounds map a symbol to a certified bound on the error of its coefficient, a pruned
    symbol's included; a symbol with no entry is exact.  With a, b the factors' coefficients,
    da, db their bounds, and T, e a symbol pair's coefficients and bound from ``_pair_terms``,
    a coefficient's bound is the sum over the pairs of |a b| e + (da |b| + |a| db + da db)
    (|T| + e), plus (pairs + 3) eps |a b T| for the roundoff of forming and adding the pairs'
    terms (none for one pair of unit coefficients, which is exact), plus the modulus of a
    coefficient pruned at PRUNE_EPS.  The formula's own bound is the largest of the terms
    |a b| e and the pruned moduli alone, what the product errs by with exact factors and exact
    arithmetic on their coefficients.  A non-finite coefficient or bound raises
    ResidualTooLargeError.
    """
    unit = len(x) == len(y) == 1 and x[0][1] == y[0][1] == 1
    rnd = 0.0 if unit else (len(x) * len(y) + 3) * _EPS
    coeffs, own, spread = {}, {}, {}
    for t1, c1, d1 in x:
        for t2, c2, d2 in y:
            c = complex(c1) * complex(c2)
            degree = t1.j.size + t2.j.size
            # the radius rule at level K and Z = W = 0, the most over degrees <= |J1| + |J2|:
            # below a row-sum norm of 1/(4 pi), K's bound need not grow with the degree
            radius = max(_least_radius(pair, omega, d, 0.0, 0.0, TAIL_TARGET) for d in range(degree + 1))
            mixed = d1 * abs(c2) + abs(c1) * d2 + d1 * d2
            for jp, (coef, bound) in _pair_terms(t1, t2, omega, radius).items():
                coeffs[jp] = coeffs.get(jp, 0j) + c * coef
                own[jp] = own.get(jp, 0.0) + abs(c) * bound
                if mixed or rnd:
                    spread[jp] = spread.get(jp, 0.0) + (mixed + rnd * abs(c)) * np.abs(coef) + mixed * bound
    chars = enumerate_characteristics(pair.s, omega.g)
    terms, out, worst = {}, {}, 0.0
    for jp, coef in coeffs.items():
        moduli = np.abs(coef)
        keep = moduli > PRUNE_EPS
        formula = own[jp] + np.where(keep, 0.0, moduli)
        bound = formula + spread.get(jp, 0.0)
        if not (np.isfinite(coef).all() and np.isfinite(bound).all()):
            raise ResidualTooLargeError(f"coefficients or bound of J' = {jp} are not finite")
        worst = max(worst, float(formula.max()))
        for char, c, b, k in zip(chars, coef.tolist(), bound.tolist(), keep.tolist()):
            sym = _symbol(pair.s, jp, char)
            out[sym] = b
            if k:
                terms[sym] = c
    return AlgebraElement(terms), out, worst


def product_expand(s1, s2, omega: PeriodMatrix, cfg: FitConfig, bounds=None) -> Decomposition:
    """Expand a pointwise product of two single-level elements in the summed level.

    The theta addition formula: with S = M1 + M2, K = M1 S^-1 M2, X = U + S^-1 M2 D and
    Y = U - S^-1 M1 D, sigma(M1 X Omega X^t) + sigma(M2 Y Omega Y^t) = sigma(S U Omega U^t)
    + sigma(K D Omega D^t), and M1(Z+X), M2(Z+Y) are linear in V = S(Z+U) and E = K D.  So
    the product of two symbols is a combination of the symbols of S with degree at most
    |J1| + |J2|, whose coefficients are lattice sums over D = A - B + N (``_pair_terms``).
    No sample, design matrix or solve is made; ``cfg.seed`` is not read.  Coefficients
    at most PRUNE_EPS are dropped.  ``bounds``, if given, is a pair of symbol -> bound maps
    on the errors of the factors' coefficients, a symbol with a bound but no term being a
    coefficient 0 (``_decompose_node`` passes them); the factors are exact otherwise.  The
    result's ``bounds`` maps each symbol of the product to a certified bound on the error of
    its coefficient (``_expand``): a dropped one's modulus included, and for factors of
    several terms the roundoff of combining their pairs; ``residual`` is the largest, and
    ``conditioning`` is 0.0.  The formula's own bound above ``cfg.fit_tol`` (the largest
    with exact factors, leaving out that roundoff), or a non-finite coefficient or bound,
    raises ResidualTooLargeError.  A zero factor gives the zero product, with residual 0.0.
    """
    x, y = (_factor(_as_element(s), b) for s, b in zip((s1, s2), bounds or ({}, {})))
    if not (x and y):
        return Decomposition(element=AlgebraElement.zero(), residual=0.0, conditioning=0.0, bounds={})
    pair, _ = _product_levels(*([s for s, _, _ in f] for f in (x, y)), omega)
    element, out, formula = _expand(pair, x, y, omega)
    if not formula <= cfg.fit_tol:
        raise ResidualTooLargeError(f"coefficient bound {formula:.3e} exceeds fit_tol {cfg.fit_tol:.3e}")
    return Decomposition(element=element, residual=max(out.values()), conditioning=0.0, bounds=out)


def _product_fit(s1, s2, omega: PeriodMatrix, cfg: FitConfig, bounds=None) -> Decomposition:
    """The product of two single-level elements by ``fit_in_basis`` on its sampled values:
    the oracle ``product_expand`` is checked against, and like it zero for a zero factor.
    It takes ``product_expand``'s arguments but propagates no ``bounds``."""
    e1, e2 = _as_element(s1), _as_element(s2)
    if e1.is_zero() or e2.is_zero():
        return Decomposition(element=AlgebraElement.zero(), residual=0.0, conditioning=0.0)
    pair, degree = _product_levels(e1.terms(), e2.terms(), omega)
    cfg1, cfg2 = (truncation_config(e.levels()[0], omega, SAMPLE_BOX, e.degree()) for e in (e1, e2))

    def f(z, w):
        return evaluate_element(e1, omega, z, w, cfg1).value * evaluate_element(e2, omega, z, w, cfg2).value

    return fit_in_basis(f, pair.s, degree, omega, cfg)


def _decompose_node(expr, omega, cfg, product=None):
    """The element of an expression and the bounds on its coefficients' errors, propagated
    through the tree as symbol -> bound maps: a leaf is exact, a sum adds its children's
    bounds, a scaling by c multiplies them by |c|, each pairwise product of level components
    is ``product_expand``'s with its factors' bounds, and a prune adds the modulus it drops.
    Sums and scalings add the roundoff of their own arithmetic: (n - 1) eps of each child's
    coefficient moduli for a sum of n children (the products of a factor's level pairs are
    summed so too), 2 eps of each scaled coefficient.  The accumulated product is pruned
    after each factor and the whole element at the end, which drops the cancellation residue
    of sums of products.  ``product`` is looked up per call, so that a wrapper installed on
    the module is seen; with ``_product_fit`` (the seed-agreement oracle) each pairwise
    product is fitted and the bounds are None."""
    fitted, product = product is not None, product or product_expand

    def mul(parts):
        (acc, da), rest = parts[0], parts[1:]
        for nxt, db in rest:
            decs = [product(ea, eb, omega, cfg, (ba, bb))
                    for ea, ba in _components(acc, da) for eb, bb in _components(nxt, db)]
            acc, da = _prune(*add([(dec.element, dec.bounds or {}) for dec in decs]))
        return acc, da

    def add(parts):
        # past the first, each addition errs by at most eps/2 of a partial sum, which is at
        # most the sum of the children's moduli
        rnd = [((len(parts) - 1) * _EPS, _moduli(e)) for e, _ in parts] if len(parts) > 1 else []
        return sum((e for e, _ in parts), AlgebraElement.zero()), _combine(*((1.0, b) for _, b in parts), *rnd)

    def scale(c, part):
        element = c * part[0]
        return element, _combine((abs(c), part[1]), (2.0 * _EPS, _moduli(element)))

    element, bounds = _prune(*fold(expr, lambda d: (AlgebraElement.from_symbol(d), {}), add, mul, scale))
    return element, None if fitted else bounds


def _combine(*parts) -> dict:
    """The sum of weight * bounds over (weight, bounds) pairs, symbol by symbol."""
    out = {}
    for weight, bounds in parts:
        for sym, b in bounds.items():
            out[sym] = out.get(sym, 0.0) + weight * b
    return out


def _moduli(element: AlgebraElement) -> dict:
    """|coefficient| of each term, as a symbol -> bound map."""
    return {s: abs(c) for s, c in element.items()}


def _prune(element: AlgebraElement, bounds: dict):
    """``element.prune()``, and the bounds with each dropped coefficient's modulus added."""
    dropped = {s: abs(c) for s, c in element.items() if abs(c) <= PRUNE_EPS}
    return element.prune(), _combine((1.0, bounds), (1.0, dropped)) if dropped else bounds


def _components(element: AlgebraElement, bounds: dict) -> list:
    """(level component, its bounds) per level: the levels of the element's terms, then those
    where a pruned or cancelled coefficient left only a non-zero bound.  A zero bound (of a
    zero scaling, say) makes no level."""
    levels = element.levels()
    levels += [lv for lv in dict.fromkeys(s.level for s, b in bounds.items() if b) if lv not in levels]
    return [(element.level_component(lv), {s: b for s, b in bounds.items() if s.level == lv}) for lv in levels]


def _factor(element: AlgebraElement, bounds: dict) -> list:
    """A factor as (symbol, coefficient, bound) in sorted order: its terms, and the symbols
    that carry a non-zero bound but no coefficient, with coefficient 0."""
    coeffs = {s: 0.0 for s, b in bounds.items() if b}
    coeffs.update(element.items())
    return [(s, c, bounds.get(s, 0.0)) for s, c in sorted(coeffs.items(), key=lambda kv: kv[0].sort_key())]


def _concat(parts) -> list:
    return [x for part in parts for x in part]


def _worst(residuals) -> float:
    """The largest residual: 0.0 for none, NaN if any is NaN (a case passes only if r < tol)."""
    return float(np.max(residuals, initial=0.0))


def _mismatch(expr, elem: AlgebraElement, omega, z, w) -> np.ndarray:
    """|expression - element| at each point of the stacks z, w (S x h x g), the sampled check
    of ``verify_theorem3``: the leaves read as their auxiliary series, one kernel call per
    (level, J) over its distinct characteristics, and each level component of the element by
    ``evaluate_element``, one call per (level, J) run, all at the sample box's radius.  At Z = 0
    the auxiliary series of (M, J, A) is the W-derivative of order J of its theta series, so
    there the two sides are W-derivative polynomials of plain theta series, summed exactly."""
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

    Leaves map to their symbols, sums and scalings combine coefficientwise, and
    each pairwise product is expanded by the addition formula (``product_expand``,
    which raises when the formula's own bound exceeds ``cfg.fit_tol``).  ``bounds``
    maps each symbol to a certified bound on the error of its coefficient,
    propagated through the tree with the roundoff of its arithmetic and the moduli
    it prunes (``_decompose_node``), and the residual is the largest: 0.0 for a
    leaf, exactly ``product_expand``'s residual for a product of two leaves.  It is
    reported, not gated, as it scales with the coefficients; one that is not finite
    raises ResidualTooLargeError.  No series is sampled; ``verify_theorem3`` is the
    sampled check.  ``conditioning`` is 0.0: no fit is made.
    """
    if expr_shape(expr)[1] != omega.g:
        raise DimensionMismatchError("expression width does not match omega")
    element, bounds = _decompose_node(expr, omega, cfg)
    residual = _worst(list(bounds.values()))
    if not math.isfinite(residual):
        raise ResidualTooLargeError(f"coefficient bound {residual} is not finite")
    return Decomposition(element=element, residual=residual, conditioning=0.0, bounds=bounds)


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
