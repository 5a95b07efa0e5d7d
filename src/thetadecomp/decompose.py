"""Decomposition of differential polynomials into the canonical symbol basis.

The engine realizes the basis property numerically: any product or derivative
combination of theta series is sampled at random interior points and fitted
against the candidate symbols of the appropriate level by a dense
least-squares solve (orthogonal factorization via SVD), with the residual
measured on points held out of the solve.  Derivative checks always use
nested central differences of the plain theta series, never the fitted
values, so the certificates are independent of the solve.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
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
    TruncationConfig,
    aux_theta_series,
    choose_radius,
    theta_series,
    transformation_factor,
    wderiv_fd,
)
# the node classes stay importable from here
from .expr import DerivSymbol, DiffPolyExpr, Product, Scale, Sum, expr_shape, fold  # noqa: F401
from .numerics import (
    LevelMatrix,
    PeriodMatrix,
    enumerate_characteristics,
    multi_indices_up_to,
    validate_level,
)

TAIL_TARGET = 1e-12
COND_LIMIT = 1e8
_MASK64 = (1 << 64) - 1

# sample streams; labels keep the draws for different purposes independent
_STREAM_FIT = 0
_STREAM_CERTIFY = 1
_STREAM_VERIFY = 2


@dataclass(frozen=True)
class FitConfig:
    seed: int = 0
    oversample: float = 2.0
    sample_box: float = 0.4
    fit_tol: float = 1e-8
    holdout: int = 16

    def __post_init__(self):
        if self.oversample < 1:
            raise ValueError("oversample must be >= 1")
        if not self.fit_tol > 0:
            raise ValueError("fit_tol must be positive")
        if self.holdout < 1:
            raise ValueError("holdout must be a positive integer")


@dataclass
class Decomposition:
    element: AlgebraElement
    residual: float
    conditioning: float


def _rng(seed: int, label: int) -> np.random.Generator:
    # counter-based generator keyed by (seed, stream), deterministic by construction
    return np.random.Generator(np.random.Philox(key=(seed & _MASK64) + (label << 64)))


def _sample_points(seed: int, label: int, count: int, h: int, g: int, box: float):
    rng = _rng(seed, label)
    z = rng.uniform(-box, box, (count, h, g)) + 1j * rng.uniform(-box, box, (count, h, g))
    w = rng.uniform(-box, box, (count, h, g)) + 1j * rng.uniform(-box, box, (count, h, g))
    return z, w


def _eval_cfg(level: LevelMatrix, omega: PeriodMatrix, box: float, degree: int) -> TruncationConfig:
    radius = choose_radius(level, omega, box, TAIL_TARGET, degree)
    return TruncationConfig(radius=radius, tail_tol=TAIL_TARGET)


def candidate_basis(level: LevelMatrix, max_degree: int, omega: PeriodMatrix) -> list[BasisSymbol]:
    """Symbols of one level with |J| <= max_degree: graded-lexicographic J, then characteristic."""
    chars = enumerate_characteristics(level, omega.g)
    return [
        BasisSymbol(level, j, ch)
        for j in multi_indices_up_to(level.h, omega.g, max_degree)
        for ch in chars
    ]


def fit_in_basis(f: Callable, level: LevelMatrix, max_degree: int,
                 omega: PeriodMatrix, cfg: FitConfig) -> Decomposition:
    """Express a sampled function in the candidate basis of one level.

    ``f(z, w) -> complex`` must be deterministic and is assumed to lie in the
    span of the symbols with |J| <= max_degree.  Points are drawn uniformly
    from the sample box; the dense least-squares problem is solved by SVD,
    coefficients below 1e-12 are pruned, and the residual is the largest
    mismatch on ``cfg.holdout`` points not used in the solve.
    """
    h, g = level.h, omega.g
    basis = candidate_basis(level, max_degree, omega)
    n_fit = math.ceil(cfg.oversample * len(basis))
    total = n_fit + cfg.holdout
    eval_cfg = _eval_cfg(level, omega, cfg.sample_box, max_degree)

    conditioning = math.inf
    for seed in (cfg.seed, (cfg.seed + 1) & _MASK64):
        z_pts, w_pts = _sample_points(seed, _STREAM_FIT, total, h, g, cfg.sample_box)
        design = np.array(
            [
                [
                    aux_theta_series(s.level, s.j, s.char, omega, z_pts[i], w_pts[i], eval_cfg).value
                    for s in basis
                ]
                for i in range(total)
            ],
            dtype=complex,
        )
        rhs = np.array([f(z_pts[i], w_pts[i]) for i in range(total)], dtype=complex)
        coeffs, _, _, sv = np.linalg.lstsq(design[:n_fit], rhs[:n_fit], rcond=None)
        conditioning = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
        if conditioning <= COND_LIMIT:
            break
    else:
        raise IllConditionedError(
            f"sample matrix conditioning {conditioning:.3e} above {COND_LIMIT:.0e} after resampling"
        )

    keep = np.abs(coeffs) > PRUNE_EPS
    element = AlgebraElement(
        {s: complex(c) for s, c, k in zip(basis, coeffs, keep) if k}
    )
    pruned = np.where(keep, coeffs, 0.0)
    predicted = design[n_fit:] @ pruned
    residual = float(np.abs(rhs[n_fit:] - predicted).max()) if cfg.holdout else 0.0
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


def product_expand(s1, s2, omega: PeriodMatrix, cfg: FitConfig) -> Decomposition:
    """Expand a pointwise product of two single-level elements in the summed level.

    The product of functions obeying the two shift laws obeys the law of the
    entrywise sum of the levels, so the fit runs over that level's symbols
    with degree bounded by the sum of the factors' degrees.
    """
    e1, e2 = _as_element(s1), _as_element(s2)
    lv1, lv2 = e1.levels(), e2.levels()
    if len(lv1) != 1 or len(lv2) != 1:
        raise DimensionMismatchError("product factors must each carry a single level")
    lvl = level_sum(lv1[0], lv2[0])
    degree = e1.degree() + e2.degree()
    cfg1 = _eval_cfg(lv1[0], omega, cfg.sample_box, e1.degree())
    cfg2 = _eval_cfg(lv2[0], omega, cfg.sample_box, e2.degree())

    def f(z, w):
        return (
            evaluate_element(e1, omega, z, w, cfg1).value
            * evaluate_element(e2, omega, z, w, cfg2).value
        )

    return fit_in_basis(f, lvl, degree, omega, cfg)


def _decompose_node(expr, omega, cfg):
    """Symbol-level decomposition; returns (element, max conditioning)."""

    def leaf(d):
        return AlgebraElement.from_symbol(BasisSymbol(d.level, d.j, d.char)), 0.0

    def add(parts):
        return sum((e for e, _ in parts), AlgebraElement.zero()), max(c for _, c in parts)

    def mul(parts):
        acc, cond = parts[0]
        for nxt, c in parts[1:]:
            cond = max(cond, c)
            if acc.is_zero() or nxt.is_zero():
                acc = AlgebraElement.zero()
                continue
            out = AlgebraElement.zero()
            for la in acc.levels():
                for lb in nxt.levels():
                    d = product_expand(acc.level_component(la), nxt.level_component(lb), omega, cfg)
                    out = out + d.element
                    cond = max(cond, d.conditioning)
            acc = out.prune(PRUNE_EPS)
        return acc, cond

    return fold(expr, leaf, add, mul, lambda coeff, part: (coeff * part[0], part[1]))


def _cfg_memo(omega: PeriodMatrix) -> Callable:
    """``_eval_cfg`` memoised on (level, box, degree) for one call only.

    PeriodMatrix hashes by identity, so a memo kept for the whole process
    would hold every period matrix it was ever given.
    """
    return functools.cache(lambda level, box, degree: _eval_cfg(level, omega, box, degree))


def _max_keep_nan(acc: float, x: float) -> float:
    """``max(acc, x)`` for residuals, except that a NaN is kept, never dropped."""
    return x if x > acc or math.isnan(x) else acc


def _fd_mismatch(expr, elem: AlgebraElement, omega, w, cfg_of, box: float) -> float:
    """|expression - element| at W, with every leaf and every symbol taken as a
    W-derivative of its plain theta series, computed by finite differences."""

    def theta_deriv(level, j, char):
        cfg_t = cfg_of(level, box + 0.02, 0)
        return wderiv_fd(lambda ww: theta_series(level, char, omega, ww, cfg_t).value, w, j)

    lhs = fold(expr, lambda d: theta_deriv(d.level, d.j, d.char), sum, math.prod, operator.mul)
    rhs = sum(complex(c) * theta_deriv(s.level, s.j, s.char) for s, c in elem.sorted_terms())
    return abs(lhs - rhs)


def _expr_aux_value(expr, omega, z, w, cfg_of, box: float) -> complex:
    """Value of the expression at (Z, W) with every leaf read as its auxiliary series."""

    def leaf(d):
        cfg_a = cfg_of(d.level, box, d.j.size)
        return aux_theta_series(d.level, d.j, d.char, omega, z, w, cfg_a).value

    return fold(expr, leaf, sum, math.prod, operator.mul)


def diff_poly_decompose(expr: DiffPolyExpr, omega: PeriodMatrix, cfg: FitConfig) -> Decomposition:
    """Rewrite a differential polynomial as one combination of basis symbols.

    Leaves map to their symbols, sums and scalings combine exactly, and each
    pairwise product is expanded by a certified fit.  The returned residual
    is an end-to-end certificate at ``cfg.holdout`` fresh W points: the
    expression and the returned combination are both evaluated as
    W-derivative polynomials of plain theta series by finite differences and
    compared.  A certificate that is not finite raises ResidualTooLargeError.
    """
    h, g = expr_shape(expr)
    if g != omega.g:
        raise DimensionMismatchError("expression width does not match omega")
    element, conditioning = _decompose_node(expr, omega, cfg)
    if conditioning > 0:
        # at least one product was fitted numerically: combinations of fitted
        # blocks can leave cancellation residue below the noise floor
        element = element.prune(PRUNE_EPS)

    _, w_pts = _sample_points(cfg.seed, _STREAM_CERTIFY, cfg.holdout, h, g, cfg.sample_box)
    cfg_of = _cfg_memo(omega)
    residual = 0.0
    for i in range(cfg.holdout):
        residual = _max_keep_nan(
            residual, _fd_mismatch(expr, element, omega, w_pts[i], cfg_of, cfg.sample_box)
        )
    if not math.isfinite(residual):
        raise ResidualTooLargeError(f"certificate residual {residual} is not finite")
    return Decomposition(element=element, residual=residual, conditioning=conditioning)


def verify_theorem3(expr: DiffPolyExpr, dec: Decomposition, omega: PeriodMatrix,
                    cfg: FitConfig) -> dict:
    """Independent checks that a decomposition represents its expression.

    Reports the largest mismatch between the expression and the decomposed
    element (a) as W-derivative polynomials at Z = 0 via finite differences,
    (b) as sampled functions of (Z, W), and (c) the worst shift-law residual
    of the element's level components, certifying that the output transforms
    with the summed level.
    """
    h, g = expr_shape(expr)
    n, box = cfg.holdout, cfg.sample_box
    z_pts, w_pts = _sample_points(cfg.seed, _STREAM_VERIFY, n, h, g, box)
    cfg_of = _cfg_memo(omega)
    degree = dec.element.degree()

    max_z0 = 0.0
    max_sample = 0.0
    for i in range(n):
        z, w = z_pts[i], w_pts[i]
        max_z0 = _max_keep_nan(max_z0, _fd_mismatch(expr, dec.element, omega, w, cfg_of, box))
        lhs = _expr_aux_value(expr, omega, z, w, cfg_of, box)
        rhs = sum(
            evaluate_element(
                dec.element.level_component(lvl), omega, z, w, cfg_of(lvl, box, degree)
            ).value
            for lvl in dec.element.levels()
        )
        max_sample = _max_keep_nan(max_sample, abs(lhs - rhs))

    # shift-law residual of each level component of the output
    im_reach = float(np.abs(omega.omega.imag).sum(axis=0).max())
    max_qp = 0.0
    rng = _rng(cfg.seed, _STREAM_VERIFY + 16)
    for lvl in dec.element.levels():
        comp = dec.element.level_component(lvl)
        qp_cfg = cfg_of(lvl, box + im_reach + 1.0, comp.degree())
        for _ in range(4):
            z = rng.uniform(-box, box, (h, g)) * (1 + 0j)
            w = rng.uniform(-box, box, (h, g)) + 1j * rng.uniform(-box, box, (h, g))
            xi = rng.integers(-1, 2, (h, g)).astype(float)
            eta = rng.integers(-1, 2, (h, g)).astype(float)
            shifted = evaluate_element(
                comp, omega, z + xi, w + xi @ omega.omega + eta, qp_cfg
            ).value
            factor = transformation_factor(lvl, omega, w, xi)
            base = evaluate_element(comp, omega, z, w, qp_cfg).value
            max_qp = _max_keep_nan(max_qp, abs(shifted - factor * base) / max(1.0, abs(factor)))

    return {
        "points": n,
        "max_z0_residual": max_z0,
        "max_sample_residual": max_sample,
        "max_quasiperiod_residual": max_qp,
    }
