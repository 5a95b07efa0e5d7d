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
import itertools
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
    TAIL_TARGET,  # noqa: F401  (stays importable from here)
    aux_theta_block,
    shift_law_residual,
    truncation_config,
    wderiv_fd,
)
# the node classes stay importable from here
from .expr import DerivSymbol, DiffPolyExpr, Product, Scale, Sum, expr_shape, fold  # noqa: F401
from .numerics import (
    LevelMatrix,
    MultiIndex,
    PeriodMatrix,
    enumerate_characteristics,
    multi_indices_up_to,
    validate_level,
)

COND_LIMIT = 1e8
SAMPLE_BOX = 0.4  # sample points have every real and imaginary part in [-SAMPLE_BOX, SAMPLE_BOX]
CERTIFY_BOX = SAMPLE_BOX + 0.02  # margin for the fd stencil, which moves Re W by at most 1e-3
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
        if not self.fit_tol > 0:
            raise ValueError("fit_tol must be positive")
        if self.holdout < 1:
            raise ValueError("holdout must be a positive integer")


@dataclass
class Decomposition:
    element: AlgebraElement
    residual: float
    conditioning: float


def _shift_box(omega: PeriodMatrix) -> float:
    """The box of a shift-law check: it covers Z + xi and W + xi*Omega + eta, |xi|, |eta| <= 1."""
    return SAMPLE_BOX + omega.im_reach + 1.0


def _rng(seed: int, label: int) -> np.random.Generator:
    # counter-based generator keyed by (seed, stream), deterministic by construction
    return np.random.Generator(np.random.Philox(key=(seed & _MASK64) + (label << 64)))


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
    js = multi_indices_up_to(h, g, max_degree)
    chars = enumerate_characteristics(level, g)
    n_fit = math.ceil(OVERSAMPLE * len(js) * len(chars))
    total = n_fit + cfg.holdout
    eval_cfg = truncation_config(level, omega, SAMPLE_BOX, max_degree)

    conditioning = math.inf
    for seed in (cfg.seed, (cfg.seed + 1) & _MASK64):
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
    cfg1 = truncation_config(lv1[0], omega, SAMPLE_BOX, e1.degree())
    cfg2 = truncation_config(lv2[0], omega, SAMPLE_BOX, e2.degree())

    def f(z, w):
        return (
            evaluate_element(e1, omega, z, w, cfg1).value
            * evaluate_element(e2, omega, z, w, cfg2).value
        )

    return fit_in_basis(f, lvl, degree, omega, cfg)


def _decompose_node(expr, omega, cfg):
    """Symbol-level decomposition, uncertified; returns (element, max conditioning)."""

    def leaf(sym):
        return AlgebraElement.from_symbol(sym), 0.0

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
            acc = out.prune()
        return acc, cond

    element, cond = fold(expr, leaf, add, mul, lambda coeff, part: (coeff * part[0], part[1]))
    # once a product was fitted numerically, combinations of fitted blocks can
    # leave cancellation residue below the noise floor
    return (element.prune() if cond > 0 else element), cond


def _worst(residuals) -> float:
    """The largest residual: 0.0 for none, NaN if any is NaN (a case passes only if r < tol)."""
    return float(np.max(residuals, initial=0.0))


def _fd_mismatch(expr, elem: AlgebraElement, omega, w) -> np.ndarray:
    """|expression - element| at each W of the stack w (S x h x g), every leaf and symbol
    read as a W-derivative of its plain theta series by finite differences, taken once
    per distinct symbol: one kernel call on the stencils of all S points."""

    @functools.cache
    def theta_deriv(sym):
        cfg_t = truncation_config(sym.level, omega, CERTIFY_BOX, 0)
        j0 = MultiIndex.zeros(sym.h, sym.g)
        return wderiv_fd(lambda ww: aux_theta_block(sym.level, j0, [sym.char], omega, np.zeros_like(ww),
                                                    ww, cfg_t)[0][:, 0], w, sym.j)

    lhs = fold(expr, theta_deriv, sum, math.prod, operator.mul)
    rhs = sum(complex(c) * theta_deriv(s) for s, c in elem.sorted_terms())
    return np.abs(lhs - rhs)


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
    _, w_pts = _sample_points(cfg.seed, _STREAM_CERTIFY, cfg.holdout, h, g)
    residual = _worst(_fd_mismatch(expr, element, omega, w_pts))
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
    box = SAMPLE_BOX
    z_pts, w_pts = _sample_points(cfg.seed, _STREAM_VERIFY, cfg.holdout, h, g)
    degree = dec.element.degree()
    components = [(lvl, dec.element.level_component(lvl)) for lvl in dec.element.levels()]

    @functools.cache
    def aux(d):  # a leaf read as its auxiliary series
        cfg_a = truncation_config(d.level, omega, box, d.j.size)
        return aux_theta_block(d.level, d.j, [d.char], omega, z_pts, w_pts, cfg_a)[0][:, 0]

    z0 = _fd_mismatch(expr, dec.element, omega, w_pts)
    lhs = fold(expr, aux, sum, math.prod, operator.mul)
    rhs = sum(
        evaluate_element(comp, omega, z_pts, w_pts, truncation_config(lvl, omega, box, degree)).value
        for lvl, comp in components
    )
    sample = np.abs(lhs - rhs)

    # shift-law residual of each level component of the output
    qp = []
    rng = _rng(cfg.seed, _STREAM_VERIFY_SHIFT)
    for lvl, comp in components:
        qp_cfg = truncation_config(lvl, omega, _shift_box(omega), comp.degree())

        def value(z, w, comp=comp, qp_cfg=qp_cfg):
            return evaluate_element(comp, omega, z, w, qp_cfg).value

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
