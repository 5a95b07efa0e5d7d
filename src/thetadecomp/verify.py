"""Built-in verification suites over the desk-scale configurations.

Three suites back the command line and the acceptance tests:

* ``quasiperiodicity``: sampled residuals of the joint shift law and of the
  ladder identity for the shift operators, whose d/dW is the package's one
  finite difference,
* ``commutators``: exact bracket relations, ladder action and the
  kernel characterization of the derivative-free subalgebra,
* ``theorem3``: decomposition of a reference expression set, each with its
  propagated coefficient bound, checked against the exact W-derivatives at
  Z = 0 (the auxiliary series there), and agreement of its coefficients with
  a least-squares fit of the same products at a second seed.

Reports are plain dicts of JSON-serializable values; given a seed they are
deterministic down to the byte.
"""

from __future__ import annotations

import itertools
import math

from .algebra import (
    AlgebraElement,
    BasisSymbol,
    apply,
    in_theta_subalgebra,
    lowering_op,
    raising_op,
    scaling_op,
)
from .decompose import (
    _STREAM_KERNEL_SUITE,
    _STREAM_QP_SUITE,
    SAMPLE_BOX,
    DerivSymbol,
    FitConfig,
    Product,
    Scale,
    Sum,
    _box_sample,
    _decompose_node,
    _product_fit,
    _rng,
    _worst,
    diff_poly_decompose,
    verify_theorem3,
)
from .evaluation import quasi_period_residual, shift_operator_check, truncation_config
from .numerics import (
    MultiIndex,
    PeriodMatrix,
    _as_int,
    _as_tol,
    enumerate_characteristics,
    multi_indices_up_to,
    validate_level,
)

QP_TOL = 1e-8
QP_CASES = 100  # shift-law cases per configuration
SHIFT_TOL = 1e-6
SHIFT_CASES = 50  # ladder-identity cases per configuration
COMMUTATOR_MAX_ORDER = 3  # the bracket table covers every symbol with |J| <= 3
KERNEL_ELEMENTS = 200
THEOREM3_TOL = 1e-5
THEOREM3_SHIFT_TOL = 1e-6  # the output's shift law holds for any coefficients: roundoff only
THEOREM3_HOLDOUT = 20
UNIQUENESS_TOL = 1e-6

_SERIES_CONFIGS = (
    {"name": "h1_level2", "level": [[2]], "omega": [[1j]]},
    {"name": "h1_level4", "level": [[4]], "omega": [[1j]]},
    {"name": "h2_hex", "level": [[2, 1], [1, 2]], "omega": [[1j]]},
    {"name": "g2_level2", "level": [[2]], "omega": [[1j, 0.3j], [0.3j, 2j]]},
)


def _shift_box(omega: PeriodMatrix) -> float:
    """The box of a shift-law check: it covers Z + xi and W + xi*Omega + eta, |xi|, |eta| <= 1,
    xi*Omega moving an entry of Im W by at most the largest column sum of |Im Omega|."""
    return SAMPLE_BOX + float(abs(omega.omega.imag).sum(axis=0).max()) + 1.0


def run_quasiperiodicity_suite(seed: int = 0, tol: float = QP_TOL) -> dict:
    """Sampled residuals of the joint shift law and the raising identity."""
    configs_out = []
    passed = True
    for idx, spec_cfg in enumerate(_SERIES_CONFIGS):
        level = validate_level(spec_cfg["level"])
        omega = PeriodMatrix(spec_cfg["omega"])
        h, g = level.h, omega.g
        chars = enumerate_characteristics(level, g)
        js = multi_indices_up_to(h, g, 2)
        cfg = truncation_config(level, omega, _shift_box(omega), 3)  # degree 3: J raised once
        rng = _rng(seed, _STREAM_QP_SUITE + idx)

        qp = []  # (j, char, residual)
        for _ in range(QP_CASES):
            w = _box_sample(rng, (h, g))
            z = _box_sample(rng, (h, g))
            xi = rng.integers(-1, 2, (h, g)).astype(float)
            eta = rng.integers(-1, 2, (h, g)).astype(float)
            j = js[int(rng.integers(0, len(js)))]
            char = chars[int(rng.integers(0, len(chars)))]
            qp.append((j, char, quasi_period_residual(level, j, char, omega, z, w, xi, eta, cfg)))

        shift = []  # (j, k, a, residual)
        for _ in range(SHIFT_CASES):
            w = _box_sample(rng, (h, g))
            z = _box_sample(rng, (h, g))
            j = js[int(rng.integers(0, len(js)))]
            char = chars[int(rng.integers(0, len(chars)))]
            k = int(rng.integers(1, h + 1))
            a = int(rng.integers(1, g + 1))
            shift.append((j, k, a, shift_operator_check(level, j, char, omega, z, w, k, a, cfg)))

        # a case passes only when r < tol, which a NaN residual never is
        failures = [{"j": [list(row) for row in j.j], "char_index": char.index, "residual": r}
                    for j, char, r in qp if not r < tol]
        failures += [{"shift": [k, a], "j": [list(row) for row in j.j], "residual": r}
                     for j, k, a, r in shift if not r < SHIFT_TOL]
        ok = not failures
        passed = passed and ok
        configs_out.append(
            {
                "name": spec_cfg["name"],
                "cases": QP_CASES,
                "shift_cases": SHIFT_CASES,
                "max_residual": _worst([r for *_, r in qp]),
                "max_shift_residual": _worst([r for *_, r in shift]),
                "radius": cfg.radius,
                "passed": ok,
                "failures": failures,
            }
        )
    return {
        "suite": "quasiperiodicity",
        "tolerance": tol,
        "shift_tolerance": SHIFT_TOL,
        "passed": passed,
        "configs": configs_out,
    }


_ALGEBRA_CONFIGS = (
    ([[2]], 1), ([[2]], 2), ([[4]], 1), ([[4]], 2),
    ([[2, 1], [1, 2]], 1), ([[2, 1], [1, 2]], 2),
)


def run_commutator_suite(seed: int = 0) -> dict:
    """Exact bracket table, ladder action and the kernel characterization."""
    bracket_checks = 0
    bracket_violations = 0
    symbols_checked = 0
    zero = AlgebraElement.zero()
    for rows, g in _ALGEBRA_CONFIGS:
        level = validate_level(rows)
        h = level.h
        chars = enumerate_characteristics(level, g)
        scalings = [scaling_op(k, l) for k in range(1, h + 1) for l in range(1, h + 1)]
        lowerings = [lowering_op(m, a) for m in range(1, h + 1) for a in range(1, g + 1)]
        raisings = [raising_op(n, b) for n in range(1, h + 1) for b in range(1, g + 1)]
        ops = scalings + lowerings + raisings
        for j in multi_indices_up_to(h, g, COMMUTATOR_MAX_ORDER):
            for ch in chars:
                x = AlgebraElement.from_symbol(BasisSymbol(level, j, ch))
                symbols_checked += 1
                once = {op: apply(op, x) for op in ops}  # [A, B] x = A(B x) - B(A x)
                # every bracket is zero except [lower(m, a), raise(n, a)] = scale(m, n)
                for op1, op2 in itertools.combinations(ops, 2):
                    bracket_checks += 1
                    ladder = (op1.kind, op2.kind) == ("lower", "raise") and op1.j == op2.j
                    want = once[scaling_op(op1.i, op2.i)] if ladder else zero
                    if apply(op1, once[op2]) - apply(op2, once[op1]) != want:
                        bracket_violations += 1

    # kernel characterization: operator annihilation against the structural test
    rng = _rng(seed, _STREAM_KERNEL_SUITE)
    levels = [validate_level([[2]]), validate_level([[4]]), validate_level([[2, 1], [1, 2]])]
    # each level with its characteristics and its multi-indices |J| <= 2, at g = 1
    candidates = [(lv, enumerate_characteristics(lv, 1), multi_indices_up_to(lv.h, 1, 2)) for lv in levels]
    kernel_disagreements = 0
    for _ in range(KERNEL_ELEMENTS):
        level, chars, js = candidates[int(rng.integers(0, len(candidates)))]
        h = level.h
        terms = {}
        zero_only = bool(rng.integers(0, 2))
        for _ in range(int(rng.integers(1, 5))):
            j = MultiIndex.zeros(h, 1) if zero_only else js[int(rng.integers(0, len(js)))]
            sym = BasisSymbol(level, j, chars[int(rng.integers(0, len(chars)))])
            terms[sym] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        x = AlgebraElement(terms)
        structural = all(s.j.size == 0 for s in x.terms())
        if in_theta_subalgebra(x) != structural:
            kernel_disagreements += 1

    passed = bracket_violations == 0 and kernel_disagreements == 0
    return {
        "suite": "commutators",
        "passed": passed,
        "symbols_checked": symbols_checked,
        "bracket_checks": bracket_checks,
        "bracket_violations": bracket_violations,
        "kernel_elements": KERNEL_ELEMENTS,
        "kernel_disagreements": kernel_disagreements,
    }


def _theorem3_expressions():
    level = validate_level([[2]])
    chars = enumerate_characteristics(level, 1)
    d0 = DerivSymbol(level, MultiIndex.zeros(1, 1), chars[0])
    d0b = DerivSymbol(level, MultiIndex.zeros(1, 1), chars[1])
    d1 = DerivSymbol(level, MultiIndex.from_rows([[1]]), chars[0])
    d2 = DerivSymbol(level, MultiIndex.from_rows([[2]]), chars[0])
    prod01 = Product((d0, d1))
    return [
        ("single_j0", d0),
        ("single_j1", d1),
        ("single_j2", d2),
        ("theta_product", Product((d0, d0b))),
        ("wronskian", Sum((Product((d0, d2)), Scale(-1.0 + 0j, Product((d1, d1)))))),
        ("syntactic_zero", Sum((prod01, Scale(-1.0 + 0j, prod01)))),
    ]


def run_theorem3_suite(seed: int = 0, tol: float = THEOREM3_TOL) -> dict:
    """Decompose the reference expression set and certify it independently."""
    omega = PeriodMatrix([[1j]])
    cfg = FitConfig(seed=seed, holdout=THEOREM3_HOLDOUT)
    # the same products fitted to their sampled values at a second seed (a Python int), uncertified
    cfg2 = FitConfig(seed=_as_int(seed, "seed") + 1000003, holdout=THEOREM3_HOLDOUT)
    results = []
    passed = True
    for name, expr in _theorem3_expressions():
        dec = diff_poly_decompose(expr, omega, cfg)
        report = verify_theorem3(expr, dec, omega, cfg)
        one, two = dec.element.terms(), _decompose_node(expr, omega, cfg2, _product_fit)[0].terms()
        diffs = [abs(one.get(s, 0) - two.get(s, 0)) for s in set(one) | set(two)]
        # a NaN difference fails the case wherever the set yields it; else max keeps its type
        seed_diff = math.nan if any(d != d for d in diffs) else max(diffs, default=0.0)
        kernel_ok = in_theta_subalgebra(dec.element) == all(
            s.j.size == 0 for s in dec.element.terms()
        )
        ok = (
            dec.residual < tol
            and report["max_z0_residual"] < tol
            and report["max_quasiperiod_residual"] < THEOREM3_SHIFT_TOL
            and seed_diff < UNIQUENESS_TOL
            and kernel_ok
        )
        if name == "syntactic_zero":
            ok = ok and dec.element.is_zero()
        passed = passed and ok
        results.append(
            {
                "expression": name,
                "terms": len(dec.element),
                "residual": dec.residual,
                "conditioning": dec.conditioning,
                "max_z0_residual": report["max_z0_residual"],
                "max_sample_residual": report["max_sample_residual"],
                "max_quasiperiod_residual": report["max_quasiperiod_residual"],
                "seed_agreement": seed_diff,
                "passed": ok,
            }
        )
    return {
        "suite": "theorem3",
        "tolerance": tol,
        "uniqueness_tolerance": UNIQUENESS_TOL,
        "passed": passed,
        "expressions": results,
    }


SUITES = ("quasiperiodicity", "commutators", "theorem3")


def run_suite(name: str, seed: int = 0, tol: float | None = None) -> dict:
    """Run one named suite, or each of ``SUITES`` in turn for ``all``.

    ``seed`` is read as a Python int, the one the report holds.  ``tol``
    overrides the tolerance of the suites that have one and must be positive;
    the commutator checks are exact.
    """
    seed = _as_int(seed, "seed")
    if tol is not None:
        tol = _as_tol(tol, "tol")
    if name == "all":
        suites = [run_suite(one, seed, tol) for one in SUITES]
        return {"suite": "all", "seed": seed, "passed": all(s["passed"] for s in suites), "suites": suites}
    override = {"tol": tol} if tol is not None else {}
    if name == "quasiperiodicity":
        return run_quasiperiodicity_suite(seed, **override)
    if name == "commutators":
        return run_commutator_suite(seed)
    if name == "theorem3":
        return run_theorem3_suite(seed, **override)
    raise ValueError(f"unknown suite {name!r}")
