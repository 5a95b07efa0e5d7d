"""Command-line interface: evaluate, enumerate, decompose, verify.

All input and output is JSON.  Complex numbers are [re, im] pairs, complex
matrices row-major arrays of such pairs, rationals {"num", "den"} objects.
Exit codes: 0 ok, 1 verification failure; the error codes 2-5 (validation,
truncation insufficient, residual too large or ill-conditioned, level-sum
invalid) come from ``EXIT_CODES``, their one source.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .decompose import FitConfig, diff_poly_decompose, verify_theorem3
from .errors import (
    IllConditionedError,
    LevelSumInvalidError,
    ResidualTooLargeError,
    ThetaError,
    TruncationInsufficientError,
)
from .evaluation import TruncationConfig, aux_theta_series, choose_radius, theta_series
from .numerics import (
    MultiIndex,
    PeriodMatrix,
    enumerate_characteristics,
    validate_level,
)
from .serialization import (
    characteristic_to_json,
    complex_matrix_from_json,
    complex_to_json,
    decomposition_to_json,
    expr_from_json,
)
from .verify import run_suite

# exception -> exit code; subclasses come before their bases, the first match wins
EXIT_CODES: tuple[tuple[type[Exception], int], ...] = (
    (LevelSumInvalidError, 5),
    (ResidualTooLargeError, 4),
    (IllConditionedError, 4),
    (TruncationInsufficientError, 3),
    (ThetaError, 2),
    (ValueError, 2),
    (TypeError, 2),
    (KeyError, 2),
    (OSError, 2),
)


def _emit(payload, out_path):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_omega(text) -> PeriodMatrix:
    rows = json.loads(text)
    return PeriodMatrix(complex_matrix_from_json(rows))


def _parse_complex_matrix(text, h, g):
    rows = complex_matrix_from_json(json.loads(text))
    arr = np.array(rows, dtype=complex)
    if arr.shape != (h, g):
        raise ValueError(f"expected a {h}x{g} complex matrix, got shape {arr.shape}")
    return arr


def cmd_characteristics(args) -> int:
    level = validate_level(json.loads(args.level))
    chars = enumerate_characteristics(level, args.g)
    _emit([characteristic_to_json(c) for c in chars], args.out)
    return 0


def cmd_eval(args) -> int:
    level = validate_level(json.loads(args.level))
    omega = _parse_omega(args.omega)
    h, g = level.h, omega.g
    chars = enumerate_characteristics(level, g)
    if not 0 <= args.char_index < len(chars):
        raise ValueError(f"char index {args.char_index} outside 0..{len(chars) - 1}")
    char = chars[args.char_index]
    w = _parse_complex_matrix(args.w, h, g)
    j = MultiIndex.from_rows(json.loads(args.j)) if args.j else MultiIndex.zeros(h, g)
    z = _parse_complex_matrix(args.z, h, g) if args.z else np.zeros((h, g), dtype=complex)
    if args.kind == "theta" and (args.j or args.z):
        raise ValueError("--j and --z apply only to --kind aux")

    tol = args.tol if args.tol is not None else 1e-12
    box = max(float(np.abs(w.imag).max()), float(np.abs(z).max()), 0.01)
    radius = choose_radius(level, omega, box, tol, j.size)
    cfg = TruncationConfig(radius=radius, tail_tol=tol)
    if args.kind == "theta":
        value = theta_series(level, char, omega, w, cfg)
    else:
        value = aux_theta_series(level, j, char, omega, z, w, cfg)
    _emit(
        {
            "value": complex_to_json(value.value),
            "tail_bound": value.tail_bound,
            "radius": radius,
        },
        args.out,
    )
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.suite, seed=args.seed, tol=args.tol)
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def cmd_decompose(args) -> int:
    omega = _parse_omega(args.omega)
    raw = sys.stdin.read() if args.input == "-" else Path(args.input).read_text()
    expr = expr_from_json(json.loads(raw))
    cfg = FitConfig(seed=args.seed, **({"fit_tol": args.tol} if args.tol else {}))
    dec = diff_poly_decompose(expr, omega, cfg)
    report = verify_theorem3(expr, dec, omega, cfg)
    payload = decomposition_to_json(dec, args.seed, cfg)
    payload["verification"] = report
    _emit(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetadecomp",
        description="Evaluate theta series of matrix level and decompose "
        "differential polynomials of them into the canonical basis.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    common.add_argument("--tol", type=float, default=None, help="tolerance override")
    common.add_argument("--out", default=None, help="write JSON here instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characteristics", parents=[common],
                       help="enumerate the characteristics of a level matrix")
    p.add_argument("--level", required=True, help="integer matrix JSON, e.g. '[[2]]'")
    p.add_argument("-g", type=int, required=True, help="number of columns")
    p.set_defaults(func=cmd_characteristics)

    p = sub.add_parser("eval", parents=[common], help="evaluate a theta or auxiliary series")
    p.add_argument("--kind", choices=["theta", "aux"], required=True)
    p.add_argument("--level", required=True, help="integer matrix JSON")
    p.add_argument("--char-index", type=int, default=0)
    p.add_argument("--j", default=None, help="multi-index rows JSON (aux only)")
    p.add_argument("--omega", required=True, help="complex matrix JSON, entries [re,im]")
    p.add_argument("--z", default=None, help="complex matrix JSON (aux only)")
    p.add_argument("--w", required=True, help="complex matrix JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", parents=[common], help="run a built-in verification suite")
    p.add_argument("--suite", choices=["quasiperiodicity", "commutators", "theorem3", "all"],
                   required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", parents=[common],
                       help="decompose a differential polynomial expression")
    p.add_argument("--input", required=True, help="expression JSON path, or - for stdin")
    p.add_argument("--omega", required=True, help="complex matrix JSON, entries [re,im]")
    p.set_defaults(func=cmd_decompose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, args.out)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
