"""Command-line interface: evaluate, enumerate, decompose, verify.

All input and output is JSON.  Complex numbers are [re, im] pairs, complex
matrices row-major arrays of such pairs, rationals {"num", "den"} objects.
Options: --out on every subcommand, --seed on verify and decompose, --tol on
eval, verify and decompose (a negative value attached: --tol=-1e-8).  Exit
codes: 0 ok, 1 verification failure; the error codes 2-5 (validation,
truncation insufficient, residual too large or ill-conditioned, level-sum
invalid) come from ``EXIT_CODES``, their one source.  Every failure prints a
JSON error object and nothing on stderr; a usage error is a ValueError
(exit 2), printed on stdout even when --out is given.  A non-finite matrix
entry or a --tol <= 0 is a ValueError, an Omega below the Im floor of ``PeriodMatrix``
a NotPositiveDefiniteError, and JSON nested too deeply a RecursionError (exit 2).
eval sums to the least radius whose tail bound at its own point is within --tol; a
non-finite value or bound is exit 3.  decompose exits 4 when the addition formula's own
bound of one of its products exceeds --tol (fit_tol, default 1e-8), or when its propagated
coefficient bound or a residual of its verification is not finite.
Every report is strict JSON: a non-finite number in it (a NaN residual of a failing
verify case) is written as the string "NaN", "Infinity" or "-Infinity".
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
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
from .evaluation import TAIL_TARGET, _point_config, as_matrix, aux_theta_series
from .numerics import (
    MultiIndex,
    PeriodMatrix,
    enumerate_characteristics,
    validate_level,
)
from .serialization import (
    char_by_index,
    characteristic_to_json,
    complex_matrix_from_json,
    complex_to_json,
    decomposition_to_json,
    expr_from_json,
)
from .verify import SUITES, run_suite

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
    (RecursionError, 2),  # input nested past the parser's depth
)


def _finite_json(x):
    """``x`` with each non-finite float as the string "NaN", "Infinity" or "-Infinity"."""
    if isinstance(x, float) and not math.isfinite(x):
        return json.dumps(x)  # json's own names for the three values
    if isinstance(x, dict):
        return {k: _finite_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_json(v) for v in x]
    return x


def _emit(payload, out_path):
    text = json.dumps(_finite_json(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, for main's one exit path; subparsers inherit it."""

    def error(self, message):
        raise ValueError(message)


def _complex_matrix(text) -> list:
    rows = complex_matrix_from_json(json.loads(text))
    if not all(cmath.isfinite(x) for row in rows for x in row):
        raise ValueError(f"complex matrix {text} has a non-finite entry")
    return rows


def cmd_characteristics(args) -> int:
    level = validate_level(json.loads(args.level))
    chars = enumerate_characteristics(level, args.g)
    _emit([characteristic_to_json(c) for c in chars], args.out)
    return 0


def cmd_eval(args) -> int:
    level = validate_level(json.loads(args.level))
    omega = PeriodMatrix(_complex_matrix(args.omega))
    h, g = level.h, omega.g
    char = char_by_index(level, g, args.char_index)
    w = as_matrix(_complex_matrix(args.w), h, g)
    j = MultiIndex.from_rows(json.loads(args.j)) if args.j else MultiIndex.zeros(h, g)
    z = as_matrix(_complex_matrix(args.z), h, g) if args.z else np.zeros((h, g), dtype=complex)

    cfg = _point_config(level, omega, j.size, z, w, args.tol if args.tol is not None else TAIL_TARGET)
    # at J = 0 the auxiliary series is the theta series; a sum that overflowed is refused
    # below, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        value = aux_theta_series(level, j, char, omega, z, w, cfg)
    if not cmath.isfinite(value.value):
        raise TruncationInsufficientError(
            f"series value {value.value} is not finite at radius {cfg.radius}; no bound certifies it"
        )
    _emit(
        {
            "value": complex_to_json(value.value),
            "tail_bound": value.tail_bound,
            "radius": cfg.radius,
        },
        args.out,
    )
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.suite, seed=args.seed, tol=args.tol)
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def cmd_decompose(args) -> int:
    omega = PeriodMatrix(_complex_matrix(args.omega))
    raw = sys.stdin.read() if args.input == "-" else Path(args.input).read_text()
    expr = expr_from_json(json.loads(raw))
    cfg = FitConfig(seed=args.seed, **({"fit_tol": args.tol} if args.tol is not None else {}))
    dec = diff_poly_decompose(expr, omega, cfg)
    report = verify_theorem3(expr, dec, omega, cfg)
    if not all(math.isfinite(x) for x in report.values()):  # a NaN kernel, say
        raise ResidualTooLargeError(f"verification residuals are not finite: {report}")
    payload = decomposition_to_json(dec, cfg)
    payload["verification"] = report
    _emit(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process.  ``main`` dispatches on the subcommand to
    the ``cmd_*`` function of this module it names, looked up at call time."""
    return _parser()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thetadecomp",
        description="Evaluate theta series of matrix level and decompose "
        "differential polynomials of them into the canonical basis.",
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write JSON here instead of stdout")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=None, help="tolerance override")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characteristics", parents=[out],
                       help="enumerate the characteristics of a level matrix")
    p.add_argument("--level", required=True, help="integer matrix JSON, e.g. '[[2]]'")
    p.add_argument("-g", type=int, required=True, help="number of columns")

    p = sub.add_parser("eval", parents=[out, tol],
                       help="evaluate an auxiliary series, the theta series at J = 0")
    p.add_argument("--level", required=True, help="integer matrix JSON")
    p.add_argument("--char-index", type=int, default=0)
    p.add_argument("--j", default=None, help="multi-index rows JSON (default 0)")
    p.add_argument("--omega", required=True, help="complex matrix JSON, entries [re,im]")
    p.add_argument("--z", default=None, help="complex matrix JSON (default 0)")
    p.add_argument("--w", required=True, help="complex matrix JSON")

    p = sub.add_parser("verify", parents=[out, seed, tol], help="run a built-in verification suite")
    p.add_argument("--suite", choices=[*SUITES, "all"], required=True)

    p = sub.add_parser("decompose", parents=[out, seed, tol],
                       help="decompose a differential polynomial expression")
    p.add_argument("--input", required=True, help="expression JSON path, or - for stdin")
    p.add_argument("--omega", required=True, help="complex matrix JSON, entries [re,im]")
    return parser


def main(argv=None) -> int:
    args = None  # a usage error leaves --out unread, so it reports on stdout
    try:
        args = build_parser().parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, args and args.out)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
