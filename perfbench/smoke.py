"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. A one-second end-to-end run and a one-second traced run of every
   workload, each through run.py in its own process, exit 0, report
   ``correct: true`` and print every metric of BENCHMARK.json with its unit.
2. Bad outputs injected in-process are counted as failed ops, and the run
   still finishes and prints its result: a series kernel stubbed to return
   nan (series-g2, decompose-ref) and a commutator that is off by one term
   (algebra-brackets).  On decompose-ref every op that fits a product must
   fail; a lone leaf decomposes without evaluating any series, so its output
   stays right (and its finite-difference certificate, fed nan, reports a
   residual of 0, because ``max`` passes over nan).

Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _expect(ok: bool, message: str):
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _check_metrics(result: dict, trace: int, label: str):
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = result["metrics"]
    _expect(set(got) == {m["name"] for m in wanted}, f"{label}: metric names differ")
    for m in wanted:
        _expect(got[m["name"]]["unit"] == m["unit"], f"{label}: unit of {m['name']}")
        print(f"  {m['name']:36s} {got[m['name']]['value']:>14.6g} {m['unit']}")


def short_runs():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            print(label)
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=300, cwd=ROOT, check=False,
            )
            _expect(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-800:]}")
            result = _result(proc.stdout)
            _expect(result["correct"], f"{label}: not correct: {proc.stdout[-800:]}")
            _check_metrics(result, trace, label)


def injected_faults():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import run
    import thetadecomp as td
    import workloads
    from thetadecomp import evaluation

    def nan_kernel(*args, **kwargs):
        return complex(np.nan, np.nan)

    def wrong_commutator(op1, op2, x):
        sym, coeff = next(iter(x.items()))
        return td.AlgebraElement({sym: coeff + 1})

    templates = workloads.DecomposeRef.templates
    products = sum(not t.startswith("single_") for t in templates)
    cases = (
        ("series-g2", evaluation, "_aux_value", nan_kernel, 1.0),
        ("decompose-ref", evaluation, "_aux_value", nan_kernel, products / len(templates)),
        ("algebra-brackets", td, "commutator", wrong_commutator, 1.0),
    )
    for workload, owner, attr, stub, share in cases:
        print(f"{workload} with {attr} stubbed")
        original = getattr(owner, attr)
        setattr(owner, attr, stub)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                                 "--trace", "0"])
        finally:
            setattr(owner, attr, original)
        _expect(code == 0, f"{workload}: exit {code}")
        result = _result(out.getvalue())
        failed, attempted = result["failed"], result["attempted"]
        _expect(attempted > 0 and failed == round(share * attempted),
                f"{workload}: {failed} of {attempted} ops failed, expected share {share:.3f}")
        _expect(not result["correct"], f"{workload}: bad outputs reported as correct")
        print(f"  failed {failed} of {attempted}: error_rate {failed / attempted:.3f}")


if __name__ == "__main__":
    short_runs()
    injected_faults()
    print("smoke test passed")
