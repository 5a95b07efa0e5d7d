"""Time one fresh-process set-up of a benchmark workload.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Imports thetadecomp (and numpy with it) and builds the workload's levels,
period matrices, characteristics and radii through the public API, then
prints the seconds that took.  run.py starts it several times per run and
reports the median as ``setup_s``.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports numpy and thetadecomp)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(time.perf_counter() - t0)
