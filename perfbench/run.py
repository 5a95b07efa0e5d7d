"""Benchmark of thetadecomp: one seeded, closed-loop workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload series-g2 --seed 1 --seconds 30 --trace 0

One process, one client: the next op starts when the previous one returns,
and no worker threads or processes are started.  The BLAS thread count is
pinned to 1 before numpy loads: the workloads' BLAS calls are small, and
threads there add jitter, not speed.  Between cycles the process moves to
whichever allowed CPU is least slowed by outside load (see CpuPicker).  After
one untimed warm-up cycle, whole cycles of the workload's template mix run
until ``--seconds`` have passed.

Latencies are normalised to the speed of the CPU at the moment (see
ReferenceProbe): a fixed reference probe that does not call thetadecomp runs
between ops, and each op's wall time is scaled by the probe's nominal time
over its mean time just before and just after the op.  On a shared host a
CPU runs up to twice as slow for seconds to minutes at a time; the scaling
takes that out of the figures, and a change in the program still moves them
in full.  The raw wall-time figures are printed on the ``run`` line.

Every op's output is checked.  An op that raises, returns a non-finite value
or fails its check counts in ``failed``, and ``correct`` is false when any op
fails or a post-run check fails.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces the layers
from outside (see tracing.py) for half the time, replays the same ops
untraced, and prints the per-layer metrics and the tracing overhead.  The
last line of stdout is the result object; the lines before it record the
environment and run details.
"""

from __future__ import annotations

import os

# before numpy is imported, here and in the set-up probes, which inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import ctypes
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 11  # fresh processes per run; setup_s is their median
# The reference probe's time on an unslowed CPU of the machine the benchmark
# was tuned on (2 vCPUs of an x86-64 Intel Xeon, Python 3.11, numpy 2), so
# that normalised latencies read as milliseconds of that CPU.
NOMINAL_PROBE_S = 1.30e-3
# CPUs the process may use, read before CpuPicker pins it to one of them
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "thetadecomp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": NPROC,
        "machine": platform.machine(),
    }


class ReferenceProbe:
    """A fixed piece of numpy and plain-Python work, like the workloads', timed.

    It does not call thetadecomp, so its time measures the CPU, not the
    program, and every commit is measured alike.  A call takes about 1.3 ms on
    an unslowed CPU and returns the fastest of two runs, in seconds.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((20000, 4))
        self._b = np.eye(4) + 0.1
        self._keys = [(i, i % 7) for i in range(300)]
        self.times: list[float] = []  # every probe between ops, for the run line

    def __call__(self) -> float:
        best = self.measure()
        self.times.append(best)
        return best

    def measure(self) -> float:
        np, best = self._np, math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            np.exp(-np.einsum("pi,ij,pj->p", self._a, self._b, self._a)).sum()
            counts: dict = {}
            for _ in range(4):
                for key in self._keys:
                    counts[key] = counts.get(key, 0) + 1
            total = 0
            for i in range(3000):
                total += i * i
            best = min(best, time.perf_counter() - t0)
        return best

    def scale(self, before: float, after: float) -> float:
        """Factor that turns a wall time between two probes into nominal time."""
        return 2.0 * NOMINAL_PROBE_S / (before + after)


class CpuPicker:
    """Keeps the process on the least-slowed of the CPUs it may use.

    On a shared host each CPU switches between a fast and a much slower state
    every few seconds, independently of the others.  At most once a second,
    between cycles, the picker times the reference probe on every allowed CPU
    and pins the process to the fastest.
    """

    interval_s = 1.0

    def __init__(self, probe: ReferenceProbe):
        self._probe = probe
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self._last = -math.inf
        self.picks: collections.Counter = collections.Counter()

    def pick(self, force: bool = False):
        if len(self.cpus) < 2 or not force and time.perf_counter() - self._last < self.interval_s:
            return
        probe = {}
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                probe[cpu] = min(self._probe.measure() for _ in range(2))
            best = min(probe, key=probe.get)
            os.sched_setaffinity(0, {best})
        except OSError:  # pinning not permitted here: stay wherever the OS puts us
            self.cpus = []
            return
        self.picks[best] += 1
        self._last = time.perf_counter()


def measure_setup(workload: str, seed: int, picker: CpuPicker,
                  probe: ReferenceProbe) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes (import thetadecomp, build the workload).

    Returns the normalised times and the raw wall times.
    """
    times, walls = [], []
    for _ in range(SETUP_PROBES):
        picker.pick(force=True)  # the set-up process inherits the CPU
        before = probe()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        wall = float(proc.stdout.strip().splitlines()[-1])
        walls.append(wall)
        times.append(wall * probe.scale(before, probe()))
    return times, walls


class Run:
    """Ops executed so far, with their times and check outcomes."""

    def __init__(self):
        self.walls: list[float] = []  # wall times
        self.times: list[float] = []  # the same, normalised to the nominal CPU speed
        self.done: list[tuple[int, object, object]] = []
        self.failures: list[tuple[int, str, str]] = []  # (index, template, reason)
        self.cycle_rates: list[float] = []  # ops per normalised second of op time, per cycle
        self.mix: collections.Counter = collections.Counter()  # ops per template

    def record(self, index, op, wall, scale, result, error):
        self.walls.append(wall)
        self.times.append(wall * scale)
        self.mix[op.template] += 1
        reason = error
        if reason is None:
            try:
                reason = op.check(result)
            except Exception as exc:  # malformed output, e.g. a missing field
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None:
            self.done.append((index, op, result))
            return
        self.failures.append((index, op.template, reason))


def _call(op):
    try:
        return op.run(), None
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        return None, f"raised {type(exc).__name__}: {exc}"


def run_cycles(cycles, seconds: float, run: Run, picker: CpuPicker, probe: ReferenceProbe,
               tracer=None) -> None:
    """Run whole cycles, each a list of ops, until ``seconds`` pass or they run out.

    The reference probe runs before each cycle and after each op, outside
    the op's time.
    """
    clock = time.perf_counter
    began = clock()
    for ops in cycles:
        picker.pick()
        before = probe()
        first = len(run.walls)
        for op in ops:
            index = len(run.walls)
            span = tracer.op_begin(index) if tracer is not None else None
            t0 = clock()
            result, error = _call(op)
            wall = clock() - t0
            if tracer is not None:
                tracer.op_end(span)
            after = probe()
            run.record(index, op, wall, probe.scale(before, after), result, error)
            before = after
        run.cycle_rates.append(len(ops) / sum(run.times[first:]))
        if clock() - began >= seconds:
            return


def generate(wl, kept: list | None = None):
    """The workload's cycles from cycle 1 on; ``kept`` collects them for a replay."""
    k = 1
    while True:
        ops = wl.cycle(k)
        if kept is not None:
            kept.append(ops)
        yield ops
        k += 1


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(wl, args, picker, probe) -> tuple[dict, dict, Run]:
    setup_times, setup_walls = measure_setup(args.workload, args.seed, picker, probe)
    run_cycles([wl.cycle(0)], 0.0, Run(), picker, probe)  # warm-up: one cycle, lazy caches fill
    run = Run()
    run_cycles(generate(wl), args.seconds, run, picker, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    post = wl.post_checks(run.done)
    lat_ms = [t * 1e3 for t in run.times]
    wall_ms = [w * 1e3 for w in run.walls]
    p90 = _quantile(lat_ms, 90)
    metrics = {
        # ops that passed their checks per second: the median rate over cycles (a
        # burst of outside load moves one cycle, not the figure) times the pass share
        "ops_per_s": (statistics.median(run.cycle_rates) * len(run.done) / len(lat_ms), "1/s"),
        "op_p50_ms": (_quantile(lat_ms, 50), "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    info = {
        "samples": len(lat_ms),
        "beyond_p90": sum(x > p90 for x in lat_ms),
        "mix": dict(run.mix),
        "error_rate": len(run.failures) / len(lat_ms),
        "setup_s_all": setup_times,
        "wall": {"ops_per_s": len(run.done) / sum(run.walls), "op_p50_ms": _quantile(wall_ms, 50),
                 "op_p90_ms": _quantile(wall_ms, 90), "setup_s": statistics.median(setup_walls)},
        "post_check_failures": post,
    }
    return metrics, info, run


def traced(wl, args, picker, probe) -> tuple[dict, dict, Run]:
    from tracing import IDLE_OP, SETUP_OP, Tracer

    tracer = Tracer()
    tracer.install()
    tracer.set_phase(SETUP_OP)
    try:
        type(wl)(args.seed, wl.run_dir)
    finally:
        tracer.set_phase(IDLE_OP)
        tracer.uninstall()
    run_cycles([wl.cycle(0)], 0.0, Run(), picker, probe)  # warm-up, untraced
    run, kept = Run(), []
    tracer.install()
    try:
        run_cycles(generate(wl, kept), args.seconds / 2.0, run, picker, probe, tracer=tracer)
    finally:
        tracer.uninstall()
    plain = Run()
    run_cycles(kept, math.inf, plain, picker, probe)
    traced_s, plain_s = sum(run.times), sum(plain.times)
    post = wl.post_checks(run.done)
    metrics = tracer.metrics(run.walls)
    n = len(run.walls)
    metrics["trace.overhead_ms"] = ((traced_s - plain_s) * 1e3 / n, "ms/op")
    metrics["trace.overhead_share"] = ((traced_s - plain_s) / plain_s, "ratio")
    info = {
        "samples": n,
        "error_rate": len(run.failures) / n,
        # derived from radii and shapes at the call boundary, not counted in the kernel
        "computed": ["evaluation.lattice_points", "evaluation.useful_point_ratio",
                     "evaluation.box_mb_computed"],
        "traced_s": traced_s,  # normalised, as the overhead
        "untraced_s": plain_s,
        "post_check_failures": post,
    }
    # the replayed ops count as attempted too, and are checked like the traced ones
    run.walls += plain.walls
    run.failures += plain.failures
    return metrics, info, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "thetadecomp" / "__init__.py").is_file():
        return _fail(f"no thetadecomp package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = ROOT / ".bench_run" / str(os.getpid())
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, run_dir)
        measure = traced if args.trace else end_to_end
        probe = ReferenceProbe()
        picker = CpuPicker(probe)
        metrics, info, run = measure(wl, args, picker, probe)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return _fail(f"metrics not produced: {missing}")
    correct = not run.failures and not info["post_check_failures"]
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "mode": "traced" if args.trace else "end_to_end",
        **wl.notes,
        "probe_nominal_ms": NOMINAL_PROBE_S * 1e3,
        "probe_median_ms": statistics.median(probe.times) * 1e3,
        "cpu_picks": {str(cpu): n for cpu, n in sorted(picker.picks.items())},
        "failures": [f"op {i} {t}: {r}" for i, t, r in run.failures[:10]],
    })
    # native libraries (OpenBLAS warnings) write to the C stdout buffer; flush it
    # first so that the result stays the last line
    ctypes.CDLL(None).fflush(None)
    print(json.dumps({"env": environment()}))
    print(json.dumps({"run": info}))
    result = {
        "correct": correct,
        "attempted": len(run.walls),
        "failed": len(run.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
