"""Seeded workloads of the thetadecomp benchmark.

Each workload is built from a seed through the package's public API (its
set-up, which ``setup_s`` times in a fresh process) and then hands out its
operations one cycle at a time.  A cycle always holds the same template mix,
so a run of whole cycles has a fixed mix whatever the seed; the seed varies
only the inputs inside each template.  Every operation carries its own output
check, and each workload has checks that run after the timed loop; what they
find beyond pass or fail goes into ``notes``, which the run line prints.

The harness calls the package only through attributes of ``thetadecomp`` and
its modules, looked up at call time, so that the tracer's wrappers see every
call into a layer.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import thetadecomp as td
from thetadecomp import cli, numerics, serialization, verify
from thetadecomp.decompose import TAIL_TARGET

_UNIT_ROUNDOFF = np.finfo(float).eps / 2
NONFINITE = "nonfinite"  # check outcome of a series value that is nan or infinite
PROBE_STREAM = 4  # input stream of series-g2's far-W probes


@dataclass
class Op:
    """One closed-loop operation: ``run()`` is timed, ``check(result)`` is not."""

    template: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right
    detail: dict = field(default_factory=dict)


def _cycle_rng(seed: int, stream: int, cycle: int) -> np.random.Generator:
    # inputs depend on (seed, cycle) only, never on how long the run lasts
    return np.random.default_rng([seed, stream, cycle])


def _complex_box(rng, shape, box):
    return rng.uniform(-box, box, shape) + 1j * rng.uniform(-box, box, shape)


# --------------------------------------------------------------------------
# series-g2


def lattice_cube(h: int, g: int, radius: int) -> np.ndarray:
    """The integer h x g matrices with entries in [-radius, radius], as floats."""
    axis = np.arange(-radius, radius + 1, dtype=float)
    grid = np.stack(np.meshgrid(*([axis] * (h * g)), indexing="ij"), -1)
    return grid.reshape(-1, h, g)


def abs_term_sum(level, j, char, omega, z, w, radius) -> tuple[float, int]:
    """Sum of the moduli of the summed terms of the auxiliary series, and their count.

    Reference for the roundoff allowance: recursive summation of n terms
    errs by at most gamma_n * sum|terms| (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., eq. 4.4), with gamma_n = n u / (1 - n u).
    """
    box = lattice_cube(level.h, omega.g, radius)
    b = box + char.as_array()
    m = level.as_array()
    quad = np.einsum("kl,pla,ab,pkb->p", m, b, omega.omega, b)
    lin = np.einsum("kl,la,pka->p", m, w, b)
    mod = np.exp(-np.pi * (quad + 2.0 * lin).imag)
    if j.size:
        lam = np.abs(np.einsum("kl,pla->pka", m.astype(complex), z[None] + b))
        mod = mod * np.prod(lam ** j.as_array()[None], axis=(1, 2)) * (2 * np.pi) ** j.size
    return float(mod.sum()), len(box)


class SeriesG2:
    """One certified aux_theta_series / theta_series call per op, h*g = 4.

    Cycle: the twelve (period matrix, level, |J|) combinations of the regular
    grid.  After the timed loop, 16 far-W probes ([[2]], g = 1, Omega = i),
    two in each of eight strata of Im W in [0, 20), show the known defect of
    the series at large Im W: from Im W of about 10 on they return nan under
    a "certified" bound.  They are counted in ``notes``, not as ops, so that
    every run attempts the same probes and no timed op fails.
    """

    name = "series-g2"
    stream = 1
    levels = ([[2, 1], [1, 2]], [[4, 2], [2, 4]])
    im_omega = ((1.0, 0.3), (0.3, 2.0))
    omega_scales = (1.0, 0.7)
    degrees = (0, 1, 2)
    probe_strata = 8
    probes_per_stratum = 2
    probe_im_max = 20.0
    # (cycle, position) of the ops re-evaluated after the run: one per period
    # matrix and level, spread over the degrees
    checked = ((0, 0), (1, 4), (2, 8), (3, 11))

    def __init__(self, seed: int, run_dir: Path | None = None):
        self.seed = seed
        self.run_dir = run_dir
        self.notes: dict = {}
        tol = TAIL_TARGET
        box = verify.SAMPLE_BOX
        self.grid = []
        for scale in self.omega_scales:
            omega = td.PeriodMatrix(1j * scale * np.array(self.im_omega))
            for rows in self.levels:
                level = td.validate_level(rows)
                chars = td.enumerate_characteristics(level, omega.g)
                for degree in self.degrees:
                    radius = td.choose_radius(level, omega, box, tol, degree)
                    self.grid.append({
                        "template": f"{level} g2 Im*{scale} |J|={degree}",
                        "level": level, "omega": omega, "chars": chars, "degree": degree,
                        "js": numerics.multi_indices_of_size(level.h, omega.g, degree),
                        "cfg": td.TruncationConfig(radius=radius, tail_tol=tol),
                    })
        self.probe_level = td.validate_level([[2]])
        self.probe_omega = td.PeriodMatrix([[1j]])
        self.probe_chars = td.enumerate_characteristics(self.probe_level, 1)
        width = self.probe_im_max / self.probe_strata
        self.probe_cfgs = [
            td.TruncationConfig(
                radius=td.choose_radius(self.probe_level, self.probe_omega, (s + 1) * width, tol, 0),
                tail_tol=tol,
            )
            for s in range(self.probe_strata)
        ]

    def cycle(self, k: int) -> list[Op]:
        rng = _cycle_rng(self.seed, self.stream, k)
        box = verify.SAMPLE_BOX
        ops = []
        for spec in self.grid:
            level, omega, cfg = spec["level"], spec["omega"], spec["cfg"]
            h, g = level.h, omega.g
            j = spec["js"][int(rng.integers(len(spec["js"])))]
            char = spec["chars"][int(rng.integers(len(spec["chars"])))]
            z = _complex_box(rng, (h, g), box)
            # a real lattice shift eta only: W + xi*Omega leaves the Im W box the radius
            # was chosen for, and the certificate then fails at radius 7-10
            w = _complex_box(rng, (h, g), box) + rng.integers(-1, 2, (h, g))
            if j.size:
                run = lambda level=level, j=j, char=char, omega=omega, z=z, w=w, cfg=cfg: (
                    td.aux_theta_series(level, j, char, omega, z, w, cfg))
            else:
                run = lambda level=level, char=char, omega=omega, w=w, cfg=cfg: (
                    td.theta_series(level, char, omega, w, cfg))
            ops.append(Op(
                template=spec["template"],
                run=run,
                check=lambda v, cfg=cfg: _check_value(v, cfg),
                detail={"level": level, "j": j, "char": char, "omega": omega, "z": z, "w": w,
                        "cfg": cfg},
            ))
        return ops

    def far_w_probes(self) -> list[str]:
        """Run the far-W probes; a nan value is the known defect, noted, not failed."""
        rng = _cycle_rng(self.seed, PROBE_STREAM, 0)
        width = self.probe_im_max / self.probe_strata
        failures, nonfinite = [], []
        for stratum in range(self.probe_strata):
            cfg = self.probe_cfgs[stratum]
            for _ in range(self.probes_per_stratum):
                im_w = width * (stratum + rng.uniform())
                w = np.array([[rng.uniform(-0.5, 0.5) + 1j * im_w]])
                char = self.probe_chars[int(rng.integers(len(self.probe_chars)))]
                try:
                    v = td.theta_series(self.probe_level, char, self.probe_omega, w, cfg)
                    outcome = _check_value(v, cfg)
                except Exception as exc:
                    outcome = f"raised {type(exc).__name__}: {exc}"
                if outcome == NONFINITE:
                    nonfinite.append(round(im_w, 2))
                elif outcome is not None:
                    failures.append(f"far-W probe at Im W = {im_w:.2f}: {outcome}")
        self.notes["far_w_probes"] = self.probe_strata * self.probes_per_stratum
        self.notes["far_w_nonfinite_at_im_w"] = sorted(nonfinite)
        return failures

    def post_checks(self, done: list[tuple[int, Op, object]]) -> list[str]:
        """The far-W probes, then a fixed sample of ops re-evaluated at radius + 2.

        The two values must agree within both tail bounds plus the roundoff
        allowance gamma_n * sum|terms| of each evaluation.
        """
        failures = self.far_w_probes()
        per_cycle = len(self.grid)
        sample = {c * per_cycle + pos for c, pos in self.checked}
        for index, op, result in done:
            if index not in sample or not isinstance(result, td.ThetaValue):
                continue
            d = op.detail
            big = td.TruncationConfig(radius=d["cfg"].radius + 2, tail_tol=d["cfg"].tail_tol)
            ref = td.aux_theta_series(d["level"], d["j"], d["char"], d["omega"], d["z"], d["w"], big)
            allowance = ref.tail_bound + result.tail_bound
            for cfg in (d["cfg"], big):
                total, n = abs_term_sum(d["level"], d["j"], d["char"], d["omega"], d["z"], d["w"],
                                        cfg.radius)
                allowance += n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF) * total
            diff = abs(ref.value - result.value)
            if not diff <= allowance:
                failures.append(f"op {index} ({op.template}): |S_R - S_R+2| = {diff:.3e} "
                                f"exceeds allowance {allowance:.3e}")
        return failures


def _check_value(v, cfg) -> str | None:
    if not (math.isfinite(v.value.real) and math.isfinite(v.value.imag)):
        return NONFINITE
    if not (math.isfinite(v.tail_bound) and 0 < v.tail_bound <= cfg.tail_tol):
        return f"tail bound {v.tail_bound!r} outside (0, {cfg.tail_tol}]"
    return None


# --------------------------------------------------------------------------
# decompose-ref


def _coeff(rng) -> complex:
    r, t = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * np.pi)
    return complex(r * math.cos(t), r * math.sin(t))


class DecomposeRef:
    """One in-process ``thetadecomp decompose`` per op, on a generated expression.

    Cycle: the six theorem3 reference shapes at level [[2]], g = 1, hex
    g = 1 products of degree 0 and 1 (two of each), and a [[2]] g = 2 product
    of degree 0.  The seed draws the characteristics, an outer Scale
    coefficient of modulus 0.5-2, and the fitting seed.

    Eleven ops with the slowest template twice put the 50th and 90th
    percentiles inside a cluster of op latencies rather than on the gap
    between two, which keeps them steady from run to run.
    """

    name = "decompose-ref"
    stream = 2
    templates = ("single_j0", "single_j1", "single_j2", "theta_product", "wronskian",
                 "syntactic_zero", "hex_g1_deg0", "hex_g1_deg1", "hex_g1_deg0", "hex_g1_deg1",
                 "l2_g2_deg0")
    qp_tol = 1e-6  # the bound run_theorem3_suite puts on max_quasiperiod_residual

    def __init__(self, seed: int, run_dir: Path | None = None):
        self.seed = seed
        self.run_dir = run_dir
        self.notes: dict = {}
        self.l2 = td.validate_level([[2]])
        self.hex = td.validate_level([[2, 1], [1, 2]])
        self.omega1 = td.PeriodMatrix([[1j]])
        self.omega2 = td.PeriodMatrix(1j * np.array([[1.0, 0.3], [0.3, 2.0]]))
        self.chars = {
            "l2g1": td.enumerate_characteristics(self.l2, 1),
            "hexg1": td.enumerate_characteristics(self.hex, 1),
            "l2g2": td.enumerate_characteristics(self.l2, 2),
        }
        self.omega_json = {
            1: json.dumps(serialization.complex_matrix_to_json(self.omega1.omega)),
            2: json.dumps(serialization.complex_matrix_to_json(self.omega2.omega)),
        }
        # radii of the factor and summed levels of the mix; only set-up work, since
        # the command line derives its own radii on every call
        box = verify.SAMPLE_BOX
        self.radii = [
            td.choose_radius(level, omega, box, TAIL_TARGET, degree)
            for level, omega, degree in (
                (self.l2, self.omega1, 2), (td.validate_level([[4]]), self.omega1, 2),
                (self.hex, self.omega1, 1), (td.validate_level([[4, 2], [2, 4]]), self.omega1, 1),
                (self.l2, self.omega2, 0), (td.validate_level([[4]]), self.omega2, 0),
            )
        ]
        self.repeat = None  # the op of the first timed cycle that is run again after the loop

    def _expr(self, name, rng):
        J = td.MultiIndex.from_rows
        l2c, hexc = self.chars["l2g1"], self.chars["hexg1"]

        def pick(chars):
            return chars[int(rng.integers(len(chars)))]

        def leaf(level, rows, chars):
            return td.DerivSymbol(level, J(rows), pick(chars))

        if name.startswith("single_j"):
            expr = leaf(self.l2, [[int(name[-1])]], l2c)
        elif name == "theta_product":
            expr = td.Product((leaf(self.l2, [[0]], l2c), leaf(self.l2, [[0]], l2c)))
        elif name == "wronskian":
            a = pick(l2c)
            d0, d1, d2 = (td.DerivSymbol(self.l2, J([[k]]), a) for k in range(3))
            expr = td.Sum((td.Product((d0, d2)), td.Scale(-1.0 + 0j, td.Product((d1, d1)))))
        elif name == "syntactic_zero":
            p = td.Product((leaf(self.l2, [[0]], l2c), leaf(self.l2, [[1]], l2c)))
            expr = td.Sum((p, td.Scale(-1.0 + 0j, p)))
        elif name == "hex_g1_deg0":
            expr = td.Product((leaf(self.hex, [[0], [0]], hexc), leaf(self.hex, [[0], [0]], hexc)))
        elif name == "hex_g1_deg1":
            rows = [[1], [0]] if rng.integers(2) else [[0], [1]]
            expr = td.Product((leaf(self.hex, rows, hexc), leaf(self.hex, [[0], [0]], hexc)))
        elif name == "l2_g2_deg0":
            c = self.chars["l2g2"]
            expr = td.Product((leaf(self.l2, [[0, 0]], c), leaf(self.l2, [[0, 0]], c)))
        else:
            raise ValueError(name)
        return td.Scale(_coeff(rng), expr)

    def cycle(self, k: int) -> list[Op]:
        rng = _cycle_rng(self.seed, self.stream, k)
        ops = []
        for i, name in enumerate(self.templates):
            expr = self._expr(name, rng)
            # one input file per op, so that a replay of the cycle sees the same input
            src = self.run_dir / f"in_{k}_{i}.json"
            out = self.run_dir / f"out_{i}.json"
            src.write_text(json.dumps(serialization.expr_to_json(expr)))
            g = 2 if name == "l2_g2_deg0" else 1
            argv = ["decompose", "--input", str(src), "--omega", self.omega_json[g],
                    "--seed", str(int(rng.integers(1 << 31))), "--out", str(out)]
            if k == 1 and i == self.seed % len(self.templates):
                self.repeat = {"name": name, "argv": argv, "bytes": None}
            ops.append(Op(
                template=name,
                run=lambda argv=argv: cli.main(argv),
                check=lambda rc, name=name, argv=argv, out=out: self._check(name, argv, rc, out),
            ))
        return ops

    def _check(self, name, argv, rc, out: Path) -> str | None:
        if rc != 0:
            return f"exit code {rc}: {out.read_text()[:200] if out.exists() else ''}"
        raw = out.read_bytes()
        if self.repeat is not None and self.repeat["argv"] is argv:
            self.repeat["bytes"] = raw
        payload = json.loads(raw)
        report = payload["verification"]
        if not payload["residual"] < verify.THEOREM3_TOL:
            return f"residual {payload['residual']:.3e}"
        if not report["max_z0_residual"] < verify.THEOREM3_TOL:
            return f"max_z0_residual {report['max_z0_residual']:.3e}"
        if not report["max_quasiperiod_residual"] < self.qp_tol:
            return f"max_quasiperiod_residual {report['max_quasiperiod_residual']:.3e}"
        if name == "syntactic_zero" and payload["element"]:
            return "syntactic_zero did not return the zero element"
        return None

    def post_checks(self, done) -> list[str]:
        """Run one (template, seed) pair of the timed loop again; the output must match byte for byte."""
        rep = self.repeat
        if rep is None or rep["bytes"] is None:
            return ["the op chosen for the repeat check did not complete"]
        argv = list(rep["argv"])
        again = self.run_dir / "out_repeat.json"
        argv[argv.index("--out") + 1] = str(again)
        rc = cli.main(argv)
        if rc != 0 or again.read_bytes() != rep["bytes"]:
            seed = argv[argv.index("--seed") + 1]
            return [f"repeat of {rep['name']} (seed {seed}) is not byte-identical"]
        return []


# --------------------------------------------------------------------------
# algebra-brackets

class AlgebraBrackets:
    """Every operator bracket on generated elements, all six (level, g) pairs per op.

    One op takes, for each pair of the commutator suite, up to 20 distinct
    symbols with |J| <= 4 and integer coefficients in +-1..9 (for one pair
    in four, from |J| = 0 only, so the kernel test sees both outcomes), and
    checks every bracket identity and the kernel test on each element.
    Covering all six pairs in one op keeps op latencies in one cluster.
    """

    name = "algebra-brackets"
    stream = 3
    max_order = 4
    terms = 20
    ops_per_cycle = 4

    def __init__(self, seed: int, run_dir: Path | None = None):
        self.seed = seed
        self.run_dir = run_dir
        self.notes: dict = {}
        self.configs = []
        for rows, g in verify._ALGEBRA_CONFIGS:
            level = td.validate_level(rows)
            h = level.h
            chars = td.enumerate_characteristics(level, g)
            symbols = [td.BasisSymbol(level, j, ch)
                       for j in numerics.multi_indices_up_to(h, g, self.max_order) for ch in chars]
            scalings = [td.scaling_op(k, l) for k in range(1, h + 1) for l in range(1, h + 1)]
            lowerings = [td.lowering_op(m, a) for m in range(1, h + 1) for a in range(1, g + 1)]
            raisings = [td.raising_op(n, b) for n in range(1, h + 1) for b in range(1, g + 1)]
            zero_pairs = (
                list(itertools.combinations(scalings, 2))
                + [(e, d) for e in scalings for d in lowerings]
                + [(e, r) for e in scalings for r in raisings]
                + list(itertools.combinations(lowerings, 2))
                + list(itertools.combinations(raisings, 2))
            )
            ladder = [(d, r, td.scaling_op(d.i, r.i) if d.j == r.j else None)
                      for d in lowerings for r in raisings]
            self.configs.append({"symbols": symbols, "zero_pairs": zero_pairs, "ladder": ladder})

    def _element_terms(self, rng, symbols):
        if rng.integers(4) == 0:
            symbols = [s for s in symbols if s.j.size == 0]
        chosen = rng.choice(len(symbols), min(self.terms, len(symbols)), replace=False)
        coeffs = rng.integers(1, 10, len(chosen)) * rng.choice((-1, 1), len(chosen))
        return [(symbols[int(i)], int(c)) for i, c in zip(chosen, coeffs)]

    def cycle(self, k: int) -> list[Op]:
        rng = _cycle_rng(self.seed, self.stream, k)
        ops = []
        for _ in range(self.ops_per_cycle):
            work = [(self._element_terms(rng, cfg["symbols"]), cfg) for cfg in self.configs]
            ops.append(Op(template="six pairs", run=lambda work=work: _brackets(work),
                          check=_check_brackets))
        return ops

    def post_checks(self, done) -> list[str]:
        return []


def _brackets(work):
    violations = kernel_disagreements = 0
    for terms, cfg in work:
        x = td.AlgebraElement(dict(terms))
        violations += sum(not td.commutator(a, b, x).is_zero() for a, b in cfg["zero_pairs"])
        for d, r, scale in cfg["ladder"]:
            want = td.apply(scale, x) if scale is not None else td.AlgebraElement.zero()
            violations += td.commutator(d, r, x) != want
        structural = all(s.j.size == 0 for s, _ in terms)
        kernel_disagreements += td.in_theta_subalgebra(x) != structural
    return violations, kernel_disagreements


def _check_brackets(result) -> str | None:
    violations, kernel_disagreements = result
    if violations:
        return f"{violations} bracket identities violated"
    if kernel_disagreements:
        return f"in_theta_subalgebra disagrees with the structural test {kernel_disagreements} times"
    return None


WORKLOADS = {w.name: w for w in (SeriesG2, DecomposeRef, AlgebraBrackets)}
