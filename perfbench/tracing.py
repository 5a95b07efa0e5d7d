"""Per-layer tracing of the thetadecomp package, from outside the package.

``Tracer.install`` replaces every public function of the package's modules,
in every module that binds it (the names one module imports from another
included), with a wrapper that records a span: function, start, end, parent
span and op id.  ``numpy.linalg.lstsq``, the fit's solve, is wrapped too and
counted in the ``decompose`` layer.  Spans live in flat arrays until the run
ends; ``Tracer.metrics`` turns them into per-op layer times and counts.

A layer is the module that defines a function.  A span's self time is its
duration minus that of its child spans, so the self times of all layers plus
the harness's own op spans add up to the traced op wall time.

Counts that depend on arguments (lattice points, box bytes, points inside
the cutoff ellipsoid, apply input terms, fitted basis size) are computed from
the arguments and results at the boundary, not counted inside the kernel.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import math
import time
from array import array

import numpy as np

from workloads import lattice_cube

LAYERS = ("numerics", "evaluation", "algebra", "decompose", "verify", "cli", "serialization")
HARNESS = "harness"
SETUP_OP = -1  # spans of the in-process set-up
IDLE_OP = -2  # spans made by the harness between ops (input generation, checks)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.fns: list[tuple[str, str]] = []  # fid -> (layer, function)
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.fid = array("q")
        self.op = array("q")
        self._stack = [-1]
        self._op = IDLE_OP
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict = {}
        # boundary counts, made only inside ops
        self.series_keys: collections.Counter = collections.Counter()
        self._omegas: dict = {}  # keeps every keyed omega alive, so its id stays unique
        self.apply_terms = 0
        self.fit_basis = 0
        self.fit_kept = 0
        self.cond_max = 0.0
        self._hooks = {
            "aux_theta_series": (self._before_series, None),
            "apply": (self._before_apply, None),
            "fit_in_basis": (None, self._after_fit),
        }
        self.harness_fid = self._register(HARNESS, "op")

    # -- recording ---------------------------------------------------------

    def _register(self, layer, name):
        self.fns.append((layer, name))
        return len(self.fns) - 1

    def _wrap(self, fn, layer, name):
        fid = self._register(layer, name)
        before, after = self._hooks.get(name, (None, None))
        start, end, parent, fids, ops, stack = (
            self.start, self.end, self.parent, self.fid, self.op, self._stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None and self._op >= 0:
                before(args, kwargs)
            idx = len(start)
            parent.append(stack[-1])
            fids.append(fid)
            ops.append(self._op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None and self._op >= 0:
                after(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def op_begin(self, op_id: int) -> int:
        self._op = op_id
        idx = len(self.start)
        self.parent.append(-1)
        self.fid.append(self.harness_fid)
        self.op.append(op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def op_end(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._op = IDLE_OP

    def set_phase(self, op_id: int):
        self._op = op_id

    # -- boundary counts ---------------------------------------------------

    def _before_series(self, args, kwargs):
        level = _arg(args, kwargs, 0, "level")
        char = _arg(args, kwargs, 2, "char")
        omega = _arg(args, kwargs, 3, "omega")
        cfg = _arg(args, kwargs, 6, "cfg")
        self._omegas[id(omega)] = omega
        self.series_keys[(level, char, id(omega), cfg.radius)] += 1

    def _before_apply(self, args, kwargs):
        self.apply_terms += len(_arg(args, kwargs, 1, "x"))

    def _after_fit(self, args, kwargs, result):
        level = _arg(args, kwargs, 1, "level")
        degree = _arg(args, kwargs, 2, "max_degree")
        omega = _arg(args, kwargs, 3, "omega")
        chars = round(abs(np.linalg.det(level.as_array()))) ** omega.g
        size = chars * math.comb(level.h * omega.g + degree, degree)
        self.fit_basis += size
        self.fit_kept += len(result.element)
        self.cond_max = max(self.cond_max, result.conditioning)

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer, wherever they are bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"thetadecomp.{name}") for name in LAYERS]
        modules.append(importlib.import_module("thetadecomp"))
        homes = {f"thetadecomp.{name}": name for name in LAYERS}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = homes.get(obj.__module__)
                if layer is None:
                    continue
                if obj not in self._wrappers:
                    self._wrappers[obj] = self._wrap(obj, layer, obj.__name__)
                self._patch(mod, attr, self._wrappers[obj])
        lstsq = np.linalg.lstsq
        if lstsq not in self._wrappers:
            self._wrappers[lstsq] = self._wrap(lstsq, "decompose", "lstsq")
        self._patch(np.linalg, "lstsq", self._wrappers[lstsq])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def metrics(self, op_walls_s: list[float]) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics of the traced ops, and numerics work of the set-up.

        ``op_walls_s`` are the op wall times the harness measured around the
        op spans; they are the base of ``trace.accounted_share``.
        """
        n_ops = max(len(op_walls_s), 1)
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        fid = np.frombuffer(self.fid, dtype=np.int64)
        op = np.frombuffer(self.op, dtype=np.int64)
        n = len(dur)
        self_t = dur - np.bincount(parent + 1, weights=dur, minlength=n + 1)[1:]
        pfid = np.where(parent >= 0, fid[np.maximum(parent, 0)], -1)
        in_op = op >= 0
        layer_of = np.array([LAYERS.index(l) if l in LAYERS else len(LAYERS)
                             for l, _ in self.fns])
        layer = layer_of[fid]

        def fids(layer_name=None, name=None):
            return [f for f, (l, fn) in enumerate(self.fns)
                    if (layer_name is None or l == layer_name) and (name is None or fn == name)]

        def mask(layer_name=None, name=None, region=in_op):
            return region & np.isin(fid, fids(layer_name, name))

        def calls(name):
            return float(mask(name=name).sum()) / n_ops

        def ms(values, m):
            return float(values[m].sum()) * 1e3 / n_ops

        def top(layer_name=None, name=None, region=in_op):
            """Spans of the selection whose parent is outside the selection."""
            sel = fids(layer_name, name)
            return region & np.isin(fid, sel) & ~np.isin(pfid, sel)

        # aux series spans beneath a wderiv_fd span
        fd_fids = set(fids(name="wderiv_fd"))
        aux_fids = set(fids(name="aux_theta_series"))
        fit_fids = set(fids(name="fit_in_basis"))
        under_fd = [False] * n  # parents are recorded before their children
        fd_evals = design_cells = 0
        fid_l, parent_l, op_l = fid.tolist(), parent.tolist(), op.tolist()
        for i in range(n):
            p = parent_l[i]
            if p >= 0:
                under_fd[i] = under_fd[p] or fid_l[p] in fd_fids
            if op_l[i] >= 0 and fid_l[i] in aux_fids:
                fd_evals += under_fd[i]
                design_cells += p >= 0 and fid_l[p] in fit_fids

        points, useful, box_bytes = self._lattice_counts()
        series_self = ms(self_t, mask(name="aux_theta_series"))
        series_calls = calls("aux_theta_series")
        apply_ms = ms(dur, top(name="apply"))
        lstsq_calls = calls("lstsq")
        fits = calls("fit_in_basis")
        setup = op == SETUP_OP
        out = {
            "evaluation.lattice_points": (points / max(series_calls * n_ops, 1), "points/call"),
            "evaluation.us_per_point": (series_self * 1e3 * n_ops / points if points else 0.0,
                                        "us/point"),
            "evaluation.useful_point_ratio": (useful / points if points else 0.0, "ratio"),
            "evaluation.box_mb_computed": (box_bytes / 1e6, "MB"),
            "evaluation.series_calls": (series_calls, "count/op"),
            "evaluation.series_self_ms": (series_self, "ms/op"),
            "evaluation.tail_bound_calls": (calls("tail_bound"), "count/op"),
            "evaluation.tail_bound_ms": (ms(dur, top(name="tail_bound")), "ms/op"),
            "evaluation.choose_radius_calls": (calls("choose_radius"), "count/op"),
            "evaluation.choose_radius_ms": (ms(dur, top(name="choose_radius")), "ms/op"),
            "evaluation.fd_derivs": (float(top(name="wderiv_fd").sum()) / n_ops, "count/op"),
            "evaluation.fd_series_evals": (fd_evals / n_ops, "count/op"),
            "evaluation.fd_ms": (ms(dur, top(name="wderiv_fd")), "ms/op"),
            "decompose.fits": (fits, "count/op"),
            "decompose.design_cells": (design_cells / n_ops, "count/op"),
            "decompose.fit_self_ms": (ms(self_t, mask(name="fit_in_basis")), "ms/op"),
            "decompose.lstsq_calls": (lstsq_calls, "count/op"),
            "decompose.lstsq_ms": (ms(dur, mask(name="lstsq")), "ms/op"),
            "decompose.resample_ratio": (fits / lstsq_calls if lstsq_calls else 0.0, "ratio"),
            "decompose.cond_max": (self.cond_max, "ratio"),
            "decompose.pruned_share": (
                1.0 - self.fit_kept / self.fit_basis if self.fit_basis else 0.0, "ratio"),
            "decompose.product_expand_calls": (calls("product_expand"), "count/op"),
            "decompose.verify_ms": (ms(dur, top(name="verify_theorem3")), "ms/op"),
            "algebra.apply_calls": (calls("apply"), "count/op"),
            "algebra.apply_ms": (apply_ms, "ms/op"),
            "algebra.apply_terms_in": (self.apply_terms / n_ops, "count/op"),
            "algebra.us_per_term": (apply_ms * 1e3 * n_ops / self.apply_terms
                                    if self.apply_terms else 0.0, "us/term"),
            "algebra.evaluate_element_calls": (calls("evaluate_element"), "count/op"),
            "algebra.evaluate_element_self_ms": (ms(self_t, mask(name="evaluate_element")),
                                                 "ms/op"),
            "serialization.ms": (ms(dur, top("serialization")), "ms/op"),
            "numerics.calls": (float(mask("numerics", region=setup).sum()), "count"),
            "numerics.ms": (float(dur[top("numerics", region=setup)].sum()) * 1e3, "ms"),
        }
        for i, name in enumerate(LAYERS + (HARNESS,)):
            if name == "verify":
                continue  # no workload calls into verify; its suites compose the others
            out[f"{name}.self_ms"] = (float(self_t[in_op & (layer == i)].sum()) * 1e3 / n_ops,
                                      "ms/op")
        wall = sum(op_walls_s)
        out["trace.accounted_share"] = (float(self_t[in_op].sum()) / wall if wall else 0.0,
                                        "ratio")
        out["trace.spans_per_op"] = (float(in_op.sum()) / n_ops, "count/op")
        return out

    def _lattice_counts(self):
        """Summed cube points, points inside the cutoff ellipsoid, and the largest box (computed).

        A point N of the sup-norm cube of radius R is inside the cutoff when
        tr(M (N+A) Im(Omega) (N+A)^t) <= lam * R^2, lam = lambda_min(M) *
        lambda_min(Im Omega): its Gaussian factor is at least the one the
        tail certificate assumes on the cube's faces.  The W shift of the
        Gaussian's centre is ignored.  The box holds points * h * g doubles.
        """
        points = useful = 0.0
        box_bytes = 0
        memo = {}
        for (level, char, omega_id, radius), count in self.series_keys.items():
            omega = self._omegas[omega_id]
            key = (level, char.a, omega.omega.tobytes(), radius)
            if key not in memo:
                h, g = level.h, omega.g
                b = lattice_cube(h, g, radius) + char.as_array()
                m = level.as_array()
                q = np.einsum("kl,pla,ab,pkb->p", m, b, omega.omega.imag, b)
                lam = float(np.linalg.eigvalsh(m).min()) * omega.im_min_eig
                memo[key] = (len(b), int((q <= lam * radius * radius).sum()), len(b) * h * g * 8)
            total, inside, nbytes = memo[key]
            points += count * total
            useful += count * inside
            box_bytes = max(box_bytes, nbytes)
        return points, useful, box_bytes
