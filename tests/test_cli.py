"""Command-line interface: JSON output and the exit-code contract."""

import argparse
import contextlib
import inspect
import io
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetadecomp import cli, errors, evaluation, verify
from thetadecomp.numerics import PeriodMatrix, multi_indices_up_to, validate_level

OMEGA_I = "[[[0,1]]]"
GOLDEN_REPORT = Path(__file__).parent / "data" / "verify_all_seed0.json"
# one input per decompose-ref template shape, each with its decompose --out bytes at --seed 0
GOLDEN_DECOMPOSE = json.loads((Path(__file__).parent / "data" / "decompose_ref_seed0.json").read_text())
# aux_theta_block calls of one decompose of each: verify_theorem3's z0 and sample checks as
# one stack, then its shift check, each one call per (level, J) of the leaves and of the
# element; the decomposition's certificate, its propagated bound, reads no series
DECOMPOSE_KERNEL_CALLS = {"single_j0": 3, "single_j1": 3, "single_j2": 3, "theta_product": 3,
                          "wronskian": 5, "syntactic_zero": 2, "hex_g1_deg0": 3, "hex_g1_deg1": 6,
                          "l2_g2_deg0": 3}


def run_cli(*args, stdin=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "thetadecomp.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestCharacteristics:
    def test_level_two(self):
        out = run_cli("characteristics", "--level", "[[2]]", "-g", "1")
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert len(data) == 2
        assert data[1]["a"] == [[{"num": 1, "den": 2}]]

    def test_zero_entry_exits_2(self):
        out = run_cli("characteristics", "--level", "[[2,0],[0,2]]", "-g", "1")
        assert out.returncode == 2
        assert json.loads(out.stdout)["error"]["type"] == "ZeroEntryError"

    def test_level_that_is_no_matrix_exits_2(self):
        out = run_cli("characteristics", "--level", "[2]", "-g", "1")
        assert out.returncode == 2 and out.stderr == ""
        assert json.loads(out.stdout)["error"]["type"] == "DimensionMismatchError"

    def test_hex_g2_has_nine(self):
        out = run_cli("characteristics", "--level", "[[2,1],[1,2]]", "-g", "2")
        assert out.returncode == 0
        assert len(json.loads(out.stdout)) == 9

    def test_over_budget_exits_2(self):
        # 2^40 characteristics: refused before enumerating, not enumerated until the timeout
        out = run_cli("characteristics", "--level", "[[2]]", "-g", "40", timeout=30)
        assert out.returncode == 2
        assert json.loads(out.stdout)["error"]["type"] == "BudgetExceededError"

    def test_deterministic_bytes(self):
        a = run_cli("characteristics", "--level", "[[4]]", "-g", "1")
        b = run_cli("characteristics", "--level", "[[4]]", "-g", "1")
        assert a.stdout == b.stdout


class TestEval:
    def test_theta_value(self):
        out = run_cli(
            "eval", "--level", "[[2]]",
            "--omega", OMEGA_I, "--w", "[[[0,0]]]",
        )
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert abs(data["value"][0] - 1.0037348854877393) < 1e-9
        assert abs(data["value"][1]) < 1e-12
        assert data["tail_bound"] < 1e-12

    def test_aux_j0_equals_theta(self):
        theta = run_cli(
            "eval", "--level", "[[2]]",
            "--omega", OMEGA_I, "--w", "[[[0.05,0.1]]]",
        )
        aux = run_cli(
            "eval", "--level", "[[2]]",
            "--omega", OMEGA_I, "--w", "[[[0.05,0.1]]]", "--z", "[[[0.3,0.2]]]",
        )
        assert theta.returncode == 0 and aux.returncode == 0
        assert json.loads(theta.stdout)["value"] == json.loads(aux.stdout)["value"]

    def test_aux_j1_odd_symmetry(self):
        out = run_cli(
            "eval", "--level", "[[2]]", "--j", "[[1]]",
            "--omega", OMEGA_I, "--w", "[[[0,0]]]",
        )
        data = json.loads(out.stdout)
        assert abs(complex(*data["value"])) < 1e-10

    def test_bad_level_exits_2(self):
        out = run_cli(
            "eval", "--level", "[[1]]",
            "--omega", OMEGA_I, "--w", "[[[0,0]]]",
        )
        assert out.returncode == 2

    def test_unreachable_tail_exits_3(self):
        out = run_cli(
            "eval", "--level", "[[2]]",
            "--omega", OMEGA_I, "--w", "[[[0,60]]]",
        )
        assert out.returncode == 3

    def test_char_index_out_of_range_exits_2(self):
        out = run_cli(
            "eval", "--level", "[[2]]", "--char-index", "2",
            "--omega", OMEGA_I, "--w", "[[[0,0]]]",
        )
        assert out.returncode == 2
        assert json.loads(out.stdout)["error"]["type"] == "DimensionMismatchError"

    def test_near_boundary_omega_exits_2(self):
        out = run_cli(
            "eval", "--level", "[[2]]",
            "--omega", "[[[0,0.0005]]]", "--w", "[[[0,0]]]",
        )
        assert out.returncode == 2
        assert json.loads(out.stdout)["error"]["type"] == "NotPositiveDefiniteError"

    def test_radius_from_its_own_point(self, tmp_path):
        # a large Z sizes only the weight of the bound, not its W term: radius 3, not 18
        out = tmp_path / "eval.json"
        assert cli.main(["eval", "--level", "[[2]]", "--j", "[[3]]",
                         "--omega", OMEGA_I, "--z", "[[[6,6]]]", "--w", "[[[0,0]]]",
                         "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["radius"] == 3 and data["tail_bound"] <= 1e-12

    @pytest.mark.parametrize("argv,value", [
        (["--w", "[[[0,0]]]"], [1.0037348854877393, 0.0]),
        (["--j", "[[1]]", "--z", "[[[0.3,0]]]", "--w", "[[[0.1,0.2]]]"],
         [-0.1952193065726311, 3.708007881919616]),
    ])
    def test_readme_examples(self, argv, value, tmp_path):
        out = tmp_path / "eval.json"
        assert cli.main(["eval", "--level", "[[2]]", "--omega", OMEGA_I, *argv, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["radius"] == 3 and data["tail_bound"] <= 1e-12
        assert data["value"] == pytest.approx(value, abs=1e-12)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_radius_is_the_least_that_certifies_its_point(self, data):
        config = data.draw(st.sampled_from(verify._SERIES_CONFIGS))
        level = validate_level(config["level"])
        h, g = level.h, len(config["omega"])
        re = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=g * g, max_size=g * g))).reshape(g, g)
        re[0, 0] = data.draw(st.sampled_from((-1, 1))) * data.draw(st.floats(0.05, 0.5))
        im = np.diag(data.draw(st.lists(st.floats(0.8, 2.0), min_size=g, max_size=g)))
        if g == 2:
            im[0, 1] = data.draw(st.floats(-0.3, 0.3))
        omega = np.triu(re + 1j * im) + np.triu(re + 1j * im, 1).T
        j = data.draw(st.sampled_from(multi_indices_up_to(h, g, 2)))
        # every part of Z and W up to 3, as (h, g, [re, im])
        z, w = (np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=2 * h * g, max_size=2 * h * g)))
                .reshape(h, g, 2) for _ in range(2))
        tol = data.draw(st.sampled_from((None, 1e-12, 1e-8, 1e-4)))

        def matrix(x):
            return json.dumps(x.tolist())

        argv = ["eval", "--level", json.dumps(config["level"]),
                "--j", json.dumps([list(row) for row in j.j]), "--z", matrix(z), "--w", matrix(w),
                "--omega", matrix(np.stack((omega.real, omega.imag), axis=-1))]
        argv += [f"--tol={tol}"] if tol is not None else []
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert cli.main(argv) == 0
        radius = json.loads(stdout.getvalue())["radius"]

        # the bound at the point's own largest |Z| + |X*| entries and log scale, X* = -Im W
        # (Im Omega)^-1 the Gaussian peak
        tol = tol or evaluation.TAIL_TARGET
        peak = -w[..., 1] @ np.linalg.inv(omega.imag)
        z_sup = float(np.abs(z[..., 0] + 1j * z[..., 1]).max() + np.abs(peak).max()) if j.size else 0.0
        log_scale = max(-np.pi * float(np.sum(level.as_array() @ w[..., 1] * peak)), 0.0)

        def bound(r):
            return evaluation.tail_bound(level, PeriodMatrix(omega), j.size, z_sup, log_scale, r)
        assert bound(radius) <= tol
        assert radius == 1 or bound(radius - 1) > tol

    def test_over_lattice_budget_exits_2(self):
        # hex at g=2 with Im Omega = 0.1 I needs radius 19: a 2,313,441-point cube
        out = run_cli(
            "eval", "--level", "[[2,1],[1,2]]",
            "--omega", "[[[0,0.1],[0,0]],[[0,0],[0,0.1]]]",
            "--w", "[[[0,0.4],[0,0.4]],[[0,0.4],[0,0.4]]]", timeout=60,
        )
        assert out.returncode == 2 and out.stderr == ""
        assert json.loads(out.stdout)["error"]["type"] == "BudgetExceededError"

    @pytest.mark.parametrize("w,z", [("[[[NaN,0]]]", "[[[0,0]]]"), ("[[[0,0]]]", "[[[0,Infinity]]]"),
                                     ("[[[0,1e400]]]", "[[[0,0]]]")])
    def test_nonfinite_input_exits_2(self, w, z):
        out = run_cli("eval", "--level", "[[2]]", "--omega", OMEGA_I, "--w", w, "--z", z)
        assert out.returncode == 2 and out.stderr == ""
        error = json.loads(out.stdout)["error"]
        assert error["type"] == "ValueError" and "non-finite" in error["message"]

    def test_nonfinite_value_exits_3(self):
        # far from the real axis the sum overflows although its tail bound is 1.2e-68
        out = run_cli(
            "eval", "--level", "[[2]]",
            "--omega", OMEGA_I, "--w", "[[[0,12]]]",
        )
        assert out.returncode == 3 and out.stderr == ""
        error = json.loads(out.stdout)["error"]
        assert error["type"] == "TruncationInsufficientError" and "not finite" in error["message"]

    @pytest.mark.parametrize("argv", [
        ("--w", "[[[0,0]]]", "--z", "[[[1e200,0]]]", "--j", "[[2]]"),
        ("--w", "[[[0,0]]]", "--j", "[[300]]"),
        ("--w", "[[[0,1e160]]]"),
    ], ids=["huge-z", "degree-300", "huge-im-w"])
    def test_overflowing_tail_bound_exits_3(self, argv):
        # the tail bound's envelope overflows the direct product (the first two) or its log
        # scale is infinite (the third): the bound is taken in logs or is +inf, and the value that
        # overflows, or the radius that no bound certifies, is refused
        out = run_cli("eval", "--level", "[[2]]", "--omega", OMEGA_I, *argv)
        assert out.returncode == 3 and out.stderr == ""
        error = json.loads(out.stdout)["error"]
        assert error["type"] in ("TruncationInsufficientError", "RadiusUnachievableError")


# k = 10^200 + 1: [[2, k], [k, (k^2 + 3) / 2]] is admissible (det 3), but no double holds k
_HUGE_K = 10**200 + 1
_HUGE_LEVEL = json.dumps([[2, _HUGE_K], [_HUGE_K, (_HUGE_K**2 + 3) // 2]])


class TestIntegerEntries:
    @pytest.mark.parametrize("argv,stdin", [
        (("characteristics", "--level", "[[1e400]]", "-g", "1"), None),
        (("characteristics", "--level", "[[Infinity]]", "-g", "1"), None),
        (("eval", "--level", "[[2]]", "--j", "[[1e400]]", "--omega", OMEGA_I,
          "--w", "[[[0,0]]]"), None),
        (("decompose", "--input", "-", "--omega", OMEGA_I),
         '{"kind": "deriv", "level": [[2]], "j": [[1e400]], "char_index": 0}'),
        (("eval", "--level", _HUGE_LEVEL, "--omega", OMEGA_I,
          "--w", "[[[0,0]],[[0,0]]]"), None),
    ], ids=["level-1e400", "level-infinity", "eval-j-1e400", "decompose-j-1e400", "level-10^200+1"])
    def test_entry_no_double_holds_exits_2(self, argv, stdin):
        # an integer entry must be exactly a double: these crashed with an OverflowError
        out = run_cli(*argv, stdin=stdin)
        assert out.returncode == 2 and out.stderr == ""
        error = json.loads(out.stdout)["error"]
        assert error["type"] == "DimensionMismatchError" and "exactly" in error["message"]
        assert len(out.stdout) < 300  # the entry itself is not printed


class TestVerify:
    def test_commutators_pass(self):
        out = run_cli("verify", "--suite", "commutators")
        assert out.returncode == 0
        report = json.loads(out.stdout)
        assert report["passed"] is True
        assert report["bracket_violations"] == 0

    def test_unknown_suite_exits_2(self):
        out = run_cli("verify", "--suite", "nonsense")
        assert out.returncode == 2

    def test_all_passes_tol_to_every_suite(self):
        # "all" runs each named suite as --suite <name> would, the tolerance included
        report = verify.run_suite("all", tol=1e-300)
        by_name = {s["suite"]: s for s in report["suites"]}
        assert list(by_name) == list(verify.SUITES)
        assert by_name["theorem3"]["tolerance"] == 1e-300
        assert by_name["theorem3"]["passed"] is False
        assert by_name["quasiperiodicity"]["tolerance"] == 1e-300
        assert report["passed"] is False

    def test_report_matches_the_golden_file(self, tmp_path):
        # a change that alters this report on purpose regenerates the file and says so
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--suite", "all", "--seed", "0", "--out", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_REPORT.read_bytes()

    def test_report_seed_is_a_python_int(self):
        # a numpy seed was stored as given, and json.dumps of the report raised TypeError
        report = verify.run_suite("all", seed=np.int64(0))
        assert type(report["seed"]) is int
        assert json.loads(json.dumps(report)) == json.loads(GOLDEN_REPORT.read_text())

    @pytest.mark.parametrize("seed", [True, 1.5, "0"])
    def test_seed_is_refused_before_any_suite_runs(self, seed, monkeypatch):
        ran = []
        for name in ("run_quasiperiodicity_suite", "run_commutator_suite", "run_theorem3_suite"):
            monkeypatch.setattr(verify, name, lambda *args, name=name, **kw: ran.append(name))
        for suite in (*verify.SUITES, "all"):
            with pytest.raises(ValueError, match="seed must be an integer"):
                verify.run_suite(suite, seed=seed)
        assert ran == []

    @pytest.mark.parametrize("suite,calls", [("quasiperiodicity", 4), ("commutators", 9)])
    def test_candidate_lists_are_built_once_per_configuration(self, suite, calls, monkeypatch):
        # one list per configuration or level, not one per case (600 and 206 calls before)
        counted = []

        def counting(*args):
            counted.append(args)
            return multi_indices_up_to(*args)

        monkeypatch.setattr(verify, "multi_indices_up_to", counting)
        assert verify.run_suite(suite)["passed"]
        assert len(counted) == calls

    def test_nan_kernel_fails_the_quasiperiodicity_suite(self, monkeypatch):
        # a NaN residual fails its case and is the configuration's maximum, never 0
        monkeypatch.setattr(evaluation, "_aux_value",
                            lambda level, j, chars, *rest: np.full(len(chars), complex("nan+nanj")))
        report = verify.run_quasiperiodicity_suite(0)
        assert report["passed"] is False
        for config in report["configs"]:
            assert math.isnan(config["max_residual"]) and math.isnan(config["max_shift_residual"])
            assert len(config["failures"]) == verify.QP_CASES + verify.SHIFT_CASES
            assert config["passed"] is False

    def test_nan_report_is_strict_json(self, monkeypatch, tmp_path):
        monkeypatch.setattr(evaluation, "_aux_value",
                            lambda level, j, chars, *rest: np.full(len(chars), complex("nan+nanj")))
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--suite", "quasiperiodicity", "--out", str(out)]) == 1

        def reject(token):
            raise ValueError(f"bare {token} is not JSON")

        report = json.loads(out.read_text(), parse_constant=reject)
        assert all(c["max_residual"] == "NaN" for c in report["configs"])


class TestDecompose:
    def test_single_symbol(self):
        expr = {"kind": "deriv", "level": [[2]], "j": [[1]], "char_index": 0}
        out = run_cli("decompose", "--input", "-", "--omega", OMEGA_I,
                      stdin=json.dumps(expr))
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert len(data["element"]) == 1
        term = data["element"][0]
        assert term["j"] == [[1]] and term["coeff"] == [1.0, 0.0]
        assert data["verification"]["max_z0_residual"] < 1e-5

    def test_level_sum_invalid_exits_5(self):
        expr = {
            "kind": "product",
            "children": [
                {"kind": "deriv", "level": [[2, 1], [1, 2]], "j": [[0], [0]], "char_index": 0},
                {"kind": "deriv", "level": [[2, -1], [-1, 2]], "j": [[0], [0]], "char_index": 0},
            ],
        }
        out = run_cli("decompose", "--input", "-", "--omega", OMEGA_I,
                      stdin=json.dumps(expr))
        assert out.returncode == 5

    def test_near_boundary_omega_exits_2(self):
        expr = {"kind": "deriv", "level": [[2]], "j": [[0]], "char_index": 0}
        out = run_cli("decompose", "--input", "-", "--omega", "[[[0,0.0005]]]", stdin=json.dumps(expr))
        assert out.returncode == 2
        assert json.loads(out.stdout)["error"]["type"] == "NotPositiveDefiniteError"

    def test_malformed_input_exits_2(self):
        out = run_cli("decompose", "--input", "-", "--omega", OMEGA_I, stdin="{not json")
        assert out.returncode == 2

    @pytest.mark.parametrize("node", ["[1, 2]", "5", '{"kind": "sum", "children": [5]}'])
    def test_non_object_node_exits_2(self, node):
        out = run_cli("decompose", "--input", "-", "--omega", OMEGA_I, stdin=node)
        assert out.returncode == 2 and out.stderr == ""
        error = json.loads(out.stdout)["error"]
        assert error["type"] == "ValueError" and "not a JSON object" in error["message"]

    @pytest.mark.parametrize("coeff", ["[NaN, 0]", "[0, -Infinity]", "[1e400, 0]"])
    def test_nonfinite_coefficient_exits_2(self, coeff):
        # as --omega does; a NaN coefficient exited 4 with "certificate residual nan is not finite"
        leaf = '{"kind": "deriv", "level": [[2]], "j": [[0]], "char_index": 1}'
        expr = f'{{"kind": "scale", "coeff": {coeff}, "child": {leaf}}}'
        out = run_cli("decompose", "--input", "-", "--omega", OMEGA_I, stdin=expr)
        assert out.returncode == 2 and out.stderr == ""
        error = json.loads(out.stdout)["error"]
        assert error["type"] == "ValueError" and "not finite" in error["message"]

    @pytest.mark.parametrize("zeroed", [0, 1])
    def test_zero_scaling_inside_a_product_exits_0(self, zeroed):
        # the zeroed factor's bounds are 0.0 and add no level of their own to the product
        leaves = [{"kind": "deriv", "level": [[2]], "j": [[k]], "char_index": k % 2} for k in range(3)]
        factors = [leaves[2]]
        factors.insert(zeroed, {"kind": "scale", "coeff": [0, 0],
                                "child": {"kind": "product", "children": leaves[:2]}})
        out = run_cli("decompose", "--input", "-", "--omega", OMEGA_I,
                      stdin=json.dumps({"kind": "product", "children": factors}))
        assert out.returncode == 0 and out.stderr == ""
        data = json.loads(out.stdout)
        assert data["element"] == [] and data["residual"] == 0.0

    def test_large_exact_scaling_exits_0(self):
        # the propagated bound, 2 eps 1e8 = 4.4e-8 above the default --tol, is reported
        leaf = {"kind": "deriv", "level": [[2]], "j": [[0]], "char_index": 1}
        out = run_cli("decompose", "--input", "-", "--omega", OMEGA_I,
                      stdin=json.dumps({"kind": "scale", "coeff": [1e8, 0], "child": leaf}))
        assert out.returncode == 0 and out.stderr == ""
        assert json.loads(out.stdout)["residual"] == 2.0 * 2.0 ** -52 * 1e8

    @pytest.mark.parametrize("kind", ["sum", "product"])
    def test_node_without_children_exits_2(self, kind):
        # exited 2 as a DimensionMismatchError: "expression mixes shapes []"
        out = run_cli("decompose", "--input", "-", "--omega", OMEGA_I,
                      stdin=json.dumps({"kind": kind, "children": []}))
        assert out.returncode == 2 and out.stderr == ""
        assert json.loads(out.stdout)["error"] == {"type": "ValueError", "message": f"{kind.title()} has no children"}

    def test_out_flag_writes_file(self, tmp_path):
        expr = {"kind": "deriv", "level": [[2]], "j": [[0]], "char_index": 1}
        path = tmp_path / "dec.json"
        out = run_cli("decompose", "--input", "-", "--omega", OMEGA_I,
                      "--out", str(path), stdin=json.dumps(expr))
        assert out.returncode == 0
        assert out.stdout == ""
        data = json.loads(path.read_text())
        assert data["element"][0]["char_index"] == 1

    @staticmethod
    def decompose_case(case, tmp_path):
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(json.dumps(case["input"]))
        rc = cli.main(["decompose", "--input", str(src), "--omega", case["omega"],
                       "--seed", str(case["seed"]), "--out", str(out)])
        return rc, out.read_bytes()

    @pytest.mark.parametrize("case", GOLDEN_DECOMPOSE, ids=lambda case: case["name"])
    def test_output_matches_the_golden_file(self, case, tmp_path):
        # a change that alters these outputs on purpose regenerates the file and says so
        assert self.decompose_case(case, tmp_path) == (0, case["out"].encode())

    @pytest.mark.parametrize("case", GOLDEN_DECOMPOSE, ids=lambda case: case["name"])
    def test_one_sampled_pass_per_decompose(self, case, tmp_path, monkeypatch):
        # verify_theorem3's; the decomposition's certificate is its propagated bound
        from thetadecomp import decompose

        calls = []
        mismatch = decompose._mismatch
        monkeypatch.setattr(decompose, "_mismatch", lambda *args: calls.append(args) or mismatch(*args))
        assert self.decompose_case(case, tmp_path)[0] == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("case", GOLDEN_DECOMPOSE, ids=lambda case: case["name"])
    def test_kernel_calls_of_each_template(self, case, tmp_path, monkeypatch):
        from thetadecomp import algebra, decompose

        calls = []
        block = evaluation.aux_theta_block

        def counted(*args):
            calls.append(args)
            return block(*args)

        for module in (algebra, decompose, evaluation):
            monkeypatch.setattr(module, "aux_theta_block", counted)
        assert self.decompose_case(case, tmp_path)[0] == 0
        assert len(calls) == DECOMPOSE_KERNEL_CALLS[case["name"]]

    def test_hex_g2_product_passes_every_check(self, tmp_path):
        # h*g = 4: the shift check sized from its own points takes radius 14 here, where the
        # shift box's worst case takes radius 36, a cube of 28.4M points, over the cap
        hex_leaf = {"kind": "deriv", "level": [[2, 1], [1, 2]], "j": [[0, 0], [0, 0]]}
        expr = {"kind": "product", "children": [{**hex_leaf, "char_index": 1}, {**hex_leaf, "char_index": 5}]}
        case = {"input": expr, "omega": "[[[0,1],[0.25,0]],[[0.25,0],[0,1.5]]]", "seed": 0}
        rc, raw = self.decompose_case(case, tmp_path)
        assert rc == 0
        data = json.loads(raw)
        report = data["verification"]
        assert data["residual"] < verify.THEOREM3_TOL
        assert report["max_z0_residual"] < verify.THEOREM3_TOL and report["max_sample_residual"] < verify.THEOREM3_TOL
        assert report["max_quasiperiod_residual"] < verify.THEOREM3_SHIFT_TOL

    def test_hex_g2_product_at_seed_3_passes_every_check(self, tmp_path):
        # h*g = 4, J = 0: seed 3's shift check reaches |Im W| = 1.87, which a window centred
        # at 0 covered with a radius-17 cube of 1.5M points, over the cap (exit 2); centred on
        # the Gaussian peak it takes radius 5, 6,235 points
        hex_leaf = {"kind": "deriv", "level": [[2, 1], [1, 2]], "j": [[0, 0], [0, 0]]}
        expr = {"kind": "product", "children": [{**hex_leaf, "char_index": 0}, {**hex_leaf, "char_index": 1}]}
        case = {"input": expr, "omega": "[[[0,1],[0.25,0]],[[0.25,0],[0,1.5]]]", "seed": 3}
        started = time.perf_counter()
        rc, raw = self.decompose_case(case, tmp_path)
        assert time.perf_counter() - started < 1.5
        assert rc == 0
        data = json.loads(raw)
        report = data["verification"]
        assert data["residual"] < verify.THEOREM3_TOL
        assert report["max_z0_residual"] < verify.THEOREM3_TOL and report["max_sample_residual"] < verify.THEOREM3_TOL
        assert report["max_quasiperiod_residual"] < verify.THEOREM3_SHIFT_TOL


THETA_PRODUCT = {
    "kind": "product",
    "children": [
        {"kind": "deriv", "level": [[2]], "j": [[0]], "char_index": 0},
        {"kind": "deriv", "level": [[2]], "j": [[0]], "char_index": 1},
    ],
}

# the documented codes 3-5; every other listed error is a validation error (2)
SPECIAL_CODES = {
    errors.LevelSumInvalidError: 5,
    errors.ResidualTooLargeError: 4,
    errors.IllConditionedError: 4,
    errors.TruncationInsufficientError: 3,
    errors.RadiusUnachievableError: 3,
}
THETA_ERRORS = sorted(
    (obj for obj in vars(errors).values()
     if isinstance(obj, type) and issubclass(obj, errors.ThetaError)),
    key=lambda cls: cls.__name__,
)
MAPPED = [cls("boom") for cls in THETA_ERRORS] + [
    ValueError("boom"), TypeError("boom"), KeyError("boom"), OSError("boom"),
    json.JSONDecodeError("boom", "{", 0), RecursionError("boom"),
]


class TestExitCodes:
    @pytest.mark.parametrize("exc", MAPPED, ids=lambda e: type(e).__name__)
    def test_documented_code(self, exc, monkeypatch, tmp_path):
        def boom(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_characteristics", boom)
        out = tmp_path / "err.json"
        rc = cli.main(["characteristics", "--level", "[[2]]", "-g", "1", "--out", str(out)])
        assert rc == SPECIAL_CODES.get(type(exc), 2)
        assert json.loads(out.read_text())["error"]["type"] == type(exc).__name__

    def test_no_entry_is_shadowed(self):
        # the first match wins, so a later entry must not subclass an earlier one
        classes = [cls for cls, _ in cli.EXIT_CODES]
        for i, later in enumerate(classes):
            assert not any(issubclass(later, earlier) for earlier in classes[:i]), later

    def test_input_nested_too_deeply_exits_2(self, tmp_path):
        # 2,000 scale nodes: past the JSON parser's recursion limit
        depth = 2000
        leaf = json.dumps(THETA_PRODUCT)
        src = tmp_path / "deep.json"
        src.write_text('{"kind": "scale", "coeff": [1, 0], "child": ' * depth + leaf + "}" * depth)
        out = run_cli("decompose", "--input", str(src), "--omega", OMEGA_I, timeout=60)
        assert out.returncode == 2 and out.stderr == ""
        assert json.loads(out.stdout)["error"]["type"] == "RecursionError"

    def test_residual_too_large_exits_4(self, tmp_path):
        src = tmp_path / "in.json"
        src.write_text(json.dumps(THETA_PRODUCT))
        out = tmp_path / "out.json"
        rc = cli.main(["decompose", "--input", str(src), "--omega", OMEGA_I,
                       "--tol", "1e-300", "--out", str(out)])
        assert rc == 4
        assert json.loads(out.read_text())["error"]["type"] == "ResidualTooLargeError"

    def test_product_without_a_radius_exits_3(self, tmp_path):
        # Im Omega just above the evaluation floor: no theta-constant box certifies the tail
        src = tmp_path / "in.json"
        src.write_text(json.dumps(THETA_PRODUCT))
        out = tmp_path / "out.json"
        rc = cli.main(["decompose", "--input", str(src), "--omega", "[[[0, 0.0011]]]", "--out", str(out)])
        assert rc == 3
        assert json.loads(out.read_text())["error"]["type"] == "RadiusUnachievableError"

    def test_failed_verification_exits_1(self, tmp_path):
        out = tmp_path / "report.json"
        rc = cli.main(["verify", "--suite", "quasiperiodicity", "--tol", "1e-300",
                       "--out", str(out)])
        assert rc == 1
        assert json.loads(out.read_text())["passed"] is False

    @pytest.mark.parametrize("tol", ["0", "-1e-8"])
    def test_nonpositive_tol_exits_2(self, tol, tmp_path):
        # a tolerance override of 0 is an override, not "no override", and is rejected
        src = tmp_path / "in.json"
        src.write_text(json.dumps(THETA_PRODUCT))
        for argv in (["verify", "--suite", "quasiperiodicity"],
                     ["decompose", "--input", str(src), "--omega", OMEGA_I],
                     ["eval", "--level", "[[2]]", "--omega", OMEGA_I, "--w", "[[[0,0]]]"]):
            out = tmp_path / "err.json"
            assert cli.main([*argv, f"--tol={tol}", "--out", str(out)]) == 2
            assert json.loads(out.read_text())["error"]["type"] == "ValueError"

    def test_run_suite_rejects_zero_tol(self):
        for name in (*verify.SUITES, "all"):
            with pytest.raises(ValueError, match="tol must be positive"):
                verify.run_suite(name, tol=0.0)

    @pytest.mark.parametrize("tol", [True, "1e-8"])
    def test_run_suite_rejects_a_tol_that_is_no_real(self, tol):
        # True was read as a tolerance of 1, and "1e-8" ended in a bare TypeError from '>'
        for name in (*verify.SUITES, "all"):
            with pytest.raises(ValueError, match="tol must be positive"):
                verify.run_suite(name, tol=tol)

    @pytest.mark.parametrize("seed", [1.5, "3", True])
    def test_commutator_suite_seed_is_an_integer(self, seed):
        # 1.5 and "3" ended in a bare TypeError from '&', and True was seed 1
        with pytest.raises(ValueError, match="seed must be an integer"):
            verify.run_commutator_suite(seed=seed)
        with pytest.raises(ValueError, match="seed must be an integer"):
            verify.run_suite("commutators", seed=seed)

    def test_theorem3_suite_at_the_largest_numpy_seed(self):
        # seed + 1000003 overflowed in numpy int64 with a RuntimeWarning; as a Python int its
        # stream key, masked to 64 bits, is the one the wrapped sum gave
        big = 2**63 - 1
        assert verify.run_theorem3_suite(seed=np.int64(big)) == verify.run_theorem3_suite(seed=big)

    def test_nonfinite_kernel_exits_4(self, monkeypatch, tmp_path):
        # a NaN series value reaches the fit, which must refuse it before the solve
        monkeypatch.setattr(evaluation, "_aux_value",
                            lambda level, j, chars, *rest: [complex(float("nan"), 0.0)] * len(chars))
        src = tmp_path / "in.json"
        src.write_text(json.dumps(THETA_PRODUCT))
        out = tmp_path / "out.json"
        rc = cli.main(["decompose", "--input", str(src), "--omega", OMEGA_I, "--out", str(out)])
        assert rc == 4
        error = json.loads(out.read_text())["error"]
        assert error["type"] == "ResidualTooLargeError"
        assert "not finite" in error["message"]


EVAL_THETA = ("eval", "--level", "[[2]]", "--omega", OMEGA_I, "--w", "[[[0,0]]]")
USAGE_ERRORS = {
    "unknown-suite": ("verify", "--suite", "nope"),
    "missing-omega": ("decompose", "--input", "-"),
    "seed-not-int": ("verify", "--suite", "commutators", "--seed", "abc"),
    "detached-negative-tol": ("verify", "--suite", "quasiperiodicity", "--tol", "-1e-8"),
    "unknown-subcommand": ("nope",),
    "characteristics-seed": ("characteristics", "--level", "[[2]]", "-g", "1", "--seed", "1"),
    "characteristics-tol": ("characteristics", "--level", "[[2]]", "-g", "1", "--tol", "1e-8"),
    "eval-seed": (*EVAL_THETA, "--seed", "1"),
    # the value depends on --j and --z alone: theta is the auxiliary series at J = 0
    "eval-kind-theta": (*EVAL_THETA, "--kind", "theta"),
    "eval-kind-aux": (*EVAL_THETA, "--kind", "aux"),
}


class TestUsageErrors:
    @pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
    def test_json_error_exit_2(self, argv):
        out = run_cli(*argv)
        assert out.returncode == 2
        assert out.stderr == ""
        assert json.loads(out.stdout)["error"]["type"] == "ValueError"

    def test_reported_on_stdout_despite_out(self, tmp_path, capsys):
        path = tmp_path / "err.json"
        assert cli.main(["verify", "--suite", "nope", "--out", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ValueError"
        assert not path.exists()

    def test_help_exits_0(self):
        out = run_cli("--help")
        assert out.returncode == 0
        assert out.stdout.startswith("usage: thetadecomp")


def _subcommands():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("name", list(_subcommands()))
def test_every_option_is_read(name):
    # an option its command never reads would be accepted and silently ignored
    sub = _subcommands()[name]
    dests = {a.dest for a in sub._actions} - {"command", "help"}
    read = set(re.findall(r"\bargs\.(\w+)", inspect.getsource(getattr(cli, f"cmd_{name}"))))
    assert dests == read
