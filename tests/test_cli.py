"""Command-line interface: JSON output and the exit-code contract."""

import json
import subprocess
import sys

import pytest

from thetadecomp import cli, errors

OMEGA_I = "[[[0,1]]]"


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "thetadecomp.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
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

    def test_hex_g2_has_nine(self):
        out = run_cli("characteristics", "--level", "[[2,1],[1,2]]", "-g", "2")
        assert out.returncode == 0
        assert len(json.loads(out.stdout)) == 9

    def test_deterministic_bytes(self):
        a = run_cli("characteristics", "--level", "[[4]]", "-g", "1")
        b = run_cli("characteristics", "--level", "[[4]]", "-g", "1")
        assert a.stdout == b.stdout


class TestEval:
    def test_theta_value(self):
        out = run_cli(
            "eval", "--kind", "theta", "--level", "[[2]]",
            "--omega", OMEGA_I, "--w", "[[[0,0]]]",
        )
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert abs(data["value"][0] - 1.0037348854877393) < 1e-9
        assert abs(data["value"][1]) < 1e-12
        assert data["tail_bound"] < 1e-12

    def test_aux_j0_equals_theta(self):
        theta = run_cli(
            "eval", "--kind", "theta", "--level", "[[2]]",
            "--omega", OMEGA_I, "--w", "[[[0.05,0.1]]]",
        )
        aux = run_cli(
            "eval", "--kind", "aux", "--level", "[[2]]",
            "--omega", OMEGA_I, "--w", "[[[0.05,0.1]]]", "--z", "[[[0.3,0.2]]]",
        )
        assert theta.returncode == 0 and aux.returncode == 0
        assert json.loads(theta.stdout)["value"] == json.loads(aux.stdout)["value"]

    def test_aux_j1_odd_symmetry(self):
        out = run_cli(
            "eval", "--kind", "aux", "--level", "[[2]]", "--j", "[[1]]",
            "--omega", OMEGA_I, "--w", "[[[0,0]]]",
        )
        data = json.loads(out.stdout)
        assert abs(complex(*data["value"])) < 1e-10

    def test_bad_level_exits_2(self):
        out = run_cli(
            "eval", "--kind", "theta", "--level", "[[1]]",
            "--omega", OMEGA_I, "--w", "[[[0,0]]]",
        )
        assert out.returncode == 2

    def test_unreachable_tail_exits_3(self):
        out = run_cli(
            "eval", "--kind", "theta", "--level", "[[2]]",
            "--omega", OMEGA_I, "--w", "[[[0,60]]]",
        )
        assert out.returncode == 3


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

    def test_malformed_input_exits_2(self):
        out = run_cli("decompose", "--input", "-", "--omega", OMEGA_I, stdin="{not json")
        assert out.returncode == 2

    def test_out_flag_writes_file(self, tmp_path):
        expr = {"kind": "deriv", "level": [[2]], "j": [[0]], "char_index": 1}
        path = tmp_path / "dec.json"
        out = run_cli("decompose", "--input", "-", "--omega", OMEGA_I,
                      "--out", str(path), stdin=json.dumps(expr))
        assert out.returncode == 0
        assert out.stdout == ""
        data = json.loads(path.read_text())
        assert data["element"][0]["char_index"] == 1


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
    json.JSONDecodeError("boom", "{", 0),
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

    def test_residual_too_large_exits_4(self, tmp_path):
        src = tmp_path / "in.json"
        src.write_text(json.dumps(THETA_PRODUCT))
        out = tmp_path / "out.json"
        rc = cli.main(["decompose", "--input", str(src), "--omega", OMEGA_I,
                       "--tol", "1e-300", "--out", str(out)])
        assert rc == 4
        assert json.loads(out.read_text())["error"]["type"] == "ResidualTooLargeError"

    def test_failed_verification_exits_1(self, tmp_path):
        out = tmp_path / "report.json"
        rc = cli.main(["verify", "--suite", "quasiperiodicity", "--tol", "1e-300",
                       "--out", str(out)])
        assert rc == 1
        assert json.loads(out.read_text())["passed"] is False
