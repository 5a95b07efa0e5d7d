"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from thetadecomp.algebra import AlgebraElement, BasisSymbol, evaluate_element
from thetadecomp.decompose import FitConfig, fit_in_basis
from thetadecomp.evaluation import truncation_config
from thetadecomp.numerics import (
    MultiIndex,
    PeriodMatrix,
    enumerate_characteristics,
    validate_level,
)
from thetadecomp.verify import (
    run_commutator_suite,
    run_quasiperiodicity_suite,
    run_theorem3_suite,
)


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description} ({time.perf_counter() - started:.2f}s)")


@pytest.fixture(scope="module")
def qp_report():
    started = time.perf_counter()
    report = run_quasiperiodicity_suite(seed=0)
    return report, time.perf_counter() - started


@pytest.fixture(scope="module")
def commutator_report():
    started = time.perf_counter()
    report = run_commutator_suite(seed=0)
    return report, time.perf_counter() - started


@pytest.fixture(scope="module")
def theorem3_report():
    return run_theorem3_suite(seed=0)


def test_criterion_1_dimension_counts():
    with criterion(1, "characteristic counts equal det(M)^g, pairwise distinct"):
        started = time.perf_counter()
        for rows, g in (([[2]], 1), ([[2]], 2), ([[4]], 1),
                        ([[2, 1], [1, 2]], 1), ([[2, 1], [1, 2]], 2)):
            level = validate_level(rows)
            chars = enumerate_characteristics(level, g)
            assert len(chars) == level.det() ** g
            assert len({c.a for c in chars}) == len(chars)
        assert time.perf_counter() - started < 1.0


def test_criterion_2_quasi_periodicity(qp_report):
    report, elapsed = qp_report
    with criterion(2, "shift-law residuals < 1e-8 over 100 cases per configuration"):
        assert all(c["cases"] >= 100 for c in report["configs"])
        assert all(c["max_residual"] < 1e-8 for c in report["configs"])
        assert report["passed"]
        assert elapsed < 30.0


def test_criterion_3_shift_operator(qp_report):
    report, elapsed = qp_report
    with criterion(3, "ladder identity residuals < 1e-6 over 50 cases per configuration"):
        assert all(c["shift_cases"] >= 50 for c in report["configs"])
        assert all(c["max_shift_residual"] < 1e-6 for c in report["configs"])
        assert elapsed < 30.0


def test_shift_residuals_take_the_richardson_derivative(qp_report):
    # a plain central difference leaves residuals of 3e-9 to 2e-8 at seed 0
    report, _ = qp_report
    assert all(c["max_shift_residual"] < 1e-9 for c in report["configs"])


def test_criterion_4_bracket_relations(commutator_report):
    report, elapsed = commutator_report
    with criterion(4, "all five bracket families exact on |J| <= 3 symbols"):
        assert report["bracket_violations"] == 0
        assert report["symbols_checked"] >= 500
        assert elapsed < 1.0


def test_criterion_5_kernel_characterization(commutator_report):
    report, _ = commutator_report
    with criterion(5, "operator and structural kernel tests agree on 200 elements"):
        assert report["kernel_elements"] == 200
        assert report["kernel_disagreements"] == 0


def test_criterion_6_fit_round_trip():
    with criterion(6, "50 random elements recovered, sup-error < 1e-6, residual < 1e-8"):
        started = time.perf_counter()
        level = validate_level([[2]])
        omega = PeriodMatrix([[1j]])
        chars = enumerate_characteristics(level, 1)
        symbols = [
            BasisSymbol(level, MultiIndex.from_rows([[d]]), ch)
            for d in range(3)
            for ch in chars
        ]
        rng = np.random.default_rng(2024)
        eval_cfg = truncation_config(level, omega, 0.4, 2)
        for trial in range(50):
            n_terms = int(rng.integers(1, len(symbols) + 1))
            picked = rng.choice(len(symbols), size=n_terms, replace=False)
            x = AlgebraElement(
                {symbols[i]: complex(rng.normal(), rng.normal()) for i in picked}
            )
            f = lambda z, w: evaluate_element(x, omega, z, w, eval_cfg).value
            dec = fit_in_basis(f, level, 2, omega, FitConfig(seed=trial))
            syms = set(x.terms()) | set(dec.element.terms())
            sup = max(abs(x.terms().get(s, 0) - dec.element.terms().get(s, 0)) for s in syms)
            assert sup < 1e-6
            assert dec.residual < 1e-8
        assert time.perf_counter() - started < 60.0


def test_criterion_7_theorem3_expression_set(theorem3_report):
    with criterion(7, "decompositions match the exact W-derivatives at Z=0 within 1e-5"):
        by_name = {e["expression"]: e for e in theorem3_report["expressions"]}
        for name in ("single_j0", "single_j1", "single_j2",
                     "theta_product", "wronskian", "syntactic_zero"):
            entry = by_name[name]
            assert entry["residual"] < 1e-5, name
            assert entry["max_z0_residual"] < 1e-5, name
        assert by_name["syntactic_zero"]["terms"] == 0
        assert theorem3_report["passed"]


def test_criterion_8_uniqueness_across_seeds(theorem3_report):
    with criterion(8, "second-seed coefficients agree within 1e-6 sup norm"):
        for entry in theorem3_report["expressions"]:
            assert entry["seed_agreement"] < 1e-6, entry["expression"]


def test_theorem3_products_match_their_fit(theorem3_report):
    # seed_agreement compares the addition formula's coefficients with a least-squares
    # fit of the same products at a second seed
    for entry in theorem3_report["expressions"]:
        assert entry["seed_agreement"] < 1e-10, entry["expression"]


def test_criterion_9_byte_identical_reports(tmp_path):
    with criterion(9, "verify --suite all --seed 0 is byte-identical across runs"):
        outputs = []
        for run in range(2):
            path = tmp_path / f"report{run}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "thetadecomp.cli", "verify",
                 "--suite", "all", "--seed", "0", "--out", str(path)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["passed"] is True
