"""Acceptance suite: the numbered cross-validation criteria at full size.

Each test runs one criterion at its pinned parameters, tolerances and
runtime ceiling, and prints a PASS/FAIL line. Criterion 2 checks the
duration's tail law in both regimes: a pure power law for balanced flow,
and t^-3 e^{-2 rho t} for drift-dominated flow. Criterion 9 runs criteria
1-8 end to end through `lobq xval` and checks its exit code. Criterion 10
checks the unbalanced diffusion limit under an asymmetric replenishment law.
"""

import json
import subprocess
import sys
import time

from lobq import xval

BUDGETS = {
    1: 60.0,
    2: 30.0,
    3: 60.0,
    4: 120.0,
    5: 120.0,
    6: 600.0,
    7: 600.0,
    8: 300.0,
    10: 600.0,
}


def _run(number: int):
    t0 = time.perf_counter()
    res = xval.run_criterion(number)
    elapsed = time.perf_counter() - t0
    status = "PASS" if res.passed else "FAIL"
    print(f"criterion {number}: {status}  {res.title}  [{elapsed:.1f}s]", file=sys.stderr)
    assert elapsed <= BUDGETS[number], f"criterion {number} exceeded its {BUDGETS[number]}s budget"
    return res


def _failures(res):
    return [
        f"{r.quantity}: dev={r.max_abs_dev:.3e} tol={r.tolerance} se={r.se}"
        for r in res.reports
        if not r.passed
    ]


def test_criterion_1_duration_law():
    res = _run(1)
    assert res.passed, _failures(res)


def test_criterion_2_tail_exponents():
    res = _run(2)
    assert res.passed, _failures(res)


def test_criterion_3_hitting_probability():
    res = _run(3)
    assert res.passed, _failures(res)
    sylvester = res.reports[3]
    assert sylvester.quantity == "prob_up_vs_sylvester" and sylvester.max_abs_dev <= 1e-10


def test_criterion_4_price_change_chain():
    res = _run(4)
    assert res.passed, _failures(res)
    assert res.reports[0].quantity == "p_cont_sign"


def test_criterion_5_expected_duration():
    res = _run(5)
    assert res.passed, _failures(res)


def test_criterion_6_balanced_diffusion():
    res = _run(6)
    assert res.passed, _failures(res)


def test_criterion_7_unbalanced_diffusion():
    res = _run(7)
    assert res.passed, _failures(res)


def test_criterion_8_estimation_recovery():
    res = _run(8)
    assert res.passed, _failures(res)


def test_criterion_10_asymmetric_unbalanced_diffusion():
    res = _run(10)
    assert res.passed, _failures(res)


class TestCriterion9EndToEnd:
    def test_xval_cli_runs_criteria_1_to_8_exit_zero(self, tmp_path):
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "lobq.cli", "xval", "--criteria", "1-8",
             "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=1800,
        )
        print(proc.stdout, file=sys.stderr)
        payload = json.loads(out.read_text())
        by_number = {c["number"]: c["passed"] for c in payload["criteria"]}
        assert set(by_number) == set(range(1, 9))
        # exit 0 requires every criterion green
        assert proc.returncode == 0, (
            f"xval exited {proc.returncode}; failing criteria: "
            f"{[k for k, ok in by_number.items() if not ok]}"
        )

    def test_identical_seeds_byte_identical_reports(self, tmp_path):
        blobs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "lobq.cli", "xval", "--criteria", "1,3",
                 "--seed", "4321", "--out", str(out)],
                capture_output=True,
                timeout=600,
            )
            assert proc.returncode == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
