"""Self-test of the benchmark's output checks.

Each check must pass the program's true output and reject a deliberately
wrong value. Run from the repository root:

    python3 -m pytest -q bench/test_checks.py
"""

import json
import math
import os
import sys

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import layers  # noqa: E402
from lobq import analytics, estimation, xval  # noqa: E402
from lobq.model import ModelParams, QueueDist, SimConfig, simulate  # noqa: E402
from lobq.presets import CITI_LIKE_F, LIQUID_PARAMS  # noqa: E402


def test_rate_one_percent_off_is_rejected():
    p = LIQUID_PARAMS
    for rate in (p.lam, p.mu_theta):
        assert checks.check_rate("r", rate, rate, 60.0) == []
        assert checks.check_rate("r", rate + 3.9 * checks.rate_se(rate, 60.0), rate, 60.0) == []
        assert checks.check_rate("r", 1.01 * rate, rate, 60.0)
        assert checks.check_rate("r", 0.99 * rate, rate, 60.0)


def test_survival_point_moved_by_1e5_is_rejected():
    params = ModelParams.from_rates(12.0, 13.0)
    ts = np.linspace(0.0, 2.0, 21)
    surv = analytics.survival_curve(2, 3, ts, params)
    oracle = xval.oracle_survival(2, 3, ts, params)
    assert checks.check_survival(ts, surv, oracle) == []
    moved = surv.copy()
    moved[7] -= 1e-5
    assert checks.check_survival(ts, moved, oracle)
    rising = surv.copy()
    rising[8] = rising[7] + 1e-9
    assert any("increases" in p for p in checks.check_survival(ts, rising, rising))
    assert any("S(0)" in p for p in checks.check_survival(ts, surv * 0.999, surv * 0.999))


def test_p_cont_of_0_4_for_symmetric_f_is_rejected():
    f = QueueDist([(1, 1, 0.2), (1, 2, 0.4), (2, 1, 0.4)])
    pc = analytics.p_cont(f, ModelParams.from_rates(10.0, 10.0))
    assert checks.check_p_cont_symmetric(pc) == []
    assert checks.check_p_cont_symmetric(0.4)


def test_mean_duration_2_percent_off_is_rejected():
    lam, mt = 1.0, 2.0
    m = analytics.expected_duration(1, 1, ModelParams.from_rates(lam, mt))
    assert checks.check_mean_duration(m, 1, 1, lam, mt) == []
    assert checks.check_mean_duration(1.02 * m, 1, 1, lam, mt)
    assert checks.check_mean_duration(0.98 * m, 1, 1, lam, mt)
    assert any("not below" in p for p in checks.check_mean_duration(1.0, 1, 1, lam, mt))


def test_vol_identity_needs_the_sign_chain_factor():
    tick, m_f = 0.01, 0.37
    assert checks.check_vol_identity(tick / math.sqrt(m_f), m_f, 0.5, tick) == []
    fixed = tick * math.sqrt(0.4 / 0.6 / m_f)
    assert checks.check_vol_identity(fixed, m_f, 0.4, tick) == []
    # the known fault: vol = tick / sqrt(m(f)) whatever p_cont is
    problems = checks.check_vol_identity(tick / math.sqrt(m_f), m_f, 0.4, tick)
    assert problems and problems[0].startswith(checks.VOL_HALF_P_CONT)
    # any other wrong value is not the known fault
    for wrong in (1.001 * tick / math.sqrt(m_f), 0.5 * fixed, 2.0 * fixed):
        problems = checks.check_vol_identity(wrong, m_f, 0.4, tick)
        assert problems and not problems[0].startswith(checks.VOL_HALF_P_CONT)


def test_parsed_log_must_equal_the_simulated_one(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "CHUNK", 100)  # several chunks on a short log
    _, log = simulate(LIQUID_PARAMS, CITI_LIKE_F, SimConfig(seed=3, horizon_time=0.05),
                      collect_events=True)
    assert len(log) > 300
    path = str(tmp_path / "events.csv")
    log.to_csv(path)
    records = estimation.parse_event_log(path)
    simulated = checks.SavedColumns(log, lambda name: str(tmp_path / f"{name}.bin"))
    assert checks.check_event_columns(simulated, records, []) == []
    assert checks.check_event_columns(simulated, log, []) == []  # a columnar log passes too
    records[205].bid_price_after += 0.01
    assert checks.check_event_columns(simulated, records, [])
    records[205].bid_price_after -= 0.01
    records[9].side = "ask" if records[9].side == "bid" else "bid"
    assert checks.check_event_columns(simulated, records, [])
    assert checks.check_event_columns(simulated, records[:-1], [])
    assert checks.check_event_columns(simulated, log, ["1 malformed rows skipped"])
    result = estimation.estimate_intensities(records)
    assert checks.check_kind_counts(result.counts, len(records)) == []
    assert checks.check_kind_counts(result.counts, len(records) + 1)
    simulated.remove()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.csv"]


def test_replenishment_law_far_off_is_rejected():
    f = CITI_LIKE_F.as_dict()
    assert checks.check_replenishment(f, f) == []
    shifted = dict(f)
    shifted[(1, 1)] -= 0.05
    shifted[(1, 2)] += 0.05
    assert checks.check_replenishment(shifted, f)


def test_prob_up_grid_properties():
    phi = np.array([[analytics.prob_up_balanced(n, p) for p in range(1, 5)] for n in range(1, 5)])
    assert checks.check_prob_up_grid(phi) == []
    bad = phi.copy()
    bad[0, 1] += 1e-6
    assert checks.check_prob_up_grid(bad)


def test_sign_chain_and_tail_law():
    pc, p1 = 0.3, 0.7
    g = 2 * pc - 1
    autocov = [g ** (k - 1) for k in range(1, 4)]
    p_n = [0.5 * (1 + g ** (k - 1) * (2 * p1 - 1)) for k in range(1, 4)]
    assert checks.check_sign_chain(pc, autocov, p1, p_n) == []
    assert checks.check_sign_chain(pc, autocov, p1, [p + 1e-6 for p in p_n])
    for lam, mt in ((12.0, 13.0), (10.0, 10.0)):
        law = analytics.tail_law(2, 3, ModelParams.from_rates(lam, mt))
        assert checks.check_tail_law(law, 2, 3, lam, mt) == []
        assert checks.check_tail_law(law, 2, 4, lam, mt)


def test_xval_report_failures_are_reported():
    passed = {"criteria": [{"number": 2, "passed": True, "reports": []}]}
    failed = {"criteria": [{"number": 2, "passed": False,
                            "reports": [{"quantity": "tail_slope", "passed": False}]}]}
    assert checks.check_xval_report(passed, 0, 2) == []
    assert any("tail_slope" in p for p in checks.check_xval_report(failed, 0, 2))
    assert any("exited 3" in p for p in checks.check_xval_report(passed, 3, 2))
    assert checks.check_xval_report(passed, 0, 1)
    assert checks.check_xval_report({"criteria": []}, 0, 2)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.METRICS
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "peak_rss_mb", "unit_s"]
    assert [w["name"] for w in spec["workloads"]] == ["calibrate-liquid", "price-stats", "xval"]


def test_runner_keeps_known_faults_apart_from_wrong_outputs():
    import run
    import workloads

    def ops(r, problem, fault):
        return [
            workloads.Operation("ok", (r,), lambda: 1, lambda out: []),
            workloads.Operation("vol", (r,), lambda: 2, lambda out: [problem], known_fault=fault),
        ]

    class Known:
        def round(self, r):
            return ops(r, checks.VOL_HALF_P_CONT + ": off", checks.VOL_HALF_P_CONT)

    class Wrong:
        def round(self, r):
            return ops(r, "vol identity: off", checks.VOL_HALF_P_CONT)

    m = run.measure(Known(), 0.0, run.Timer())
    assert (m["rounds"], m["attempted"], m["failed"], m["unexpected"]) == (1, 2, 1, [])
    m = run.measure(Wrong(), 0.0, run.Timer())
    assert (m["attempted"], m["failed"], len(m["unexpected"])) == (2, 1, 1)


def test_a_check_or_operation_that_raises_counts_as_failed():
    import run
    import workloads

    def broken(out):
        raise KeyError("p_cont")

    def fails():
        raise ValueError("no log")

    class Raises:
        def round(self, r):
            return [workloads.Operation("vol", (r,), lambda: 0, broken),
                    workloads.Operation("parse", (r,), fails, lambda out: []),
                    workloads.Operation("ok", (r,), lambda: 1, lambda out: [])]

    m = run.measure(Raises(), 0.0, run.Timer())
    assert (m["attempted"], m["failed"], len(m["unexpected"])) == (3, 2, 2)
    assert "check raised KeyError" in m["unexpected"][0]
    assert "parse raised ValueError" in m["unexpected"][1]


def test_timer_scales_wall_time_by_the_reference_speed():
    import run

    timer = run.Timer()
    assert math.isclose(timer.scale(10.0, 2 * run.REFERENCE_S, 2 * run.REFERENCE_S), 5.0)
    out, error, wall, scaled = timer.time(lambda: 7)
    assert (out, error) == (7, None) and len(timer.references) == 2
    assert math.isclose(scaled, timer.scale(wall, *timer.references))
def test_price_stats_books_use_the_shipped_laws():
    import workloads
    from lobq.presets import BALANCED_F, UNBALANCED_F

    books = workloads.draw_books(7, 0)
    laws = [(b.kind, b.f) for b in books]
    assert laws == [("slow", UNBALANCED_F), ("slow", CITI_LIKE_F),
                    ("liquid", UNBALANCED_F), ("liquid", CITI_LIKE_F),
                    ("balanced", BALANCED_F), ("balanced", CITI_LIKE_F)]
    assert len({(b.lam, b.mu_theta) for b in books}) == len(books)
