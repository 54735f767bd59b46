"""Per-layer metrics computed from a traced run.

Times are inclusive busy seconds per round: the time during which at least
one span of the named functions was open, divided by the rounds the run
made. Layers overlap where one calls another (mean durations integrate
survival functions through the quadrature), so the times do not add up to
the run. Rates divide a work count by the busy time of the functions that
did the work.
"""

from __future__ import annotations

SURVIVAL = ("analytics.psi", "analytics.queue_survival", "analytics.survival_duration",
            "analytics.survival_curve", "analytics.tail_law")
HITTING = ("analytics.hitting_laplace", "analytics.prob_up_balanced", "analytics.prob_up_numeric",
           "analytics.prob_up", "analytics.p_cont", "analytics.p_n", "analytics.autocov_moves")
PHI = ("analytics.prob_up_balanced",)
MEAN_DURATION = ("analytics.expected_duration", "analytics.expected_duration_raw",
                 "analytics.expected_duration_f")
SPARSE_SOLVE = ("scipy.spsolve",)
QUAD = ("numerics.integrate_finite", "numerics.integrate_semi_infinite")
SIMULATE = ("model.simulate",)
EVENT_LOG_WRITE = ("model.EventLog.to_csv", "model.EventLog.write")
FIRST_PASSAGE = ("model.sample_first_passage",)
MOVE_SIGNS = ("model.sample_move_signs",)
PRICE_AT = ("model.sample_price_at",)
PARSE = ("estimation.parse_event_log", "estimation.parse_event_log_with_report")
ESTIMATORS = ("estimation.estimate_intensities", "estimation.estimate_replenishment")
PREDICT = ("estimation.predicted_vs_realized",)
# the criteria of the xval workload (see workloads.Certify)
CRITERIA = (1, 2, 4, 7)

# (name, unit, better), in the order of BENCHMARK.json's per_layer list.
METRICS = [
    ("model.simulate_s", "s", "lower"),
    ("model.simulate_events_per_s", "events/s", "higher"),
    ("model.event_log_write_s", "s", "lower"),
    ("model.first_passage_s", "s", "lower"),
    ("model.first_passage_paths_per_s", "paths/s", "higher"),
    ("model.move_signs_s", "s", "lower"),
    ("model.move_signs_per_s", "moves/s", "higher"),
    ("model.price_at_s", "s", "lower"),
    ("model.price_at_events_per_s", "events/s", "higher"),
    ("estimation.parse_s", "s", "lower"),
    ("estimation.rows_parsed_per_s", "rows/s", "higher"),
    ("estimation.estimate_s", "s", "lower"),
    ("estimation.estimator_calls", "calls/log", "lower"),
    ("estimation.predict_s", "s", "lower"),
    ("analytics.survival_s", "s", "lower"),
    ("analytics.hitting_s", "s", "lower"),
    ("analytics.phi_s", "s", "lower"),
    ("analytics.mean_duration_s", "s", "lower"),
    ("analytics.sparse_solve_s", "s", "lower"),
    ("analytics.sparse_solve_unknowns", "count", "lower"),
    ("numerics.quad_s", "s", "lower"),
    ("numerics.quad_calls", "count", "lower"),
    ("numerics.integrand_evals", "count", "lower"),
    *[(f"xval.criterion_{k}_s", "s", "lower") for k in CRITERIA],
    ("xval.oracle_survival_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0.0 else 0.0


def per_layer(tr, rounds: int, overhead_s: float) -> dict[str, float]:
    """Every metric of METRICS from a tracer's spans and counters."""
    n = float(rounds)
    busy = tr.busy
    count = tr.counts.get
    sim, fp, ms, pa = busy(SIMULATE), busy(FIRST_PASSAGE), busy(MOVE_SIGNS), busy(PRICE_AT)
    parse = busy(PARSE)
    logs = tr.calls(PARSE, outermost=True)
    values = {
        "model.simulate_s": sim / n,
        "model.simulate_events_per_s": _rate(count("simulate_events", 0.0), sim),
        "model.event_log_write_s": busy(EVENT_LOG_WRITE) / n,
        "model.first_passage_s": fp / n,
        "model.first_passage_paths_per_s": _rate(count("first_passage_paths", 0.0), fp),
        "model.move_signs_s": ms / n,
        "model.move_signs_per_s": _rate(count("move_signs", 0.0), ms),
        "model.price_at_s": pa / n,
        "model.price_at_events_per_s": _rate(count("price_at_events", 0.0), pa),
        "estimation.parse_s": parse / n,
        "estimation.rows_parsed_per_s": _rate(count("rows_parsed", 0.0), parse),
        "estimation.estimate_s": busy(ESTIMATORS) / n,
        "estimation.estimator_calls": tr.calls(ESTIMATORS) / logs if logs else 0.0,
        "estimation.predict_s": busy(PREDICT) / n,
        "analytics.survival_s": busy(SURVIVAL) / n,
        "analytics.hitting_s": busy(HITTING) / n,
        "analytics.phi_s": busy(PHI) / n,
        "analytics.mean_duration_s": busy(MEAN_DURATION) / n,
        "analytics.sparse_solve_s": busy(SPARSE_SOLVE) / n,
        "analytics.sparse_solve_unknowns": count("sparse_unknowns", 0.0) / n,
        "numerics.quad_s": busy(QUAD) / n,
        "numerics.quad_calls": tr.calls(QUAD) / n,
        "numerics.integrand_evals": tr.integrand_evals[0] / n,
        **{f"xval.criterion_{k}_s": busy([f"xval.criterion_{k}"]) / n for k in CRITERIA},
        "xval.oracle_survival_s": busy(["xval.oracle_survival"]) / n,
        "cli.self_s": tr.self_time("cli.") / n,
        "trace.overhead_s": overhead_s / n,
    }
    return values
