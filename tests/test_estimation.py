import gzip
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lobq import estimation
from lobq.estimation import (
    EstimationError,
    estimate_intensities,
    estimate_replenishment,
    parse_event_log,
    parse_event_log_with_report,
    predicted_vs_realized,
    realized_volatility,
)
from lobq.model import KIND_NAMES, SIDE_NAMES, EventLog, ModelParams, QueueDist, SimConfig, simulate
from lobq.presets import BALANCED_F, CITI_LIKE_F, UNBALANCED_F

HEADER = "timestamp,side,kind,bid_queue_after,ask_queue_after,bid_price_after\n"


def event_log(*rows):
    """EventLog from (timestamp, side, kind, bid_queue, ask_queue, bid_price) rows."""
    t, side, kind, qb, qa, px = zip(*rows) if rows else ((),) * 6
    return EventLog(
        t=np.array(t, dtype=float),
        side=np.array([SIDE_NAMES.index(s) for s in side], dtype=np.int8),
        kind=np.array([KIND_NAMES.index(k) for k in kind], dtype=np.int8),
        bid_queue_after=np.array(qb, dtype=np.int64),
        ask_queue_after=np.array(qa, dtype=np.int64),
        bid_price_after=np.array(px, dtype=float),
    )


COLUMNS = ("t", "side", "kind", "bid_queue_after", "ask_queue_after", "bid_price_after")


def write_log(path, rows, header=HEADER):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for row in rows:
            fh.write(row + "\n")


class TestParse:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "log.csv"
        write_log(p, [])
        assert len(parse_event_log(str(p))) == 0

    def test_three_rows_round_trip_fields(self, tmp_path):
        p = tmp_path / "log.csv"
        write_log(p, [
            "0.5,bid,limit,3,2,100.0",
            "0.75,ask,market,3,1,100.0",
            "1.0,ask,cancel,2,3,100.5",
        ])
        log = parse_event_log(str(p))
        want = event_log(
            (0.5, "bid", "limit", 3, 2, 100.0),
            (0.75, "ask", "market", 3, 1, 100.0),
            (1.0, "ask", "cancel", 2, 3, 100.5),
        )
        for name in COLUMNS:
            got, expected = getattr(log, name), getattr(want, name)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), name

    def test_malformed_rows_collected(self, tmp_path):
        rows = [f"{0.1 * k},bid,limit,1,1,100.0" for k in range(1, 300)]
        rows[10] = "bogus line"
        rows[20] = "2.0,bid,teleport,1,1,100.0"
        p = tmp_path / "log.csv"
        write_log(p, rows)
        with pytest.warns(UserWarning, match="malformed"):
            log = parse_event_log(str(p))
        assert len(log) == 297
        _, report = parse_event_log_with_report(str(p))
        lines = [ln for ln, _ in report.malformed]
        assert lines == [12, 22]  # header is line 1

    def test_non_finite_timestamp_or_price_is_malformed(self, tmp_path):
        # a kept nan timestamp would hide the decreases after it
        rows = [
            "1.0,bid,limit,1,1,100.0",
            "nan,bid,limit,1,1,100.0",
            "0.5,bid,limit,1,1,100.0",
            "0.2,bid,limit,1,1,100.0",
            "inf,bid,limit,1,1,nan",
            "1.5,ask,limit,1,1,-inf",
        ] + [f"{1.0 + 0.01 * k!r},ask,market,2,3,100.0" for k in range(1, 496)]
        p = tmp_path / "log.csv"
        write_log(p, rows)
        with pytest.warns(UserWarning, match="5 malformed rows skipped"):
            log = parse_event_log(str(p))
        _, report = parse_event_log_with_report(str(p))
        assert report.malformed == [
            (3, "non-finite timestamp or price"),
            (4, "timestamp decreased"),
            (5, "timestamp decreased"),
            (6, "non-finite timestamp or price"),
            (7, "non-finite timestamp or price"),
        ]
        assert len(log) == 496 and log.t[0] == 1.0
        assert np.isfinite(log.t).all() and np.isfinite(log.bid_price_after).all()

    def test_too_many_malformed_aborts(self, tmp_path):
        rows = ["garbage"] * 5 + ["1.0,bid,limit,1,1,100.0"] * 10
        p = tmp_path / "log.csv"
        write_log(p, rows)
        with pytest.raises(EstimationError, match="malformed"):
            parse_event_log_with_report(str(p))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(EstimationError):
            parse_event_log(str(tmp_path / "missing.csv"))

    def test_bad_header(self, tmp_path):
        p = tmp_path / "log.csv"
        write_log(p, ["1.0,bid,limit,1,1,100.0"], header="a,b,c\n")
        with pytest.raises(EstimationError, match="header"):
            parse_event_log(str(p))

    def test_gzip_accepted(self, tmp_path):
        p = tmp_path / "log.csv.gz"
        with gzip.open(p, "wt", encoding="utf-8") as fh:
            fh.write(HEADER)
            fh.write("1.0,ask,limit,2,3,100.0\n")
        log = parse_event_log(str(p))
        assert len(log) == 1 and log.ask_queue_after[0] == 3

    def test_batch_size_rescale(self, tmp_path):
        p = tmp_path / "log.csv"
        write_log(p, ["1.0,bid,limit,300,200,100.0"])
        log = parse_event_log(str(p), batch_size=100)
        assert (log.bid_queue_after[0], log.ask_queue_after[0]) == (3, 2)

    def test_simulator_round_trip(self, tmp_path, f_symmetric):
        params = ModelParams(lam=50.0, mu=30.0, theta=20.0, tick=0.01)
        path, log = simulate(
            params, f_symmetric, SimConfig(seed=42, horizon_time=5.0), collect_events=True
        )
        p = tmp_path / "log.csv"
        log.to_csv(str(p))
        parsed = parse_event_log(str(p))
        assert len(parsed) == len(log)
        assert parsed.t[0] == float(log.t[0])
        assert parsed.bid_price_after[-1] == float(log.bid_price_after[-1])
        assert np.array_equal(parsed.side, log.side)


class TestIntensities:
    def test_empty_log(self):
        with pytest.raises(EstimationError):
            estimate_intensities(event_log())

    def test_single_event_per_side_rate(self):
        log = event_log((0.4, "bid", "limit", 2, 2, 100.0))
        with pytest.warns(UserWarning):
            res = estimate_intensities(log, span=1.0)
        assert res.per_side["lambda"]["bid"] == pytest.approx(1.0)
        assert res.per_side["lambda"]["ask"] == 0.0
        assert res.lambda_hat == pytest.approx(0.5)  # averaged over sides

    def test_zero_removals_warns(self):
        log = event_log((0.5, "bid", "limit", 2, 2, 100.0),
                        (1.0, "ask", "limit", 2, 3, 100.0))
        with pytest.warns(UserWarning, match="market"):
            res = estimate_intensities(log)
        assert res.mu_theta_hat == 0.0

    def test_recovers_simulated_rates(self, tmp_path, f_symmetric):
        params = ModelParams(lam=300.0, mu=200.0, theta=120.0)
        horizon = 20.0
        _, log = simulate(
            params, f_symmetric, SimConfig(seed=3, horizon_time=horizon), collect_events=True
        )
        p = tmp_path / "log.csv"
        log.to_csv(str(p))
        res = estimate_intensities(parse_event_log(str(p)), span=horizon)
        se_lam = math.sqrt(2 * params.lam * horizon) / (2 * horizon)
        se_mt = math.sqrt(2 * params.mu_theta * horizon) / (2 * horizon)
        assert abs(res.lambda_hat - params.lam) <= 3 * se_lam
        assert abs(res.mu_theta_hat - params.mu_theta) <= 3 * se_mt
        assert res.balance_diagnostic < 0.2

    def test_consistency_rate_one_over_sqrt_T(self, f_symmetric):
        # RMS estimation error over replicate runs scales like T^(-1/2)
        params = ModelParams(lam=40.0, mu=30.0, theta=14.0)
        spans = [15.0, 60.0, 240.0]
        rms = []
        for t_idx, horizon in enumerate(spans):
            errs = []
            for rep in range(24):
                _, log = simulate(
                    params, f_symmetric,
                    SimConfig(seed=1000 + rep, horizon_time=horizon, path_index=t_idx),
                    collect_events=True,
                )
                n_limit = int(np.sum(log.kind == 0))
                lam_hat = n_limit / (2.0 * horizon)
                errs.append((lam_hat - params.lam) ** 2)
            rms.append(math.sqrt(np.mean(errs)))
        slope = np.polyfit(np.log(spans), np.log(rms), 1)[0]
        assert abs(slope + 0.5) <= 0.15

    def test_json_output(self):
        log = event_log((1.0, "bid", "limit", 2, 2, 100.0))
        with pytest.warns(UserWarning):
            res = estimate_intensities(log)
        text = res.to_json()
        assert '"lambda_hat"' in text


class TestReplenishment:
    def test_single_up_move_point_mass(self):
        log = event_log(
            (0.1, "ask", "limit", 2, 2, 100.0),
            (0.2, "ask", "market", 3, 7, 100.5),
        )
        f_hat = estimate_replenishment(log, tick=0.5)
        assert f_hat.as_dict() == {(3, 7): 1.0}

    def test_no_changes_raises(self):
        log = event_log((0.1, "ask", "limit", 2, 2, 100.0))
        with pytest.raises(EstimationError, match="no price changes"):
            estimate_replenishment(log, tick=0.5)

    def test_pooling_uses_swapped_down_moves(self):
        log = event_log(
            (0.1, "ask", "limit", 2, 2, 100.0),
            (0.2, "ask", "market", 3, 7, 100.5),   # up -> (3,7)
            (0.3, "bid", "market", 6, 4, 100.0),   # down -> swap to (4,6)
        )
        pooled = estimate_replenishment(log, tick=0.5)
        assert pooled.as_dict() == {(3, 7): 0.5, (4, 6): 0.5}
        up_only = estimate_replenishment(log, tick=0.5, pool_symmetric=False)
        assert up_only.as_dict() == {(3, 7): 1.0}

    def test_multi_tick_jump_excluded(self):
        log = event_log(
            (0.1, "ask", "limit", 2, 2, 100.0),
            (0.2, "ask", "market", 3, 7, 101.5),   # 3-tick gap jump
            (0.3, "ask", "market", 2, 5, 102.0),   # clean up move
        )
        with pytest.warns(UserWarning, match="multi-tick"):
            f_hat = estimate_replenishment(log, tick=0.5)
        assert f_hat.as_dict() == {(2, 5): 1.0}

    def test_recovers_generator_distribution(self, tmp_path):
        params = ModelParams(lam=500.0, mu=400.0, theta=150.0, tick=0.01)
        _, log = simulate(
            params, CITI_LIKE_F, SimConfig(seed=6, horizon_time=30.0), collect_events=True
        )
        p = tmp_path / "log.csv"
        log.to_csv(str(p))
        f_hat = estimate_replenishment(parse_event_log(str(p)), tick=params.tick)
        tv = 0.5 * sum(
            abs(CITI_LIKE_F.as_dict().get(k, 0.0) - f_hat.as_dict().get(k, 0.0))
            for k in set(CITI_LIKE_F.as_dict()) | set(f_hat.as_dict())
        )
        assert tv <= 0.04
        assert f_hat.upper_mass() > 0.7


class TestRealizedVolatility:
    def test_constant_price(self):
        t = np.arange(1, 100, dtype=float)
        p = np.full(t.size, 50.0)
        assert realized_volatility(t, p, 10.0) == 0.0

    def test_deterministic_drift(self):
        # one +tick per window: increments equal, sample SD is zero
        t = np.arange(1, 101, dtype=float)
        p = 100.0 + 0.5 * np.floor(t / 10.0)
        assert realized_volatility(t, p, 10.0) == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_span(self):
        with pytest.raises(EstimationError):
            realized_volatility([1.0, 2.0], [1.0, 1.0], 10.0)

    def test_balanced_path_matches_prediction(self):
        from lobq.analytics import depth

        params = ModelParams.from_rates(5.0, 5.0)
        window = 300.0
        horizon = 150 * window
        path = simulate(params, BALANCED_F, SimConfig(seed=88, horizon_time=horizon))
        sigma_r = realized_volatility(path.change_times, path.prices(path.change_times), window)
        n_idx = estimation._window_index(window, horizon, params.lam, depth(BALANCED_F))
        predicted = params.tick * math.sqrt(math.pi * n_idx * params.lam / depth(BALANCED_F))
        assert abs(sigma_r / predicted - 1.0) <= 0.15


class TestPredictedVsRealized:
    def _make_log(self, params, f, horizon, seed, tmp_path, name):
        _, log = simulate(params, f, SimConfig(seed=seed, horizon_time=horizon),
                          collect_events=True)
        p = tmp_path / f"{name}.csv"
        log.to_csv(str(p))
        return parse_event_log(str(p))

    def test_single_asset_ratio_constant(self, tmp_path):
        params = ModelParams.from_rates(5.0, 5.0)
        log = self._make_log(params, BALANCED_F, 150 * 300.0, 90, tmp_path, "a")
        rep = predicted_vs_realized(log, window=300.0)
        row = rep["assets"][0]
        assert row["realized_over_sqrt"] == pytest.approx(row["expected_ratio_constant"], rel=0.15)
        assert row["realized_over_predicted"] == pytest.approx(1.0, abs=0.15)

    def test_two_assets_depth_ratio(self, tmp_path):
        params = ModelParams.from_rates(5.0, 5.0)
        f_deep = QueueDist([(2, 28, 0.5), (28, 2, 0.5)])  # queue sizes doubled: D x4
        logs = {
            "thin": self._make_log(params, BALANCED_F, 150 * 300.0, 91, tmp_path, "thin"),
            "deep": self._make_log(params, f_deep, 150 * 300.0, 92, tmp_path, "deep"),
        }
        rep = predicted_vs_realized(logs, window=300.0)
        rows = {r["asset"]: r for r in rep["assets"]}
        assert rows["deep"]["depth_hat"] == pytest.approx(4 * rows["thin"]["depth_hat"], rel=0.1)
        pred_ratio = rows["thin"]["predicted_sigma"] / rows["deep"]["predicted_sigma"]
        real_ratio = rows["thin"]["realized_sigma"] / rows["deep"]["realized_sigma"]
        # four-fold depth halves the predicted window volatility, up to a
        # logarithmic span correction of order 7% at this record length
        assert pred_ratio == pytest.approx(2.0, rel=0.10)
        assert real_ratio == pytest.approx(pred_ratio, rel=0.25)

    def test_empty_log_structured_error(self):
        with pytest.raises(EstimationError):
            predicted_vs_realized(event_log(), window=10.0)


class TestEventLogInput:
    def test_columns_of_unequal_length_rejected(self):
        log = event_log((0.5, "bid", "limit", 2, 2, 100.0), (1.0, "ask", "cancel", 2, 1, 100.0))
        with pytest.raises(ValueError, match="differ in length"):
            EventLog(log.t, log.side, log.kind, log.bid_queue_after,
                     log.ask_queue_after[:1], log.bid_price_after)


class TestParseProperties:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        lam=st.floats(0.5, 50.0),
        mu=st.floats(0.0, 30.0),
        theta=st.floats(0.1, 30.0),
        tick=st.floats(1e-4, 10.0),
        initial_price=st.floats(-1e3, 1e3),
        f=st.sampled_from([CITI_LIKE_F, BALANCED_F, UNBALANCED_F]),
        seed=st.integers(0, 2**63 - 1),
        horizon_events=st.integers(1, 400),
        suffix=st.sampled_from([".csv", ".csv.gz"]),
    )
    def test_simulated_log_round_trips_exactly(
        self, tmp_path, lam, mu, theta, tick, initial_price, f, seed, horizon_events, suffix
    ):
        params = ModelParams(lam=lam, mu=mu, theta=theta, tick=tick)
        cfg = SimConfig(seed=seed, horizon_events=horizon_events, initial_price=initial_price)
        _, log = simulate(params, f, cfg, collect_events=True)
        p = tmp_path / f"log{suffix}"
        log.to_csv(str(p))
        parsed, report = parse_event_log_with_report(str(p))
        assert report.total_rows == len(log) == horizon_events and not report.malformed
        for name in COLUMNS:
            got, want = getattr(parsed, name), getattr(log, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    BAD_ROWS = (
        "garbage",
        "1.0,bid,limit,1,1",
        "x,bid,limit,1,1,100.0",
        "1.0,middle,limit,1,1,100.0",
        "1.0,bid,teleport,1,1,100.0",
        "1.0,ask,limit,-1,1,100.0",
        "1.0,bid,cancel,1,2.5,100.0",
        "1.0,ask,cancel,1,99999999999999999999,100.0",
        "-1.0,bid,limit,1,1,100.0",  # timestamp decreased
        "nan,bid,limit,1,1,100.0",
        "inf,ask,cancel,1,1,100.0",
        "1.0,bid,market,1,1,nan",
    )

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        n_bad=st.integers(1, 4),
        data=st.data(),
    )
    def test_one_percent_rule_boundary(self, tmp_path, n_bad, data):
        n_rows = 100 * n_bad
        # the first row is well formed, so a decreasing timestamp is always malformed
        bad_at = sorted(data.draw(
            st.lists(st.integers(1, n_rows - 1), min_size=n_bad, max_size=n_bad, unique=True)
        ))
        bad = [data.draw(st.sampled_from(self.BAD_ROWS)) for _ in bad_at]
        rows = [f"{0.01 * k!r},ask,market,2,3,100.0" for k in range(n_rows)]
        for k, row in zip(bad_at, bad):
            rows[k] = row
        p = tmp_path / "log.csv"
        write_log(p, rows)
        with pytest.warns(UserWarning, match=f"{n_bad} malformed rows skipped"):
            log = parse_event_log(str(p))
        assert len(log) == n_rows - n_bad
        _, report = parse_event_log_with_report(str(p))
        assert report.total_rows == n_rows
        assert [ln for ln, _ in report.malformed] == [k + 2 for k in bad_at]  # header is line 1
        write_log(p, rows + [bad[0]])
        with pytest.raises(EstimationError, match=rf"{n_bad + 1} of {n_rows + 1} rows malformed"):
            parse_event_log_with_report(str(p))


def reference_replenishment(log, tick, pool_symmetric):
    """Row-at-a-time replenishment histogram; None where the estimator must raise."""
    px = log.bid_price_after.tolist()
    if tick is None:
        diffs = {round(abs(b - a), 12) for a, b in zip(px, px[1:])} - {0.0}
        if not diffs:
            return None
        tick = min(diffs)
    counts = {}
    for i in range(1, len(px)):
        d = px[i] - px[i - 1]
        qb, qa = int(log.bid_queue_after[i]), int(log.ask_queue_after[i])
        if d == 0.0 or abs(abs(d / tick) - 1.0) > 0.5 or qb < 1 or qa < 1:
            continue
        if d > 0:
            counts[(qb, qa)] = counts.get((qb, qa), 0) + 1
        elif pool_symmetric:
            counts[(qa, qb)] = counts.get((qa, qb), 0) + 1
    total = sum(counts.values())
    return {k: c / total for k, c in counts.items()} if total else None


class TestEstimatorProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(SIDE_NAMES),
                st.sampled_from(KIND_NAMES),
                st.integers(0, 4),
                st.integers(0, 4),
                st.integers(-3, 3),
            ),
            min_size=1,
            max_size=60,
        ),
        tick=st.sampled_from([None, 0.01, 0.5]),
        pool_symmetric=st.booleans(),
    )
    def test_equal_to_row_at_a_time_counts(self, rows, tick, pool_symmetric):
        price, step = 100.0, tick or 0.25
        records = []
        for k, (side, kind, qb, qa, moves) in enumerate(rows, start=1):
            price += moves * step
            records.append((0.1 * k, side, kind, qb, qa, price))
        log = event_log(*records)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = estimate_intensities(log)
            want = reference_replenishment(log, tick, pool_symmetric)
            if want is None:
                with pytest.raises(EstimationError):
                    estimate_replenishment(log, tick=tick, pool_symmetric=pool_symmetric)
            else:
                f_hat = estimate_replenishment(log, tick=tick, pool_symmetric=pool_symmetric)
                assert f_hat.as_dict() == want
        want_counts = {f"{s}_{k}": 0 for s in SIDE_NAMES for k in KIND_NAMES}
        for _, side, kind, *_ in records:
            want_counts[f"{side}_{kind}"] += 1
        assert res.counts == want_counts
