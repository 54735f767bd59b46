import gzip
import math

import numpy as np
import pytest

from lobq.model import (
    BookState,
    InsufficientPathError,
    ModelParams,
    PricePath,
    QueueDist,
    SimConfig,
    path_rng,
    rescaled_series,
    sample_first_passage,
    sample_move_signs,
    sample_price_at,
    simulate,
    step,
)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(lam=0.0, mu=1.0, theta=0.0)
        with pytest.raises(ValueError):
            ModelParams(lam=1.0, mu=0.0, theta=0.0)
        with pytest.raises(ValueError):
            ModelParams(lam=1.0, mu=-0.5, theta=1.0)
        with pytest.raises(ValueError):
            ModelParams(lam=1.0, mu=1.0, theta=0.0, tick=0.0)

    def test_derived_rates(self):
        p = ModelParams(lam=3.0, mu=1.0, theta=1.0, tick=0.5)
        assert p.mu_theta == 2.0
        assert p.event_rate == 10.0
        assert p.p_up == pytest.approx(0.6)
        assert not p.balanced
        assert ModelParams.from_rates(2.0, 2.0).balanced


class TestQueueDist:
    def test_validation(self):
        with pytest.raises(ValueError):
            QueueDist([])
        with pytest.raises(ValueError):
            QueueDist([(0, 1, 1.0)])
        with pytest.raises(ValueError):
            QueueDist([(1, 1, 0.5)])
        with pytest.raises(ValueError):
            QueueDist([(1, 1, 0.5), (1, 1, 0.5)])
        with pytest.raises(ValueError):
            QueueDist([(1, 1, 1.5), (1, 2, -0.5)])

    def test_swap_and_symmetry(self):
        f = QueueDist([(1, 2, 0.7), (2, 1, 0.3)])
        g = f.swap()
        assert g.as_dict() == {(2, 1): 0.7, (1, 2): 0.3}
        assert not f.is_symmetric()
        assert QueueDist([(1, 2, 0.5), (2, 1, 0.5)]).is_symmetric()

    def test_upper_mass(self):
        f = QueueDist([(1, 2, 0.6), (2, 1, 0.25), (2, 2, 0.15)])
        assert f.upper_mass() == pytest.approx(0.75)

    def test_csv_round_trip(self, tmp_path):
        f = QueueDist([(1, 14, 0.5), (14, 1, 0.25), (2, 3, 0.25)])
        path = tmp_path / "f.csv"
        f.to_csv(str(path))
        assert QueueDist.from_csv(str(path)) == f

    def test_sampling_frequencies(self, rng):
        f = QueueDist([(1, 2, 0.2), (3, 4, 0.5), (5, 6, 0.3)])
        bid, ask = f.sample(rng, 200_000)
        for (i, j, p) in f.items():
            freq = np.mean((bid == i) & (ask == j))
            se = math.sqrt(p * (1 - p) / bid.size)
            assert abs(freq - p) <= 4 * se


class TestBookStateAndConfig:
    def test_book_state_invariant(self):
        with pytest.raises(ValueError):
            BookState(0.0, 0, 1)
        with pytest.raises(ValueError):
            BookState(0.0, 1, 0)

    def test_sim_config_horizons(self):
        with pytest.raises(ValueError):
            SimConfig(seed=1)
        with pytest.raises(ValueError):
            SimConfig(seed=1, horizon_time=1.0, horizon_events=5)
        with pytest.raises(ValueError):
            SimConfig(seed=1, horizon_time=-1.0)


class _StubRng:
    """Deterministic replacement driving step() with scripted draws."""

    def __init__(self, exp_values, uniform_values):
        self.exp_values = list(exp_values)
        self.uniform_values = list(uniform_values)

    def exponential(self, scale):
        return self.exp_values.pop(0)

    def random(self, size=None):
        assert size is None
        return self.uniform_values.pop(0)


class TestStep:
    def test_plain_removal(self, f_point):
        params = ModelParams(lam=1.0, mu=1.0, theta=1.0)
        state = BookState(100.0, 5, 4)
        # draws: side (ask), sign (down), kind
        rng = _StubRng([0.25], [0.4, 0.9, 0.1])
        new, elapsed, move = step(state, params, f_point, rng)
        assert (new.bid_queue, new.ask_queue) == (5, 3)
        assert move == 0
        assert new.bid_price == 100.0
        assert elapsed == 0.25

    def test_depletion_replenishes_from_f(self, f_point):
        params = ModelParams(lam=1.0, mu=1.0, theta=1.0, tick=0.5)
        state = BookState(100.0, 5, 1)
        # ask side, down, kind, replenishment atom
        rng = _StubRng([0.1], [0.4, 0.9, 0.5, 0.3])
        new, _, move = step(state, params, f_point, rng)
        assert move == 1
        assert (new.bid_queue, new.ask_queue) == (2, 3)
        assert new.bid_price == pytest.approx(100.5)

    def test_bid_depletion_uses_mirror(self):
        params = ModelParams(lam=1.0, mu=1.0, theta=1.0, tick=0.5)
        f = QueueDist.point_mass(2, 3)
        state = BookState(100.0, 1, 4)
        # bid side (u >= 0.5), down, kind, replenishment
        rng = _StubRng([0.1], [0.7, 0.9, 0.5, 0.3])
        new, _, move = step(state, params, f, rng)
        assert move == -1
        # mirror of point mass (2,3) is (3,2)
        assert (new.bid_queue, new.ask_queue) == (3, 2)
        assert new.bid_price == pytest.approx(99.5)

    def test_step_stream_matches_simulate(self, f_symmetric):
        params = ModelParams(lam=2.0, mu=1.5, theta=0.5)
        cfg = SimConfig(seed=99, horizon_events=200, initial_state=BookState(0.0, 2, 2))
        path = simulate(params, f_symmetric, cfg)

        rng = path_rng(99, 0)
        state = BookState(0.0, 2, 2)
        t = 0.0
        times, moves = [], []
        for _ in range(200):
            state, dt, mv = step(state, params, f_symmetric, rng)
            t += dt
            if mv:
                times.append(t)
                moves.append(mv)
        assert np.allclose(times, path.change_times)
        assert list(moves) == path.moves.tolist()


class TestSimulate:
    def test_reproducible(self, f_symmetric):
        params = ModelParams(lam=5.0, mu=4.0, theta=2.0)
        cfg = SimConfig(seed=7, horizon_time=20.0)
        p1 = simulate(params, f_symmetric, cfg)
        p2 = simulate(params, f_symmetric, cfg)
        assert np.array_equal(p1.change_times, p2.change_times)
        assert np.array_equal(p1.moves, p2.moves)

    def test_path_index_gives_independent_stream(self, f_symmetric):
        params = ModelParams(lam=5.0, mu=4.0, theta=2.0)
        a = simulate(params, f_symmetric, SimConfig(seed=7, horizon_time=20.0, path_index=0))
        b = simulate(params, f_symmetric, SimConfig(seed=7, horizon_time=20.0, path_index=1))
        assert not (
            len(a) == len(b) and np.array_equal(a.change_times, b.change_times)
        )

    def test_empty_moves_path_is_valid(self, f_symmetric):
        params = ModelParams(lam=1.0, mu=1.0, theta=0.0)
        path = simulate(params, f_symmetric, SimConfig(seed=3, horizon_time=1e-6))
        assert len(path) == 0
        assert path.prices([0.0, 1e-6]).tolist() == [0.0, 0.0]

    def test_gzip_event_log_is_byte_identical(self, f_symmetric, tmp_path):
        params = ModelParams(lam=3.0, mu=2.0, theta=1.0)
        _, log = simulate(params, f_symmetric, SimConfig(seed=11, horizon_events=2000),
                          collect_events=True)
        blobs = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            path = tmp_path / sub / "events.csv.gz"
            log.to_csv(str(path))
            blobs.append(path.read_bytes())
        assert blobs[0][4:8] == b"\0\0\0\0"  # gzip header time stamp
        assert blobs[0] == blobs[1]
        plain = tmp_path / "events.csv"
        log.to_csv(str(plain))
        assert gzip.decompress(blobs[0]) == plain.read_bytes()

    def test_inter_event_times_exponential(self, f_symmetric):
        params = ModelParams(lam=3.0, mu=2.0, theta=1.0)
        cfg = SimConfig(seed=11, horizon_events=100_000)
        _, log = simulate(params, f_symmetric, cfg, collect_events=True)
        dts = np.diff(np.concatenate(([0.0], log.t)))
        mean = dts.mean()
        target = 1.0 / params.event_rate
        se = target / math.sqrt(dts.size)
        assert abs(mean - target) <= 3 * se

    def test_event_sign_frequency_balanced(self, f_symmetric):
        # fraction of +1 queue increments ~ lam / (lam + mu + theta) = 1/2
        params = ModelParams(lam=2.0, mu=1.0, theta=1.0)
        cfg = SimConfig(seed=13, horizon_events=1_000_000)
        _, log = simulate(params, f_symmetric, cfg, collect_events=True)
        frac_limit = np.mean(log.kind == 0)
        se = math.sqrt(0.25 / len(log))
        assert abs(frac_limit - 0.5) <= 3 * se

    def test_queues_never_zero_in_log(self, f_symmetric):
        params = ModelParams(lam=2.0, mu=2.0, theta=1.0)
        _, log = simulate(
            params, f_symmetric, SimConfig(seed=5, horizon_events=20_000), collect_events=True
        )
        assert log.bid_queue_after.min() >= 1
        assert log.ask_queue_after.min() >= 1

    def test_single_event_depletion_dominates(self):
        # with mu+theta huge and start (1,1), the first event moves the price
        # with probability (mu+theta)/(lam+mu+theta)
        params = ModelParams(lam=1.0, mu=999.0, theta=0.0)
        hits = 0
        n = 4000
        f = QueueDist.point_mass(1, 1)
        for k in range(n):
            path = simulate(
                params, f,
                SimConfig(seed=17, horizon_events=1, path_index=k,
                          initial_state=BookState(0.0, 1, 1)),
            )
            hits += len(path)
        p = params.mu_theta / (params.lam + params.mu_theta)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) <= 3 * se

    def test_balanced_first_move_symmetric(self):
        # from (n, n) under balanced flow the first move is up half the time;
        # vectorized embedded walk, paths undecided after the cap are dropped
        # (a symmetric event, so the conditioning keeps the symmetry exact)
        rng = np.random.default_rng(np.random.Philox(2))
        n_paths = 100_000
        qb = np.full(n_paths, 3, dtype=np.int64)
        qa = np.full(n_paths, 3, dtype=np.int64)
        sign = np.zeros(n_paths, dtype=np.int8)
        active = np.arange(n_paths)
        for _ in range(20_000):
            if not active.size:
                break
            m = active.size
            ask_side = rng.random(m) < 0.5
            up = rng.random(m) < 0.5
            d = np.where(up, 1, -1)
            qa[active] = np.where(ask_side, qa[active] + d, qa[active])
            qb[active] = np.where(ask_side, qb[active], qb[active] + d)
            dep_a = ask_side & (qa[active] == 0)
            dep_b = (~ask_side) & (qb[active] == 0)
            sign[active[dep_a]] = 1
            sign[active[dep_b]] = -1
            active = active[~(dep_a | dep_b)]
        decided = sign[sign != 0].astype(float)
        assert decided.size > 0.9 * n_paths
        assert abs(decided.mean()) <= 3.0 / math.sqrt(decided.size)


class TestPricePath:
    def _toy(self):
        return PricePath(
            change_times=np.array([1.0, 2.5, 4.0]),
            moves=np.array([1, 1, -1]),
            initial_price=100.0,
            tick=0.5,
            t_end=5.0,
        )

    def test_prices_step_function(self):
        p = self._toy()
        got = p.prices([0.0, 1.0, 2.0, 2.5, 4.5, 5.0])
        assert got.tolist() == [100.0, 100.5, 100.5, 101.0, 100.5, 100.5]

    def test_count_changes(self):
        p = self._toy()
        assert p.count_changes(0.5) == 0
        assert p.count_changes(2.5) == 2
        assert p.count_changes(5.0) == 3

    def test_out_of_range(self):
        with pytest.raises(InsufficientPathError):
            self._toy().prices([6.0])

    def test_json_round_trip(self):
        p = self._toy()
        q = PricePath.from_json(p.to_json())
        assert np.array_equal(p.change_times, q.change_times)
        assert np.array_equal(p.moves, q.moves)
        assert (q.initial_price, q.tick, q.t_end) == (100.0, 0.5, 5.0)

    def test_csv_output(self, tmp_path):
        p = self._toy()
        out = tmp_path / "path.csv"
        p.to_csv(str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "time,cumulative_price"
        assert lines[1].split(",") == ["0.0", "100.0"]
        assert [float(x) for x in lines[2].split(",")] == [1.0, 100.5]

    def test_validation(self):
        with pytest.raises(ValueError):
            PricePath(np.array([1.0, 1.0]), np.array([1, -1]), 0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            PricePath(np.array([1.0]), np.array([1, -1]), 0.0, 1.0, 2.0)


class TestRescaledSeries:
    def test_zero_moves(self):
        p = PricePath(np.array([]), np.array([]), 5.0, 1.0, 100.0)
        out = rescaled_series(p, 10, "unbalanced", [0.0, 0.5, 1.0])
        assert out.tolist() == [0.0, 0.0, 0.0]

    def test_identity_at_n1_unbalanced(self):
        p = PricePath(np.array([1.0, 2.0]), np.array([1, 1]), 3.0, 2.0, 10.0)
        out = rescaled_series(p, 1, "unbalanced", [0.5, 1.5, 2.5])
        assert out.tolist() == [0.0, 2.0, 4.0]

    def test_balanced_needs_n_ge_2(self):
        p = PricePath(np.array([]), np.array([]), 0.0, 1.0, 100.0)
        with pytest.raises(ValueError):
            rescaled_series(p, 1, "balanced", [0.1])
        with pytest.raises(ValueError):
            rescaled_series(p, 2, "bogus", [0.1])

    def test_insufficient_horizon(self):
        p = PricePath(np.array([]), np.array([]), 0.0, 1.0, 5.0)
        with pytest.raises(InsufficientPathError):
            rescaled_series(p, 10, "unbalanced", [1.0])


class TestBatchSamplers:
    def test_first_passage_reproducible(self, params_unbalanced):
        t1, u1 = sample_first_passage(2, 3, params_unbalanced, 1000, seed=5)
        t2, u2 = sample_first_passage(2, 3, params_unbalanced, 1000, seed=5)
        assert np.array_equal(t1, t2) and np.array_equal(u1, u2)

    def test_first_passage_rejects_balanced(self, params_balanced):
        with pytest.raises(ValueError):
            sample_first_passage(1, 1, params_balanced, 10, seed=0)

    def test_price_at_deterministic(self, params_unbalanced, f_symmetric):
        a = sample_price_at(params_unbalanced, f_symmetric, 50.0, 500, seed=9)
        b = sample_price_at(params_unbalanced, f_symmetric, 50.0, 500, seed=9)
        assert np.array_equal(a, b)

    def test_move_signs_shape_and_values(self, params_unbalanced, f_symmetric):
        s = sample_move_signs(params_unbalanced, f_symmetric, 100, 20, seed=3)
        assert s.shape == (100, 20)
        assert set(np.unique(s)) <= {-1, 1}

    def test_move_signs_fixed_start(self, params_unbalanced, f_symmetric):
        # from a deep bid and unit ask queue the first move is almost surely up
        s = sample_move_signs(params_unbalanced, f_symmetric, 2000, 1, seed=4, start=(40, 1))
        assert (s[:, 0] == 1).mean() > 0.95

    def test_batch_engine_matches_path_simulator(self, f_symmetric):
        # distributional cross-check of the two independent simulation routes
        params = ModelParams(lam=2.0, mu=2.0, theta=0.6)
        horizon = 30.0
        batch = sample_price_at(params, f_symmetric, horizon, 3000, seed=21)
        seq = np.array([
            len_signed(simulate(params, f_symmetric,
                                SimConfig(seed=22, horizon_time=horizon, path_index=k)))
            for k in range(600)
        ])
        # same mean (0 by symmetry) and matching spread within Monte Carlo error
        v1, v2 = batch.var(ddof=1), seq.var(ddof=1)
        se = v2 * math.sqrt(2.0 / seq.size) + v1 * math.sqrt(2.0 / batch.size)
        assert abs(v1 - v2) <= 3 * se


def len_signed(path):
    return int(path.moves.sum())
