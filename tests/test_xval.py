import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from lobq import xval
from lobq.model import ModelParams
from lobq.numerics import DEFAULT_QUAD
from lobq.xval import (
    ComparisonReport,
    MC_QUANTITIES,
    OracleConfig,
    OracleError,
    mc_compare,
    oracle_dirichlet,
    oracle_survival,
    run_criterion,
)


def erlang_survival(x: int, rate: float, t: float) -> float:
    """P[Erlang(x, rate) > t] via the Poisson-count identity."""
    mu = rate * t
    return math.exp(-mu) * sum(mu**k / math.factorial(k) for k in range(x))


class TestOracleSurvival:
    def test_at_zero(self, params_near_balanced):
        vals = oracle_survival(4, 5, [0.0, 1.0], params_near_balanced)
        assert vals[0] == 1.0

    def test_pure_death_is_erlang(self):
        # lam = 0: the queue only shrinks, depletion after x removals
        ts = np.array([0.1, 0.5, 1.0, 3.0])
        for x in (1, 3, 6):
            got, err = xval._bd_survival_curve(x, 0.0, 2.0, ts, 50, 10_000)
            assert err < 1e-10
            for t, g in zip(ts, got):
                assert g == pytest.approx(erlang_survival(x, 2.0, t), abs=1e-10)

    def test_insufficient_truncation_fails(self, params_near_balanced):
        with pytest.raises((OracleError, ValueError)):
            oracle_survival(4, 5, [5.0], params_near_balanced, OracleConfig(queue_truncation=6))

    def test_budget_guard(self, params_near_balanced):
        with pytest.raises(OracleError):
            oracle_survival(4, 5, [50.0], params_near_balanced,
                            OracleConfig(time_step_budget=100))

    def test_matches_analytic_curve(self, params_near_balanced):
        from lobq.analytics import survival_curve

        ts = np.array([0.0, 0.3, 1.0, 2.0, 7.0])
        exact = oracle_survival(4, 5, ts, params_near_balanced)
        got = survival_curve(4, 5, ts, params_near_balanced)
        assert np.max(np.abs(exact - got)) <= 1e-6


def _sparse_dirichlet(p_up: float, truncation: int) -> np.ndarray:
    """Reference hitting-probability grid on {1..N}^2 by a sparse LU of the 5-point system.

    The boundary values of xval's Sylvester oracle (0 on the bid axis, 1 on
    the ask axis, single-queue ruin values min(1, r^h) on the far edges),
    assembled as N^2 unknowns, so that it shares no solver code with it.
    """
    N = int(truncation)
    pu = p_up
    pd = 1.0 - p_up
    r = pd / pu
    far_bid = np.minimum(1.0, r ** np.arange(1, N + 1))        # value at bid = N+1, ask = j
    far_ask = 1.0 - np.minimum(1.0, r ** np.arange(1, N + 1))  # value at bid = i, ask = N+1

    ii, jj = np.meshgrid(np.arange(1, N + 1), np.arange(1, N + 1), indexing="ij")
    ii = ii.ravel()
    jj = jj.ravel()
    k = (ii - 1) * N + (jj - 1)
    rows = [k]
    cols = [k]
    vals = [np.ones(k.size)]
    rhs = np.zeros(N * N)

    # neighbor (di, dj, weight); contributions to rhs when they leave the grid
    for di, dj, w in ((1, 0, pu / 2), (-1, 0, pd / 2), (0, 1, pu / 2), (0, -1, pd / 2)):
        ni = ii + di
        nj = jj + dj
        inside = (ni >= 1) & (ni <= N) & (nj >= 1) & (nj <= N)
        rows.append(k[inside])
        cols.append((ni[inside] - 1) * N + (nj[inside] - 1))
        vals.append(np.full(inside.sum(), -w))
        out = ~inside
        ko = k[out]
        nio = ni[out]
        njo = nj[out]
        bvals = np.zeros(ko.size)
        bvals[njo == 0] = 1.0
        sel = nio == N + 1
        bvals[sel] = far_bid[njo[sel] - 1]
        sel = njo == N + 1
        bvals[sel] = far_ask[nio[sel] - 1]
        # ni == 0 contributes value 0
        rhs[ko] += w * bvals

    A = sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N * N, N * N),
    )
    return spla.spsolve(A, rhs).reshape(N, N)


class TestOracleDirichlet:
    def test_symmetric_start(self, params_balanced):
        val, sens = oracle_dirichlet(1, 1, params_balanced, OracleConfig(queue_truncation=150))
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_row_sums(self, params_balanced):
        cfg = OracleConfig(queue_truncation=150)
        for n, p in ((1, 2), (3, 5), (7, 4)):
            a, _ = oracle_dirichlet(n, p, params_balanced, cfg)
            b, _ = oracle_dirichlet(p, n, params_balanced, cfg)
            assert a + b == pytest.approx(1.0, abs=1e-8)

    def test_doubling_sensitivity_small(self, params_balanced):
        cfg = OracleConfig(queue_truncation=200)
        for n, p in ((1, 1), (3, 2), (2, 5), (5, 5), (8, 3)):
            _, sens = oracle_dirichlet(n, p, params_balanced, cfg)
            assert sens < 1e-6

    @pytest.mark.parametrize("truncation", [100, 200])
    @pytest.mark.parametrize("mu_theta", [1.3, 1.015, 2.0, 1.0])  # p_up = 1/(1 + mu_theta)
    def test_matches_sparse_lu_oracle(self, truncation, mu_theta):
        params = ModelParams.from_rates(1.0, mu_theta)
        want = _sparse_dirichlet(params.p_up, truncation)[:20, :20]
        got = xval._sylvester_dirichlet(params.p_up, truncation)[:20, :20]
        assert np.abs(got - want).max() <= 1e-11

    @settings(max_examples=40, deadline=None)
    @given(p_up=st.floats(0.3, 0.5), truncation=st.integers(8, 120))
    def test_complement_and_monotone(self, p_up, truncation):
        phi = xval._sylvester_dirichlet(p_up, truncation)  # phi[n-1, p-1] = prob_up(n, p)
        assert np.abs(phi + phi.T - 1.0).max() <= 1e-12
        corner = phi[:8, :8]
        assert (np.diff(corner, axis=0) > 0.0).all()  # deeper bid: up more likely
        assert (np.diff(corner, axis=1) < 0.0).all()  # deeper ask: up less likely


class TestPhiOracle:
    @pytest.mark.parametrize(
        "n,p,expected",
        [
            # frozen from an independent Gauss-Kronrod evaluation of the integral
            (2, 1, 0.6976527263135507),
            (1, 2, 0.30234727368645004),
            (5, 3, 0.6547578008618229),
            (10, 20, 0.2952686766090052),
        ],
    )
    def test_frozen_values(self, n, p, expected):
        assert xval._phi_cached(n, p, DEFAULT_QUAD) == pytest.approx(expected, abs=1e-9)


class TestMcCompare:
    def test_registry_complete(self):
        expected = {
            "duration_survival",
            "tail_slope",
            "first_move_probability",
            "p_n",
            "autocovariance",
            "expected_duration",
            "diffusion_vol_balanced",
            "diffusion_vol_unbalanced",
        }
        assert set(MC_QUANTITIES) == expected

    def test_unknown_quantity(self, params_unbalanced, f_symmetric):
        with pytest.raises(KeyError):
            mc_compare("nonsense", params_unbalanced, f_symmetric)

    def test_first_move_runs_and_passes(self, params_unbalanced, f_symmetric):
        cfg = OracleConfig(mc_paths=30_000, mc_seed=5)
        rep = mc_compare("first_move_probability", params_unbalanced, f_symmetric, cfg,
                         bid=2, ask=1)
        assert rep.passed
        assert rep.se is not None and rep.se > 0

    def test_deterministic_reports(self, params_unbalanced, f_symmetric):
        cfg = OracleConfig(mc_paths=20_000, mc_seed=77)
        r1 = mc_compare("first_move_probability", params_unbalanced, f_symmetric, cfg)
        r2 = mc_compare("first_move_probability", params_unbalanced, f_symmetric, cfg)
        assert json.dumps(r1.as_dict(), sort_keys=True) == json.dumps(r2.as_dict(), sort_keys=True)

    def test_expected_duration_band(self, params_unbalanced, f_symmetric):
        cfg = OracleConfig(mc_paths=100_000, mc_seed=9)
        rep = mc_compare("expected_duration", params_unbalanced, f_symmetric, cfg, x=1, y=1)
        assert rep.passed

    def test_report_pass_rules(self):
        rep = ComparisonReport("q", 1.0, 1.05, 0.05, tolerance=0.1, passed=True)
        d = rep.as_dict()
        assert d["passed"] and d["tolerance"] == 0.1
        assert xval._report("q", 1.0, 1.2, 0.2, se=0.05).passed is False
        assert xval._report("q", 1.0, 1.1, 0.1, se=0.05).passed is True


class TestCriteria:
    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            run_criterion(99)

    def test_criterion_result_serializes(self):
        res = run_criterion(1)
        d = res.as_dict()
        assert d["number"] == 1
        assert isinstance(json.dumps(d), str)

    def test_suite_subset(self):
        suite = xval.run_suite([1])
        assert len(suite.results) == 1
        assert "criterion 1" in suite.table()
