import cmath
import decimal
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from lobq import analytics, xval
from lobq.analytics import (
    autocov_moves,
    depth,
    expected_duration,
    expected_duration_f,
    hitting_laplace,
    p_cont,
    p_n,
    prob_up,
    prob_up_balanced,
    psi,
    queue_survival,
    survival_curve,
    survival_duration,
    tail_law,
    vol_balanced,
    vol_balanced_window,
    vol_unbalanced,
)
from lobq.model import ModelParams, QueueDist, sample_first_passage, sample_move_signs
from lobq.numerics import DEFAULT_QUAD, QuadSpec
from lobq.presets import CITI_LIKE_F


class TestHittingLaplace:
    def test_at_zero_subcritical(self):
        # lam < mu+theta: depletion certain, transform at 0 is 1
        p = ModelParams.from_rates(1.0, 2.0)
        assert hitting_laplace(0.0, 3, p) == pytest.approx(1.0, abs=1e-14)

    def test_at_zero_supercritical(self):
        # lam > mu+theta: value is the ruin probability (mu+theta)/lam
        p = ModelParams.from_rates(2.0, 1.0)
        assert hitting_laplace(0.0, 1, p) == pytest.approx(0.5, abs=1e-14)

    def test_closed_form_balanced(self):
        p = ModelParams.from_rates(1.0, 1.0)
        assert hitting_laplace(1.0, 2, p) == pytest.approx(((3.0 - math.sqrt(5.0)) / 2.0) ** 2, rel=1e-14)

    def test_power_structure(self):
        p = ModelParams.from_rates(1.3, 1.7)
        for s in (0.0, 0.4, 2.0):
            base = hitting_laplace(s, 1, p)
            for x in (2, 3, 7):
                assert hitting_laplace(s, x, p) == pytest.approx(base**x, rel=1e-13)

    def test_monte_carlo_cross_check(self):
        p = ModelParams.from_rates(1.0, 2.0)
        tau, _ = sample_first_passage(1, 200, p, 100_000, seed=314)
        # with the partner queue at 200 the minimum is the size-1 queue's
        # depletion except on a negligible set
        est = np.exp(-tau).mean()
        se = np.exp(-tau).std(ddof=1) / math.sqrt(tau.size)
        assert abs(est - hitting_laplace(1.0, 1, p)) <= 3 * se

    def test_no_cancellation_at_large_s(self):
        # the textbook root (a - sqrt(a^2 - 8)) / 2 at 50 digits, a = 3 + s
        p = ModelParams.from_rates(1.0, 2.0)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for s in (1e6, 1e8, 1e9):
                a = decimal.Decimal(3) + decimal.Decimal(s)
                exact = float((a - (a * a - 8).sqrt()) / 2)
                assert hitting_laplace(s, 1, p) == pytest.approx(exact, rel=1e-14)

    def test_complex_root_is_the_smaller_one(self):
        lam, mt = 1.3, 1.7
        for s in (0.3 + 2.5j, -7j, 1e-3j):
            a = lam + mt + s
            d = cmath.sqrt(a * a - 4.0 * lam * mt)
            want = min((a - d) / (2.0 * lam), (a + d) / (2.0 * lam), key=abs)
            got = analytics._depletion_root(s, lam, mt)
            assert abs(got - want) <= 1e-14 * abs(want)

    def test_validation(self):
        p = ModelParams.from_rates(1.0, 2.0)
        with pytest.raises(ValueError):
            hitting_laplace(-0.1, 1, p)
        with pytest.raises(ValueError):
            hitting_laplace(0.0, 0, p)


class TestPsiAndSurvival:
    def test_prefactored_psi_at_zero_is_one(self):
        for lam, mt in ((1.0, 2.0), (12.0, 13.0), (1.0, 1.3)):
            p = ModelParams.from_rates(lam, mt)
            for n in (1, 2, 5, 9):
                val = (mt / lam) ** (0.5 * n) * psi(n, 0.0, p)
                assert val == pytest.approx(1.0, abs=1e-8)

    def test_psi_nonincreasing_in_t(self, params_near_balanced):
        ts = [0.0, 0.1, 0.5, 1.0, 3.0, 10.0, 50.0]
        vals = [psi(4, t, params_near_balanced) for t in ts]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v >= 0.0 for v in vals)

    def test_psi_vanishes_at_large_t(self, params_near_balanced):
        assert psi(3, 600.0, params_near_balanced) < 1e-8

    def test_queue_survival_vs_uniformization(self, params_near_balanced):
        ts = np.array([0.1, 1.0, 5.0])
        exact, _ = xval._bd_survival_curve(4, 12.0, 13.0, ts, 400, 100_000)
        for t, e in zip(ts, exact):
            assert queue_survival(4, float(t), params_near_balanced) == pytest.approx(e, abs=1e-8)

    def test_survival_t0_is_one(self, params_near_balanced):
        assert survival_duration(4, 5, 0.0, params_near_balanced) == pytest.approx(1.0, abs=1e-8)

    def test_survival_factorizes(self, params_near_balanced):
        for t in (0.2, 1.0, 4.0):
            prod = queue_survival(4, t, params_near_balanced) * queue_survival(
                5, t, params_near_balanced
            )
            assert survival_duration(4, 5, t, params_near_balanced) == pytest.approx(prod, abs=1e-10)

    def test_survival_vs_oracle_small_case(self, params_unbalanced):
        got = survival_duration(1, 1, 1.0, params_unbalanced)
        exact = xval.oracle_survival(1, 1, [1.0], params_unbalanced)[0]
        assert got == pytest.approx(exact, abs=1e-6)

    def test_survival_monotone_in_t_a_b(self, params_near_balanced):
        ts = np.linspace(0.0, 5.0, 50)
        curves = {}
        for a in (1, 2, 4, 7, 10):
            curves[a] = survival_curve(a, 5, ts, params_near_balanced)
            assert np.all(np.diff(curves[a]) <= 1e-10)  # nonincreasing in t
        for a_small, a_big in ((1, 2), (2, 4), (4, 7), (7, 10)):
            assert np.all(curves[a_big] >= curves[a_small] - 1e-10)  # nondecreasing in a

    def test_survival_curve_matches_pointwise(self, params_near_balanced):
        ts = np.array([0.0, 0.5, 1.5, 4.0])
        curve = survival_curve(4, 5, ts, params_near_balanced)
        pointwise = [survival_duration(4, 5, float(t), params_near_balanced) for t in ts]
        assert np.allclose(curve, pointwise, atol=1e-9)

    def test_supercritical_rejected(self):
        p = ModelParams.from_rates(2.0, 1.0)
        with pytest.raises(ValueError):
            survival_duration(1, 1, 1.0, p)


class TestTailLaw:
    def test_unbalanced_constants(self):
        # lam=1, mu+theta=2, a=b=1: rho = (1 - sqrt2)^2 = 3 - 2 sqrt2,
        # c = 2 sqrt2, r = 2, so the prefactor a b r / (2 pi c rho^2) is
        # 1 / (2 sqrt2 pi (17 - 12 sqrt2)) and the rate 2 rho is 6 - 4 sqrt2
        law = tail_law(1, 1, ModelParams.from_rates(1.0, 2.0))
        sqrt2 = math.sqrt(2.0)
        assert law.exponent == 3
        assert law.rate == pytest.approx(6.0 - 4.0 * sqrt2, rel=1e-12)
        expected = 1.0 / (2.0 * sqrt2 * math.pi * (17.0 - 12.0 * sqrt2))
        assert law.prefactor == pytest.approx(expected, rel=1e-12)
        assert law.prefactor == pytest.approx(3.82303, rel=1e-5)

    def test_balanced_constants(self):
        law = tail_law(2, 3, ModelParams.from_rates(5.0, 5.0))
        assert law.exponent == 1
        assert law.rate == 0.0
        assert law.prefactor == pytest.approx(6.0 / (5.0 * math.pi), rel=1e-14)

    def test_rejects_supercritical(self):
        with pytest.raises(ValueError):
            tail_law(1, 1, ModelParams.from_rates(2.0, 1.0))

    def test_balanced_tail_consistency(self):
        # t * survival approaches ab/(pi lam) far beyond the mean event time
        params = ModelParams.from_rates(12.5, 12.5)
        law = tail_law(4, 5, params)
        t = 400.0 / params.event_rate * 25.0  # 10000 mean event times
        s = survival_duration(4, 5, t, params)
        assert t * s == pytest.approx(law.prefactor, rel=0.05)

    def test_unbalanced_tail_consistency(self):
        # t^3 e^{2 rho t} survival approaches the prefactor far beyond 1/rho
        # (t = 12000 is about 240/rho); S is about 7e-219 there, so the
        # quadrature needs an abs_tol far below it
        params = ModelParams.from_rates(12.0, 13.0)
        law = tail_law(4, 5, params)
        rho = (math.sqrt(12.0) - math.sqrt(13.0)) ** 2
        assert law.rate == pytest.approx(2.0 * rho, rel=1e-12)
        t = 12000.0
        s = survival_duration(4, 5, t, params, xval.TAIL_QUAD)
        assert s * t**3 * math.exp(2.0 * rho * t) == pytest.approx(law.prefactor, rel=0.05)

    def test_unbalanced_tail_is_exponential_not_power(self):
        # the drift-dominated tail decays exponentially at rate
        # 2 (sqrt(lam) - sqrt(mu+theta))^2, so far out it sits orders of
        # magnitude below the classical t^-2 description
        params = ModelParams.from_rates(12.0, 13.0)
        classical = 4 * 5 * (12.0 + 13.0) ** 2 / (4.0 * 12.0**2 * (13.0 - 12.0) ** 2)
        rho = (math.sqrt(12.0) - math.sqrt(13.0)) ** 2
        t = 6.0 / rho
        s = survival_duration(4, 5, t, params)
        assert s < 0.01 * classical / t**2
        exact = xval.oracle_survival(4, 5, [t], params)[0]
        assert s == pytest.approx(exact, abs=1e-8)


class TestProbUp:
    def test_diagonal_half(self):
        for n in range(1, 11):
            assert prob_up_balanced(n, n) == pytest.approx(0.5, abs=1e-8)

    def test_complement_identity(self):
        for n in range(1, 21):
            for p in range(1, 21):
                tot = prob_up_balanced(n, p) + prob_up_balanced(p, n)
                assert tot == pytest.approx(1.0, abs=1e-8)

    def test_monotone(self):
        grid = {(n, p): prob_up_balanced(n, p) for n in range(1, 21) for p in range(1, 21)}
        for n in range(1, 20):
            for p in range(1, 21):
                assert grid[(n + 1, p)] > grid[(n, p)]  # deeper bid: up more likely
        for n in range(1, 21):
            for p in range(1, 20):
                assert grid[(n, p + 1)] < grid[(n, p)]  # deeper ask: up less likely

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
    def test_frozen_quadrature_oracle_values(self, n, p, expected):
        assert prob_up_balanced(n, p) == pytest.approx(expected, abs=1e-9)

    def test_against_dirichlet_solve(self):
        params = ModelParams.from_rates(1.0, 1.0)
        cfg = xval.OracleConfig(queue_truncation=200)
        got = prob_up_balanced(2, 1)
        exact, sens = xval.oracle_dirichlet(2, 1, params, cfg)
        assert abs(got - exact) <= 1e-4
        assert sens < 1e-4

    def test_validation(self):
        for n, p in ((0, 1), (1, -2), (2.5, 1), (True, 1)):
            with pytest.raises(ValueError):
                prob_up_balanced(n, p)


class TestProbUpNumeric:
    """prob_up for general flow: the transform kernel in both regimes."""

    def test_matches_balanced_integral(self):
        params = ModelParams.from_rates(3.0, 3.0)
        for n, p in ((1, 1), (2, 1), (4, 7), (10, 10)):
            got = prob_up(n, p, params)
            assert got == pytest.approx(prob_up_balanced(n, p), abs=1e-14)  # rate-free
            assert got == pytest.approx(xval._phi_cached(n, p, DEFAULT_QUAD), abs=1e-8)

    def test_tight_phi_oracle_at_balance(self):
        # the default spec's phi is 7.3e-10 off; the kernel is 1.2e-12 off the tight one
        params = ModelParams.from_rates(10.0, 10.0)
        spec = QuadSpec(1e-12, 1e-11)
        for n in range(1, 21, 3):
            for p in range(1, 21, 4):
                assert abs(prob_up(n, p, params) - xval._phi_cached(n, p, spec)) <= 1e-11

    def test_symmetric_start_is_half(self):
        for params in (ModelParams.from_rates(1.0, 2.0), ModelParams.from_rates(1.0, 1.3)):
            assert prob_up(1, 1, params) == pytest.approx(0.5, abs=1e-10)

    def test_against_monte_carlo(self):
        params = ModelParams.from_rates(1.0, 2.0)
        analytic = prob_up(3, 1, params)
        _, up = sample_first_passage(3, 1, params, 200_000, seed=2718)
        est = up.mean()
        se = math.sqrt(est * (1 - est) / up.size)
        assert abs(est - analytic) <= 3 * se

    @pytest.mark.parametrize("mu_theta", [2.0, 1.3, 13.0 / 12.0])  # lam/(mu+theta) = 1/2, 1/1.3, 12/13
    def test_matches_sylvester_oracle(self, mu_theta):
        # near balance the N=200 solve carries its own truncation error (5e-6 at 9.9/10)
        params = ModelParams.from_rates(1.0, mu_theta)
        want = xval._sylvester_dirichlet(params.p_up, 200)[:20, :20]
        got = [[prob_up(n, p, params) for p in range(1, 21)] for n in range(1, 21)]
        assert np.abs(np.array(got) - want).max() <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(
        ratio=st.one_of(st.just(1.0), st.floats(0.3, 1.0)),
        mt=st.floats(0.01, 3000.0),
        n=st.integers(1, 59),
        p=st.integers(1, 59),
    )
    def test_complement_and_monotone(self, ratio, mt, n, p):
        params = ModelParams.from_rates(ratio * mt, mt)
        up = prob_up(n, p, params)
        assert abs(up + prob_up(p, n, params) - 1.0) <= 1e-12
        assert prob_up(n, n, params) == pytest.approx(0.5, abs=1e-12)
        assert prob_up(n + 1, p, params) >= up - 1e-12  # deeper bid: up more likely
        assert prob_up(n, p + 1, params) <= up + 1e-12  # deeper ask: up less likely

    def test_node_count_does_not_move_results(self, monkeypatch):
        cases = [ModelParams.from_rates(lam, mt) for lam, mt in ((1.0, 1.3), (9.9, 10.0), (2258.676, 2284.587))]

        def results():
            grids = [[[prob_up(n, p, c) for p in range(1, 21)] for n in range(1, 21)] for c in cases]
            return np.array(grids), np.array([expected_duration(2, 3, c) for c in cases])

        base_grid, base_mean = results()
        try:
            monkeypatch.setattr(analytics, "NODES_PER_PANEL", 48)
            analytics._transform_nodes.cache_clear()
            grid, mean = results()
        finally:
            monkeypatch.undo()
            analytics._transform_nodes.cache_clear()
        assert np.abs(grid - base_grid).max() <= 1e-13
        assert np.abs(mean / base_mean - 1.0).max() <= 1e-13


class TestTruncationValidation:
    """The truncation keyword is gone; passing it raises instead of being ignored."""

    F_DEEP = QueueDist([(5, 1, 0.5), (1, 5, 0.5)])
    UNBALANCED = ModelParams.from_rates(1.0, 1.3)
    BALANCED = ModelParams.from_rates(4.0, 4.0)

    @pytest.mark.parametrize("truncation", [0, 1, 4, 2.5, 5.0, True, None, "400"])
    @pytest.mark.parametrize("params", [UNBALANCED, BALANCED])
    def test_rejected_at_every_public_entry(self, truncation, params):
        calls = [
            lambda kw: prob_up(5, 1, params, **kw),
            lambda kw: p_cont(self.F_DEEP, params, **kw),
            lambda kw: p_n(2, 1, 1, self.F_DEEP, params, **kw),
            lambda kw: autocov_moves(2, self.F_DEEP, params, **kw),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="truncation"):
                call({"truncation": truncation})
        with pytest.raises(TypeError):
            prob_up(5, 1, params, truncation)


class TestSupercriticalRejected:
    """lam > mu + theta: the price may never move, so there is no up-move law."""

    PARAMS = ModelParams.from_rates(1.3, 1.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: prob_up(1, 1, p),
            lambda p: p_cont(CITI_LIKE_F, p),
            lambda p: p_n(2, 1, 1, CITI_LIKE_F, p),
            lambda p: autocov_moves(2, CITI_LIKE_F, p),
        ],
        ids=["prob_up", "p_cont", "p_n", "autocov_moves"],
    )
    def test_raises(self, call):
        with pytest.raises(ValueError, match="lam <= mu \\+ theta"):
            call(self.PARAMS)


class TestPriceChain:
    def test_p_cont_symmetric_balanced(self, f_symmetric):
        params = ModelParams.from_rates(4.0, 4.0)
        assert p_cont(f_symmetric, params) == pytest.approx(0.5, abs=1e-8)

    def test_p_cont_point_mass(self):
        params = ModelParams.from_rates(4.0, 4.0)
        f = QueueDist.point_mass(1, 2)
        assert p_cont(f, params) == pytest.approx(prob_up_balanced(1, 2), abs=1e-12)

    def test_p_cont_asymmetric_below_half(self):
        # thin-bid/deep-ask replenishment makes reversals more likely
        assert CITI_LIKE_F.upper_mass() > 0.7
        for params in (ModelParams.from_rates(4.0, 4.0), ModelParams.from_rates(1.0, 1.3)):
            assert p_cont(CITI_LIKE_F, params) < 0.5

    def test_p_n_reduces_to_p1(self, f_symmetric):
        params = ModelParams.from_rates(1.0, 1.3)
        assert p_n(1, 3, 2, f_symmetric, params) == pytest.approx(
            prob_up(3, 2, params), abs=1e-12
        )

    def test_p_n_flat_when_p_cont_half(self, f_symmetric):
        params = ModelParams.from_rates(1.0, 1.3)
        for k in (2, 3, 10):
            assert p_n(k, 3, 1, f_symmetric, params) == pytest.approx(0.5, abs=1e-9)

    def test_p_n_against_monte_carlo(self):
        params = ModelParams.from_rates(1.0, 1.3)
        k, bid, ask = 3, 2, 1
        analytic = p_n(k, bid, ask, CITI_LIKE_F, params)
        signs = sample_move_signs(params, CITI_LIKE_F, 150_000, k, seed=1618, start=(bid, ask))
        est = (signs[:, k - 1] == 1).mean()
        se = math.sqrt(est * (1 - est) / signs.shape[0])
        assert abs(est - analytic) <= 3 * se

    def test_autocov_basics(self, f_symmetric):
        params = ModelParams.from_rates(1.0, 1.3)
        assert autocov_moves(1, f_symmetric, params) == 1.0
        for k in (2, 3, 6):
            assert autocov_moves(k, f_symmetric, params) == pytest.approx(0.0, abs=1e-8)

    def test_autocov_geometric_structure(self):
        params = ModelParams.from_rates(1.0, 1.3)
        c2 = autocov_moves(2, CITI_LIKE_F, params)
        c4 = autocov_moves(4, CITI_LIKE_F, params)
        assert c2 < 0.0
        assert c4 == pytest.approx(c2**3, rel=1e-10)


class TestDepthAndVol:
    def test_depth_point_mass(self, f_point):
        assert depth(f_point) == pytest.approx(6.0)

    def test_depth_two_atoms(self):
        f = QueueDist([(1, 1, 0.5), (2, 2, 0.5)])
        assert depth(f) == pytest.approx(2.5)

    def test_depth_matches_direct_sum(self):
        f = CITI_LIKE_F
        direct = sum(i * j * p for i, j, p in f.items())
        assert depth(f) == pytest.approx(direct, rel=1e-14)

    def test_vol_balanced_unit_cases(self):
        f1 = QueueDist.point_mass(1, 1)
        p1 = ModelParams.from_rates(1.0 / math.pi, 1.0 / math.pi)
        assert vol_balanced(p1, f1) == pytest.approx(1.0, rel=1e-12)
        f4 = QueueDist.point_mass(2, 2)
        p4 = ModelParams.from_rates(4.0 / math.pi, 4.0 / math.pi)
        assert vol_balanced(p4, f4) == pytest.approx(1.0, rel=1e-12)

    def test_vol_balanced_window_scaling(self):
        f = QueueDist.point_mass(2, 2)
        p = ModelParams.from_rates(2.0, 2.0)
        assert vol_balanced_window(p, f, 9) == pytest.approx(3.0 * vol_balanced(p, f), rel=1e-14)

    def test_vol_balanced_warns_unbalanced(self, f_point):
        with pytest.warns(UserWarning):
            vol_balanced(ModelParams.from_rates(1.0, 2.0), f_point)

    def test_vol_unbalanced_formula(self, f_symmetric):
        params = ModelParams.from_rates(1.0, 1.3)
        m = expected_duration_f(f_symmetric, params)
        assert vol_unbalanced(params, f_symmetric) == pytest.approx(1.0 / math.sqrt(m), rel=1e-12)
        two_tick = ModelParams(lam=1.0, mu=1.3, theta=0.0, tick=2.0)
        assert vol_unbalanced(two_tick, f_symmetric) == pytest.approx(2.0 / math.sqrt(m), rel=1e-12)

    def test_vol_unbalanced_asymmetric_f(self):
        # renewal-reward: vol^2 m(f) = tick^2 p_cont / (1 - p_cont); CITI_LIKE_F has p_cont < 1/2
        params = ModelParams(lam=1.0, mu=1.3, theta=0.0, tick=0.5)
        m = expected_duration_f(CITI_LIKE_F, params)
        pc = p_cont(CITI_LIKE_F, params)
        assert pc < 0.45
        vol = vol_unbalanced(params, CITI_LIKE_F)
        assert vol**2 * m == pytest.approx(0.25 * pc / (1.0 - pc), rel=1e-12)
        assert vol == pytest.approx(0.5 * 0.6945, rel=1e-3)  # Monte Carlo: 0.692 (criterion 10)


class TestExpectedDuration:
    def test_frozen_values(self):
        # cross-validated against 1e6-path simulation and the uniformized
        # chain in the acceptance suite
        assert expected_duration(1, 1, ModelParams.from_rates(1.0, 2.0)) == pytest.approx(
            0.3511151061127051, rel=1e-9
        )
        assert expected_duration(4, 5, ModelParams.from_rates(12.0, 13.0)) == pytest.approx(
            1.230733577261671, rel=1e-9
        )

    def test_liquid_rates_match_survival_integral(self):
        # a seed-706 liquid book, where the survival has a short time scale
        lam, mt = 2258.676, 2284.587
        params = ModelParams.from_rates(lam, mt)
        m0 = 2 / (mt - lam)
        rho = (math.sqrt(mt) - math.sqrt(lam)) ** 2
        ts = np.concatenate(([0.0], np.geomspace(1e-4 * m0, 20 / rho + 20 * m0, 4000)))
        want = simpson(survival_curve(2, 2, ts, params), x=ts)
        assert expected_duration(2, 2, params) == pytest.approx(want, rel=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(
        ratio=st.floats(0.5, 0.995),
        mt=st.floats(1.0, 2500.0),
        x=st.integers(1, 5),
        y=st.integers(1, 5),
    )
    def test_symmetric_increasing_and_bounded(self, ratio, mt, x, y):
        params = ModelParams.from_rates(ratio * mt, mt)
        m = expected_duration(x, y, params)
        assert expected_duration(y, x, params) == m
        assert expected_duration(x + 1, y, params) > m
        assert expected_duration(x, y + 1, params) > m
        assert m < min(x, y) / (params.mu_theta - params.lam)

    def test_drift_upper_bound(self):
        params = ModelParams.from_rates(1.0, 2.0)
        for x in range(1, 6):
            for y in range(x, 6):
                assert expected_duration(x, y, params) <= min(x, y) / 1.0 + 1e-9

    def test_symmetric_in_arguments(self, params_unbalanced):
        assert expected_duration(2, 5, params_unbalanced) == expected_duration(5, 2, params_unbalanced)

    def test_rejects_balanced(self, f_symmetric):
        p = ModelParams.from_rates(1.0, 1.0)
        with pytest.raises(ValueError):
            expected_duration(1, 1, p)
        with pytest.raises(ValueError):
            expected_duration_f(f_symmetric, p)

    def test_f_average_point_mass(self, params_unbalanced):
        f = QueueDist.point_mass(2, 3)
        assert expected_duration_f(f, params_unbalanced) == pytest.approx(
            expected_duration(2, 3, params_unbalanced), rel=1e-12
        )

    def test_f_average_two_atoms(self, params_unbalanced):
        f = QueueDist([(1, 1, 0.5), (2, 2, 0.5)])
        mean = 0.5 * (
            expected_duration(1, 1, params_unbalanced) + expected_duration(2, 2, params_unbalanced)
        )
        assert expected_duration_f(f, params_unbalanced) == pytest.approx(mean, rel=1e-12)

    def test_mean_matches_f_replenished_simulation(self):
        # long-run inter-move durations under f replenishment
        params = ModelParams.from_rates(1.0, 1.3)
        f = QueueDist([(1, 1, 0.25), (1, 2, 0.25), (2, 1, 0.25), (2, 2, 0.25)])
        analytic = expected_duration_f(f, params)
        tau, _ = sample_first_passage(0, 0, params, 400_000, seed=808, start_dist=f)
        se = tau.std(ddof=1) / math.sqrt(tau.size)
        assert abs(tau.mean() - analytic) <= 3 * se


class TestClampLogging:
    def test_large_clamp_logged(self, caplog):
        with caplog.at_level(logging.WARNING, logger="lobq.analytics"):
            assert analytics._clamp_prob(1.0 + 5e-7, "unit-test") == 1.0
        assert any("clamped" in r.message for r in caplog.records)

    def test_small_clamp_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="lobq.analytics"):
            assert analytics._clamp_prob(-1e-12, "unit-test") == 0.0
        assert not caplog.records
