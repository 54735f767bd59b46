"""Cross-validation harness: ground-truth oracles and Monte Carlo comparators.

Two independent routes certify every closed-form quantity:

* deterministic oracles: transient survival probabilities from a uniformized
  birth-death chain with certified truncation bounds (integrated by Simpson's
  rule for mean durations); hitting probabilities from the exit problem of
  the embedded jump chain on a truncated quadrant, solved as a Sylvester
  equation at N and 2N; and, for balanced flow, the paper's closed-form
  integral over [0, pi] by adaptive quadrature. None of them shares code
  with the transform kernel of analytics that they check;
* Monte Carlo comparators driving the batch simulation engines against each
  formula, with 3-standard-error pass bands.

run_criterion / run_suite bundle these into the numbered acceptance checks
used by the command line (`lobq xval`) and the test suite. Report objects
carry no wall-clock fields, so identical seeds produce byte-identical JSON.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg
from scipy.integrate import simpson
from scipy.linalg.lapack import dtrsyl
from scipy.special import gammaln
from scipy.stats import kstest

from . import analytics
from .model import (
    ModelParams,
    QueueDist,
    sample_first_passage,
    sample_move_signs,
    sample_price_at,
)
from .numerics import DEFAULT_QUAD, QuadSpec, integrate_panels
from .presets import BALANCED_F, CITI_LIKE_F, UNBALANCED_F

__all__ = [
    "OracleError",
    "OracleConfig",
    "ComparisonReport",
    "CriterionResult",
    "SuiteResult",
    "oracle_survival",
    "oracle_dirichlet",
    "mc_compare",
    "MC_QUANTITIES",
    "run_criterion",
    "run_suite",
    "CRITERIA",
]

BASE_SEED = 4321


class OracleError(RuntimeError):
    """An oracle could not certify its own error bound."""


@dataclass(frozen=True)
class OracleConfig:
    """Budgets for the oracles and Monte Carlo comparators."""

    queue_truncation: int = 400
    time_step_budget: int = 200_000
    mc_paths: int = 100_000
    mc_seed: int = BASE_SEED
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.queue_truncation < 2 or self.time_step_budget < 10 or self.mc_paths < 1:
            raise ValueError("invalid oracle budgets")


@dataclass
class ComparisonReport:
    """Outcome of one analytic-vs-oracle or analytic-vs-Monte-Carlo check.

    passed follows the declared band: deviation <= tolerance for
    deterministic oracles, deviation <= 3 SE for stochastic ones (unless an
    explicit tolerance overrides the band).
    """

    quantity: str
    analytic: object
    oracle: object
    max_abs_dev: float
    tolerance: Optional[float] = None
    se: Optional[float] = None
    passed: bool = False
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        def conv(v):
            if isinstance(v, np.ndarray):
                return [float(x) for x in v]
            if isinstance(v, (np.floating, np.integer)):
                return float(v)
            if isinstance(v, dict):
                return {k: conv(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [conv(x) for x in v]
            return v

        return {
            "quantity": self.quantity,
            "analytic": conv(self.analytic),
            "oracle": conv(self.oracle),
            "max_abs_dev": float(self.max_abs_dev),
            "tolerance": None if self.tolerance is None else float(self.tolerance),
            "se": None if self.se is None else float(self.se),
            "passed": bool(self.passed),
            "details": conv(self.details),
        }


# ---------------------------------------------------------------------------
# Deterministic oracles
# ---------------------------------------------------------------------------


def _bd_survival_curve(
    x: int,
    lam: float,
    mu_theta: float,
    ts: np.ndarray,
    truncation: int,
    step_budget: int,
) -> tuple[np.ndarray, float]:
    """Uniformized transient survival of a birth-death queue absorbed at 0.

    Returns survival probabilities at each t plus a certified error bound
    (Poisson tail of the uniformization mixture plus probability mass leaked
    past the state-space truncation). lam = 0 (pure death) is allowed.
    """
    if x < 1 or x > truncation:
        raise ValueError("initial size must lie inside the truncated state space")
    rate = lam + mu_theta
    t_max = float(np.max(ts))
    mean_jumps = rate * t_max
    k_max = int(math.ceil(mean_jumps + 10.0 * math.sqrt(mean_jumps + 1.0) + 60.0))
    if k_max > step_budget:
        raise OracleError(f"needs {k_max} uniformization steps, budget {step_budget}")
    pu = lam / rate
    pd = mu_theta / rate
    n = truncation
    v = np.zeros(n + 1)
    v[x] = 1.0
    surv = np.empty(k_max + 1)
    surv[0] = 1.0
    leak = 0.0
    for k in range(1, k_max + 1):
        w = np.empty_like(v)
        w[0] = v[0] + pd * v[1]
        w[1:n] = pu * v[0 : n - 1] + pd * v[2 : n + 1]
        w[1] -= pu * v[0]  # state 0 is absorbing
        w[n] = pu * v[n - 1]
        leak += pu * v[n]
        v = w
        surv[k] = 1.0 - v[0]
    if leak > 1e-10:
        raise OracleError(f"probability mass {leak:.2e} escaped truncation {truncation}")

    ks = np.arange(k_max + 1)
    log_fact = gammaln(ks + 1)
    out = np.empty(len(ts))
    p_tail_max = 0.0
    for i, t in enumerate(np.asarray(ts, dtype=float)):
        if t == 0.0:
            out[i] = 1.0
            continue
        mu = rate * t
        logw = ks * math.log(mu) - mu - log_fact
        wts = np.exp(logw)
        p_tail = max(0.0, 1.0 - float(wts.sum()))
        p_tail_max = max(p_tail_max, p_tail)
        out[i] = float(wts @ surv) + p_tail * surv[-1]
    return out, leak + p_tail_max


def oracle_survival(
    a: int,
    b: int,
    t_grid: Sequence[float],
    params: ModelParams,
    cfg: OracleConfig = OracleConfig(),
) -> np.ndarray:
    """Ground-truth duration survival curve P[tau > t | queues (a, b)].

    Product of two independently uniformized single-queue survivals; raises
    OracleError when the certified error bound exceeds cfg.tolerance / 10.
    """
    ts = np.asarray(t_grid, dtype=float)
    sa, ea = _bd_survival_curve(a, params.lam, params.mu_theta, ts, cfg.queue_truncation, cfg.time_step_budget)
    sb, eb = _bd_survival_curve(b, params.lam, params.mu_theta, ts, cfg.queue_truncation, cfg.time_step_budget)
    bound = ea + eb
    if bound > cfg.tolerance / 10.0:
        raise OracleError(f"certified oracle error {bound:.2e} too large for tolerance {cfg.tolerance}")
    return sa * sb


@functools.lru_cache(maxsize=8)
def _sylvester_dirichlet(p_up: float, truncation: int) -> np.ndarray:
    """Hitting-probability grid for the embedded walk on {1..N}^2, bid on axis 0.

    Solves phi(i, j) = sum of neighbor values weighted by the per-event
    transition probabilities (side 1/2, then up p_up / down 1-p_up), with
    phi = 0 on the bid axis, 1 on the ask axis, and single-queue ruin
    values min(1, ((1-p_up)/p_up)^h) on the far boundary.

    The queues move independently, so the N^2-unknown operator is the
    Kronecker sum of one tridiagonal N x N matrix M = (I - A)/2 with itself
    (A holds p_up above its diagonal and 1-p_up below), and the problem is
    the Sylvester equation M X + X M^T = B, with B the boundary terms. It is
    solved by Bartels-Stewart: real Schur form M = U T U^T, the triangular
    equation T Y + Y T^T = U^T B U by LAPACK trsyl, then X = U Y U^T, and
    one step of iterative refinement on the residual; O(N^3) time and
    O(N^2) memory.
    """
    N = truncation
    pu = p_up
    pd = 1.0 - p_up
    far = np.minimum(1.0, (pd / pu) ** np.arange(1, N + 1))  # one queue's ruin probability

    M = 0.5 * np.eye(N)
    k = np.arange(N - 1)
    M[k, k + 1] = -0.5 * pu
    M[k + 1, k] = -0.5 * pd
    B = np.zeros((N, N))
    B[:, 0] += 0.5 * pd                    # ask = 0: the price moved up
    B[N - 1, :] += 0.5 * pu * far          # bid = N+1, taken as endless: up iff the ask ever empties
    B[:, N - 1] += 0.5 * pu * (1.0 - far)  # ask = N+1: up unless the bid ever empties

    T, U = scipy.linalg.schur(M, output="real")

    def solve(rhs: np.ndarray) -> np.ndarray:
        Y, scale, info = dtrsyl(T, T, U.T @ rhs @ U, tranb="T")
        if info < 0:
            raise ValueError(f"trsyl rejected argument {-info}")
        return U @ (Y / scale) @ U.T

    X = solve(B)
    X += solve(B - M @ X - X @ M.T)  # one refinement step: 2e-12 -> 3e-14 off a sparse LU
    X.flags.writeable = False  # shared by every caller through the cache
    return X


def oracle_dirichlet(
    n: int,
    p: int,
    params: ModelParams,
    cfg: OracleConfig = OracleConfig(),
) -> tuple[float, float]:
    """Hitting probability of the ask axis from (bid=n, ask=p) on a truncated quadrant.

    The exit problem of the embedded jump chain on {1..N}^2, solved as a
    Sylvester equation. Returns (probability at N = cfg.queue_truncation,
    boundary sensitivity), the latter being the change when N is doubled.
    Both solves are cached, so grid sweeps cost two solves in total.
    """
    coarse = _sylvester_dirichlet(params.p_up, cfg.queue_truncation)
    fine = _sylvester_dirichlet(params.p_up, 2 * cfg.queue_truncation)
    val = float(coarse[n - 1, p - 1])
    sens = abs(float(fine[n - 1, p - 1]) - val)
    return val, sens


PHI_SMALL_T = 1e-6  # below this the balanced integrand uses its t->0 limit


@functools.lru_cache(maxsize=65536)
def _phi_cached(n: int, p: int, spec: QuadSpec) -> float:
    """The paper's closed-form integral over [0, pi] for the balanced up-move probability.

    Exit probability of the symmetric planar walk through the ask axis from
    bid n, ask p; the integrand's removable singularity at t = 0 (limit
    2n) is patched below PHI_SMALL_T.
    """
    cos, sin, sqrt = math.cos, math.sin, math.sqrt

    def integrand(t: float) -> float:
        w = 2.0 - cos(t)
        decay = 1.0 / (w + sqrt(w * w - 1.0))  # e^{-r(t)}, cancellation-free
        if t < PHI_SMALL_T:
            return 2.0 * n * decay**p
        return decay**p * sin(n * t) * cos(0.5 * t) / sin(0.5 * t)

    # one panel per lobe of sin(n t), so no oscillation is ever aliased away
    return integrate_panels(integrand, [k * math.pi / n for k in range(n + 1)], spec) / math.pi


# ---------------------------------------------------------------------------
# Monte Carlo comparators
# ---------------------------------------------------------------------------


def _report(quantity, analytic, oracle, dev, se=None, tolerance=None, details=None):
    if tolerance is not None:
        passed = dev <= tolerance
    elif se is not None:
        passed = dev <= 3.0 * se
    else:
        passed = False
    return ComparisonReport(
        quantity=quantity,
        analytic=analytic,
        oracle=oracle,
        max_abs_dev=float(dev),
        tolerance=tolerance,
        se=se,
        passed=bool(passed),
        details=details or {},
    )


def _cmp_duration_survival(params, f, cfg, a=4, b=5, t_grid=None, tolerance=None):
    ts = np.arange(0.0, 10.0001, 0.1) if t_grid is None else np.asarray(t_grid, float)
    analytic = analytics.survival_curve(a, b, ts, params)
    tau, _ = sample_first_passage(a, b, params, cfg.mc_paths, cfg.mc_seed)
    emp = np.array([(tau > t).mean() for t in ts])
    se = float(np.max(np.sqrt(np.maximum(emp * (1 - emp), 1e-12) / tau.size)))
    dev = float(np.max(np.abs(emp - analytic)))
    return _report(
        "duration_survival", analytic, emp, dev, se=se, tolerance=tolerance,
        details={"a": a, "b": b, "paths": cfg.mc_paths, "t_max": float(ts[-1])},
    )


# abs_tol far below the survival values in the unbalanced tail window
# (about 1e-219 at lam=12, mu+theta=13), so the relative tolerance governs.
# Balanced flow keeps DEFAULT_QUAD: its algebraic psi truncation point grows
# like abs_tol^-0.4, and at this tolerance the quadrature cannot converge.
TAIL_QUAD = QuadSpec(abs_tol=1e-300)


def _cmp_tail_slope(params, f, cfg, a=4, b=5, window=None):
    """Analytic survival against its tail law over an asymptotic window.

    The law reads S(t) ~ prefactor t^-exponent e^{-rate t}. The slope is
    fitted to log(S e^{rate t}) against log t, so a wrong rate shows up as
    a drifting slope; the prefactor is read off as S t^exponent e^{rate t}
    at the window's far end, where the O(1/t) correction is smallest. The
    default windows are t in [16, 1600] for balanced flow and
    [80/rho, 240/rho] with rho = rate/2 for unbalanced flow (about
    [4000, 12000] at lam=12, mu+theta=13). Pass requires the fitted slope
    within 0.1 of -exponent and the prefactor within 5% of the law's.
    """
    law = analytics.tail_law(a, b, params)
    if window is None:
        window = (16.0, 1600.0) if params.balanced else (160.0 / law.rate, 480.0 / law.rate)
    spec = DEFAULT_QUAD if params.balanced else TAIL_QUAD
    ts = np.geomspace(window[0], window[1], 41)
    ss = analytics.survival_curve(a, b, ts, params, spec)
    log_comp = np.log(ss) + law.rate * ts
    slope = -float(np.polyfit(np.log(ts), log_comp, 1)[0])
    pref = math.exp(log_comp[-1] + law.exponent * math.log(ts[-1]))
    slope_dev = abs(slope - law.exponent)
    pref_dev = abs(pref / law.prefactor - 1.0)
    passed = slope_dev <= 0.1 and pref_dev <= 0.05
    rep = _report(
        "tail_slope",
        {"exponent": law.exponent, "prefactor": law.prefactor, "rate": law.rate},
        {"exponent": slope, "prefactor": pref},
        max(slope_dev, pref_dev),
        tolerance=0.1,
        details={
            "window": list(window),
            "slope_dev": slope_dev,
            "prefactor_rel_dev": pref_dev,
            "regime": "balanced" if params.balanced else "unbalanced",
            "quad_spec": asdict(spec),
        },
    )
    rep.passed = passed
    return rep


def _cmp_first_move(params, f, cfg, bid=3, ask=1, tolerance=None):
    analytic = analytics.prob_up(bid, ask, params)
    _, up = sample_first_passage(bid, ask, params, cfg.mc_paths, cfg.mc_seed)
    est = float(up.mean())
    se = math.sqrt(max(est * (1 - est), 1e-12) / up.size)
    return _report(
        "first_move_probability", analytic, est, abs(est - analytic), se=se,
        tolerance=tolerance, details={"bid": bid, "ask": ask, "paths": cfg.mc_paths},
    )


def _cmp_p_n(params, f, cfg, k=3, bid=2, ask=1, tolerance=None):
    analytic = analytics.p_n(k, bid, ask, f, params)
    n_chains = cfg.mc_paths
    signs = sample_move_signs(params, f, n_chains, k, cfg.mc_seed, start=(bid, ask))
    est = float((signs[:, k - 1] == 1).mean())
    se = math.sqrt(max(est * (1 - est), 1e-12) / n_chains)
    return _report(
        "p_n", analytic, est, abs(est - analytic), se=se, tolerance=tolerance,
        details={"k": k, "bid": bid, "ask": ask, "chains": n_chains},
    )


def _cmp_autocovariance(params, f, cfg, k_max=5, chains=2000, moves=500, burn=30):
    """Pooled within-chain lag covariances of the +-1 move signs vs theory.

    Chains are burned in so the sign sequence is stationary; the estimator
    is the plain product mean (the stationary mean sign is zero under the
    mirrored replenishment law).
    """
    signs = sample_move_signs(params, f, chains, moves + burn, cfg.mc_seed)
    x = signs[:, burn:].astype(np.float64)
    analytic = []
    est = []
    ses = []
    for k in range(1, k_max + 1):
        analytic.append(analytics.autocov_moves(k, f, params))
        if k == 1:
            prod = x * x
        else:
            prod = x[:, : -(k - 1)] * x[:, k - 1 :]
        est.append(float(prod.mean()))
        ses.append(float(prod.std(ddof=1) / math.sqrt(prod.size)))
    devs = np.abs(np.array(est) - np.array(analytic))
    passed = all(d <= 3.0 * max(s, 1e-15) for d, s in zip(devs, ses))
    rep = _report(
        "autocovariance", analytic, est, float(devs.max()),
        se=float(max(ses)),
        details={"per_lag_se": ses, "chains": chains, "moves": moves,
                 "p_cont": analytics.p_cont(f, params)},
    )
    rep.passed = passed
    return rep


def _cmp_expected_duration(params, f, cfg, x=1, y=1, tolerance=None):
    analytic = analytics.expected_duration(x, y, params)
    tau, _ = sample_first_passage(x, y, params, cfg.mc_paths, cfg.mc_seed)
    est = float(tau.mean())
    se = float(tau.std(ddof=1) / math.sqrt(tau.size))
    return _report(
        "expected_duration", analytic, est, abs(est - analytic), se=se,
        tolerance=tolerance,
        details={"x": x, "y": y, "paths": cfg.mc_paths,
                 "rel_dev": abs(est - analytic) / analytic},
    )


def _cmp_mean_duration_oracle(params, x, y):
    """E[tau] vs Simpson's rule on the uniformized-chain survival over 0 and
    4000 nodes of geomspace(1e-4 m0, 20/rho + 20 m0), m0 = min(x, y)/(mu+theta-lam)."""
    analytic = analytics.expected_duration(x, y, params)
    m0 = min(x, y) / (params.mu_theta - params.lam)
    t_max = 20.0 / (math.sqrt(params.mu_theta) - math.sqrt(params.lam)) ** 2 + 20.0 * m0
    ts = np.concatenate(([0.0], np.geomspace(1e-4 * m0, t_max, 4000)))
    oracle = float(simpson(oracle_survival(x, y, ts, params), x=ts))
    dev = abs(oracle - analytic)
    return _report(f"expected_duration_oracle({x},{y})", analytic, oracle, dev,
                   tolerance=1e-8 * analytic,
                   details={"x": x, "y": y, "rel_dev": dev / analytic, "t_max": t_max})


def _diffusion_report(quantity, params, f, cfg, n, paths, sigma, zeta, ks_tol, rel_tol):
    ticks = sample_price_at(params, f, zeta, paths, cfg.mc_seed)
    vals = params.tick * ticks / math.sqrt(n)
    sd = float(vals.std(ddof=1))
    ks = float(kstest(vals, "norm", args=(0.0, sigma)).statistic)
    rel_dev = abs(sd / sigma - 1.0)
    passed = rel_dev <= rel_tol and ks <= ks_tol
    rep = _report(
        quantity, sigma, sd, abs(sd - sigma),
        se=sigma / math.sqrt(2.0 * (paths - 1)),
        details={
            "n": n, "paths": paths, "horizon": zeta, "ks_distance": ks,
            "ks_tolerance": ks_tol, "rel_dev": rel_dev, "rel_tolerance": rel_tol,
        },
    )
    rep.passed = passed
    return rep


def _cmp_diffusion_balanced(params, f, cfg, n=200, paths=2000, ks_tol=0.05, rel_tol=0.10):
    sigma = analytics.vol_balanced(params, f)
    zeta = n * math.log(n)
    return _diffusion_report(
        "diffusion_vol_balanced", params, f, cfg, n, paths, sigma, zeta, ks_tol, rel_tol
    )


def _cmp_diffusion_unbalanced(params, f, cfg, n=2000, paths=2000, ks_tol=0.05, rel_tol=0.10):
    sigma = analytics.vol_unbalanced(params, f)
    return _diffusion_report(
        "diffusion_vol_unbalanced", params, f, cfg, n, paths, sigma, float(n), ks_tol, rel_tol
    )


MC_QUANTITIES: dict[str, Callable] = {
    "duration_survival": _cmp_duration_survival,
    "tail_slope": _cmp_tail_slope,
    "first_move_probability": _cmp_first_move,
    "p_n": _cmp_p_n,
    "autocovariance": _cmp_autocovariance,
    "expected_duration": _cmp_expected_duration,
    "diffusion_vol_balanced": _cmp_diffusion_balanced,
    "diffusion_vol_unbalanced": _cmp_diffusion_unbalanced,
}


def mc_compare(
    quantity: str,
    params: ModelParams,
    f: QueueDist,
    cfg: OracleConfig = OracleConfig(),
    **kwargs,
) -> ComparisonReport:
    """Run one registered analytic-vs-simulation comparison by name."""
    try:
        runner = MC_QUANTITIES[quantity]
    except KeyError:
        raise KeyError(
            f"unknown quantity {quantity!r}; registered: {sorted(MC_QUANTITIES)}"
        ) from None
    return runner(params, f, cfg, **kwargs)


# ---------------------------------------------------------------------------
# Acceptance criteria
# ---------------------------------------------------------------------------


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    reports: list
    notes: list

    def as_dict(self) -> dict:
        return {
            "number": self.number,
            "title": self.title,
            "passed": bool(self.passed),
            "reports": [r.as_dict() for r in self.reports],
            "notes": list(self.notes),
        }


@dataclass
class SuiteResult:
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def as_dict(self) -> dict:
        return {"passed": self.passed, "criteria": [r.as_dict() for r in self.results]}

    def table(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"criterion {r.number}: {status}  {r.title}")
            for note in r.notes:
                lines.append(f"    note: {note}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _criterion_1(seed: int) -> CriterionResult:
    """Duration law vs uniformized-chain oracle (1e-6) and Monte Carlo (0.01)."""
    params = ModelParams.from_rates(12.0, 13.0)
    ts = np.round(np.arange(0.0, 10.0001, 0.1), 10)
    cfg = OracleConfig(mc_paths=100_000, mc_seed=seed)
    analytic = analytics.survival_curve(4, 5, ts, params)
    exact = oracle_survival(4, 5, ts, params, cfg)
    dev_oracle = float(np.max(np.abs(analytic - exact)))
    rep1 = _report("duration_survival_vs_ctmc", analytic, exact, dev_oracle, tolerance=1e-6,
                   details={"grid": "0:10:0.1", "a": 4, "b": 5})
    rep2 = _cmp_duration_survival(params, None, cfg, a=4, b=5, t_grid=ts, tolerance=0.01)
    return CriterionResult(
        1, "duration law (4,5) at lam=12, mu+theta=13", rep1.passed and rep2.passed,
        [rep1, rep2], [],
    )


def _criterion_2(seed: int) -> CriterionResult:
    """Tail regression vs the tail laws, both regimes."""
    rep_u = _cmp_tail_slope(ModelParams.from_rates(12.0, 13.0), None, OracleConfig())
    rep_b = _cmp_tail_slope(ModelParams.from_rates(12.5, 12.5), None, OracleConfig())
    return CriterionResult(
        2, "tail exponents and prefactors", rep_u.passed and rep_b.passed,
        [rep_u, rep_b], [],
    )


def _criterion_3(seed: int) -> CriterionResult:
    """Hitting-probability kernel vs the phi integral (balanced) and the Sylvester solve (unbalanced)."""
    grid = range(1, 21)
    params = ModelParams.from_rates(10.0, 10.0)
    kernel = np.array([[analytics.prob_up(n, p, params) for p in grid] for n in grid])
    phi = np.array([[_phi_cached(n, p, DEFAULT_QUAD) for p in grid] for n in grid])
    rep1 = _report("prob_up_vs_phi", "transform kernel", "phi integral",
                   float(np.max(np.abs(kernel - phi))), tolerance=1e-8,
                   details={"grid": 20, "quad_spec": asdict(DEFAULT_QUAD)})
    rep2 = _report("prob_up_diagonal", 0.5, "phi(n,n)",
                   float(np.max(np.abs(np.diag(kernel) - 0.5))), tolerance=1e-8)
    rep3 = _report("prob_up_complement", 1.0, "phi(n,p)+phi(p,n)",
                   float(np.max(np.abs(kernel + kernel.T - 1.0))), tolerance=1e-8)

    # lam=1, mu+theta=1.3 (criterion 4's rates) holds CITI_LIKE_F's atoms
    params = ModelParams.from_rates(1.0, 1.3)
    cfg = OracleConfig(queue_truncation=400)
    kernel = np.array([[analytics.prob_up(n, p, params) for p in grid] for n in grid])
    sens = max(oracle_dirichlet(n, p, params, cfg)[1] for n in grid for p in grid)
    fine = _sylvester_dirichlet(params.p_up, 2 * cfg.queue_truncation)[:20, :20]
    rep4 = _report("prob_up_vs_sylvester", "transform kernel", "Sylvester solve, N=800",
                   float(np.max(np.abs(kernel - fine))), tolerance=1e-10,
                   details={"grid": 20, "lam": 1.0, "mu_theta": 1.3,
                            "boundary_sensitivity": sens})
    reports = [rep1, rep2, rep3, rep4]
    return CriterionResult(
        3, "hitting probability grid n,p <= 20",
        all(r.passed for r in reports), reports, [],
    )


def _criterion_4(seed: int) -> CriterionResult:
    """Move-chain statistics under asymmetric and symmetric replenishment."""
    params = ModelParams.from_rates(1.0, 1.3)
    cfg = OracleConfig(mc_seed=seed)
    f = CITI_LIKE_F
    upper = f.upper_mass()
    pc = analytics.p_cont(f, params)
    rep_sign = _report(
        "p_cont_sign", "p_cont < 1/2 when mass on {ask>=bid} > 0.7",
        {"p_cont": pc, "upper_mass": upper},
        0.0 if (upper > 0.7 and pc < 0.5) else 1.0, tolerance=0.5,
        details={"p_cont": pc, "upper_mass": upper},
    )
    rep_ac = _cmp_autocovariance(params, f, cfg, k_max=5, chains=2000, moves=500)
    cfg_sym = OracleConfig(mc_seed=seed + 1)
    rep_sym = _cmp_autocovariance(params, UNBALANCED_F, cfg_sym, k_max=5, chains=2000, moves=500)
    sym_zero_dev = max(abs(v) for v in rep_sym.oracle[1:])
    notes = [f"symmetric-f residual autocovariance {sym_zero_dev:.2e}"]
    return CriterionResult(
        4, "price-change chain: p_cont and lag autocovariances",
        rep_sign.passed and rep_ac.passed and rep_sym.passed,
        [rep_sign, rep_ac, rep_sym], notes,
    )


def _criterion_5(seed: int) -> CriterionResult:
    """Mean duration vs 1e6-path simulation (1%), uniformized chain (1e-8), drift bound."""
    reports = []
    combos = [((1, 1), ModelParams.from_rates(1.0, 2.0)), ((4, 5), ModelParams.from_rates(12.0, 13.0))]
    for (x, y), params in combos:
        cfg = OracleConfig(mc_paths=1_000_000, mc_seed=seed + x + y)
        rep = _cmp_expected_duration(params, None, cfg, x=x, y=y)
        rep.tolerance = 0.01 * float(rep.analytic)
        rep.passed = rep.max_abs_dev <= rep.tolerance
        rep.quantity = f"expected_duration({x},{y})"
        reports.append(rep)
    reports += [_cmp_mean_duration_oracle(params, x, y) for (x, y), params in combos]
    bound_dev = 0.0
    for params in (ModelParams.from_rates(1.0, 2.0), ModelParams.from_rates(12.0, 13.0)):
        gap = params.mu_theta - params.lam
        for x in range(1, 7):
            for y in range(x, 7):
                m = analytics.expected_duration(x, y, params)
                bound_dev = max(bound_dev, m - min(x, y) / gap)
    rep_bound = _report("expected_duration_bound", "E[tau] <= min(x,y)/(mu+theta-lam)",
                        "grid x,y <= 6", max(bound_dev, 0.0), tolerance=0.0,
                        details={"max_excess": bound_dev})
    return CriterionResult(
        5, "expected duration vs simulation, uniformized chain and drift bound",
        all(r.passed for r in reports) and rep_bound.passed,
        reports + [rep_bound], [],
    )


def _criterion_6(seed: int) -> CriterionResult:
    """Balanced diffusion limit at n=200 with the shipped symmetric f."""
    params = ModelParams.from_rates(10.0, 10.0)
    cfg = OracleConfig(mc_seed=seed)
    rep = _cmp_diffusion_balanced(params, BALANCED_F, cfg, n=200, paths=2000,
                                  ks_tol=0.05, rel_tol=0.10)
    return CriterionResult(6, "balanced diffusion limit (n log n scaling)", rep.passed, [rep], [])


def _criterion_7(seed: int) -> CriterionResult:
    """Unbalanced diffusion limit with the shipped symmetric f."""
    params = ModelParams.from_rates(1.0, 1.3)
    cfg = OracleConfig(mc_seed=seed)
    rep = _cmp_diffusion_unbalanced(params, UNBALANCED_F, cfg, n=2000, paths=2000,
                                    ks_tol=0.05, rel_tol=0.10)
    rep.details["m_f"] = analytics.expected_duration_f(UNBALANCED_F, params)
    return CriterionResult(7, "unbalanced diffusion limit (n scaling)", rep.passed, [rep], [])


def _criterion_10(seed: int) -> CriterionResult:
    """Unbalanced diffusion limit with the asymmetric CITI_LIKE_F (p_cont below 1/2)."""
    params = ModelParams.from_rates(1.0, 1.3)
    cfg = OracleConfig(mc_seed=seed)
    rep = _cmp_diffusion_unbalanced(params, CITI_LIKE_F, cfg, n=2000, paths=2000,
                                    ks_tol=0.05, rel_tol=0.10)
    rep.details["m_f"] = analytics.expected_duration_f(CITI_LIKE_F, params)
    rep.details["p_cont"] = analytics.p_cont(CITI_LIKE_F, params)
    return CriterionResult(10, "unbalanced diffusion limit, asymmetric f", rep.passed, [rep], [])


def _criterion_8(seed: int) -> CriterionResult:
    """Intensity and replenishment recovery from a simulated 60 s event log."""
    import os
    import tempfile

    from . import estimation
    from .model import SimConfig, simulate
    from .presets import LIQUID_PARAMS

    params = LIQUID_PARAMS
    f = CITI_LIKE_F
    horizon = 60.0
    path, log = simulate(params, f, SimConfig(seed=seed, horizon_time=horizon), collect_events=True)
    with tempfile.TemporaryDirectory() as tmp:
        log_path = os.path.join(tmp, "events.csv")
        log.to_csv(log_path)
        log = estimation.parse_event_log(log_path)
    result = estimation.estimate_intensities(log)
    se_lam = math.sqrt(2.0 * params.lam * horizon) / (2.0 * horizon)
    se_mt = math.sqrt(2.0 * params.mu_theta * horizon) / (2.0 * horizon)
    dev_lam = abs(result.lambda_hat - params.lam)
    dev_mt = abs(result.mu_theta_hat - params.mu_theta)
    rep_rates = _report(
        "intensity_recovery",
        {"lam": params.lam, "mu_theta": params.mu_theta},
        {"lam": result.lambda_hat, "mu_theta": result.mu_theta_hat},
        max(dev_lam, dev_mt),
        se=max(se_lam, se_mt),
        details={"dev_lam": dev_lam, "3se_lam": 3 * se_lam,
                 "dev_mt": dev_mt, "3se_mt": 3 * se_mt},
    )
    rep_rates.passed = dev_lam <= 3 * se_lam and dev_mt <= 3 * se_mt

    f_hat = estimation.estimate_replenishment(log, tick=params.tick)
    tv = _total_variation(f, f_hat)
    n_changes = len(path)
    rep_f = _report(
        "replenishment_recovery", "total variation <= 0.02", tv, tv, tolerance=0.02,
        details={"price_changes": n_changes, "upper_mass_hat": f_hat.upper_mass()},
    )
    rep_n = _report("price_change_count", ">= 10000", n_changes,
                    0.0 if n_changes >= 10_000 else float(10_000 - n_changes), tolerance=0.0,
                    details={"n_changes": n_changes})
    return CriterionResult(
        8, "estimation recovery at liquid-stock intensities",
        rep_rates.passed and rep_f.passed and rep_n.passed,
        [rep_rates, rep_f, rep_n], [],
    )


def _total_variation(f: QueueDist, g: QueueDist) -> float:
    keys = set(f.as_dict()) | set(g.as_dict())
    df, dg = f.as_dict(), g.as_dict()
    return 0.5 * sum(abs(df.get(k, 0.0) - dg.get(k, 0.0)) for k in keys)


CRITERIA: dict[int, Callable[[int], CriterionResult]] = {
    1: _criterion_1,
    2: _criterion_2,
    3: _criterion_3,
    4: _criterion_4,
    5: _criterion_5,
    6: _criterion_6,
    7: _criterion_7,
    8: _criterion_8,
    10: _criterion_10,
}


def run_criterion(number: int, seed: int = BASE_SEED) -> CriterionResult:
    """Run one numbered acceptance criterion with a deterministic seed."""
    if number not in CRITERIA:
        raise ValueError(f"criterion must be in {sorted(CRITERIA)}, got {number}")
    return CRITERIA[number](seed + 1000 * number)


def run_suite(numbers: Optional[Sequence[int]] = None, seed: int = BASE_SEED) -> SuiteResult:
    """Run the acceptance criteria (all by default) and collect results."""
    nums = sorted(CRITERIA) if numbers is None else sorted(set(numbers))
    return SuiteResult([run_criterion(k, seed) for k in nums])
