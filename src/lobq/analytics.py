"""Closed-form price statistics for the two-queue book.

Conventions used throughout:

* Queue arguments are passed as (bid, ask) everywhere. Hitting-problem
  conventions that condition on the ask size first are easy to mix up, so
  every public function fixes the order (bid, ask) and documents itself in
  those terms.
* lam is the per-side limit-order rate and mu_theta = mu + theta the
  per-side removal rate.
* Probabilities coming out of quadrature are clamped to [0, 1]; clamps
  larger than 1e-8 are logged as warnings.

The duration until the next price move is tau = min(sigma_b, sigma_a), the
first depletion time of the two queues. Its survival function factorizes
into per-queue survivals

    P[tau > t] = S(bid, t) * S(ask, t),
    S(x, t) = sqrt(((mu+theta)/lam)^x) * psi(x, t),

with psi the Bessel-integral transient of a birth-death queue. For
lam < mu + theta the per-queue law has an exponential tail of rate
(sqrt(lam) - sqrt(mu+theta))^2; for lam = mu+theta it is regularly varying
with index 1/2.

Hitting probabilities and mean durations come from one transform kernel.
The queues are independent, and one queue's depletion time sigma_x has
Laplace transform r(s)^x, so by Parseval

    P[sigma_ask(p) < sigma_bid(n)] = (1/pi) int_0^inf Re[r(iw)^p conj(S_n^(iw))] dw,
    E[tau] = (1/pi) int_0^inf Re[S_x^(iw) conj(S_y^(iw))] dw,

with S_n^(iw) = (1 - r(iw)^n)/(iw) the transform of the survival S_n. Both
are weighted sums over one fixed set of Gauss-Legendre nodes per
(lam, mu + theta), with no truncation of the queues and no tolerance.
"""

from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .model import ModelParams, QueueDist
from .numerics import (
    DEFAULT_QUAD,
    QuadSpec,
    bessel_i_scaled,
    integrate_finite,
    integrate_semi_infinite,
)

__all__ = [
    "TailLaw",
    "hitting_laplace",
    "psi",
    "queue_survival",
    "survival_duration",
    "survival_curve",
    "tail_law",
    "prob_up_balanced",
    "prob_up",
    "p_cont",
    "p_n",
    "autocov_moves",
    "depth",
    "vol_balanced",
    "vol_balanced_window",
    "expected_duration",
    "expected_duration_f",
    "vol_unbalanced",
]

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class TailLaw:
    """Tail of the duration: P[tau > t] ~ prefactor * t^-exponent * e^{-rate t}.

    rate is 0 for balanced flow, where the tail is a pure power law.
    """

    exponent: int
    prefactor: float
    rate: float = 0.0

    def asymptote(self, t: float) -> float:
        """The leading-order value prefactor * t^-exponent * e^{-rate t} (inf at t = 0)."""
        if t <= 0.0:
            return math.inf
        return self.prefactor / t**self.exponent * math.exp(-self.rate * t)


def _clamp_prob(x: float, what: str) -> float:
    if x < 0.0 or x > 1.0:
        over = max(-x, x - 1.0)
        if over > 1e-8:
            logger.warning("%s clamped to [0,1] by %.3e", what, over)
        return min(max(x, 0.0), 1.0)
    return x


def _depletion_root(s, lam: float, mt: float):
    """Root of smaller modulus of lam X^2 - (lam + mt + s) X + mt, for Re s >= 0.

    2 mt / (a + sqrt(a - c) sqrt(a + c)), a = lam + mt + s,
    c = 2 sqrt(lam mt): no cancellation at large |s|, and a - c = rho + s
    is formed from rho = (sqrt(mt) - sqrt(lam))^2 without cancellation near
    balance. The product of the two principal roots has its only branch cut
    on [-c, c] in a, and makes |a + sqrt(...)| the larger. Complex,
    elementwise in s.
    """
    rho = ((mt - lam) / (math.sqrt(mt) + math.sqrt(lam))) ** 2
    a = lam + mt + s
    return 2.0 * mt / (a + np.sqrt(rho + s + 0j) * np.sqrt(a + 2.0 * math.sqrt(lam * mt) + 0j))


def hitting_laplace(s: float, x: int, params: ModelParams) -> float:
    """Laplace transform E[exp(-s sigma)] of a single queue's depletion time.

    sigma is the first time a queue of size x empties under +1 at rate lam
    and -1 at rate mu + theta. The transform is the smaller root of
    lam X^2 - (lam + mu + theta + s) X + mu + theta, raised to the power x;
    at s = 0 it equals min(1, (mu+theta)/lam), the probability of ever
    depleting.
    """
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    if x < 1:
        raise ValueError("queue size must be >= 1")
    return float(_depletion_root(s, params.lam, params.mu_theta).real ** x)


def _psi_integrand(n: int, c: float, rho: float):
    """(n/u) I_n(c u) e^{-u (lam+mu+theta)} written with the scaled Bessel."""

    def g(u: float) -> float:
        if u <= 0.0:
            return 0.5 * c if n == 1 else 0.0
        return (n / u) * bessel_i_scaled(n, c * u) * math.exp(-rho * u)

    return g


def _psi_tail(n: int, c: float, rho: float, T: float) -> float:
    """Tail integral of the psi integrand beyond T via the Bessel expansion.

    Uses I_n(z) e^{-z} ~ (2 pi z)^{-1/2} (1 - (4n^2-1)/(8z)); both resulting
    incomplete-gamma pieces reduce to erfc. Valid for c T well above n^2.
    """
    a1 = (4.0 * n * n - 1.0) / 8.0
    sr = math.sqrt(rho * T) if rho > 0.0 else 0.0
    e = math.exp(-rho * T)
    j1 = 2.0 * e / math.sqrt(T) - 2.0 * math.sqrt(math.pi * rho) * erfc(sr)
    j2 = (2.0 / 3.0) * e * T**-1.5 - (2.0 / 3.0) * rho * j1
    return n / math.sqrt(2.0 * math.pi * c) * (j1 - (a1 / c) * j2)


def psi(n: int, t: float, params: ModelParams, spec: QuadSpec = DEFAULT_QUAD) -> float:
    """Bessel-integral transient psi_n(t) of the single-queue depletion time.

    psi(n, t) integrates (n/u) I_n(2 sqrt(lam (mu+theta)) u)
    e^{-u(lam+mu+theta)} over [t, inf); the per-queue survival is
    sqrt(((mu+theta)/lam)^n) * psi(n, t). Nonnegative and nonincreasing
    in t.

    The integrand decays like e^{-rho u} u^{-3/2} with
    rho = (sqrt(lam) - sqrt(mu+theta))^2. Whichever truncation is shorter is
    used: the exponential-bound truncation of integrate_semi_infinite, or an
    algebraic truncation with the closed-form (erfc) tail added back. The
    second route is what makes the balanced case (rho = 0, where the tail
    is ~ n / sqrt(pi lam T)) tractable.
    """
    if n < 1:
        raise ValueError("queue size must be >= 1")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    lam, mt = params.lam, params.mu_theta
    c = 2.0 * math.sqrt(lam * mt)
    rho = (math.sqrt(lam) - math.sqrt(mt)) ** 2
    g = _psi_integrand(n, c, rho)

    tol_half = 0.5 * spec.abs_tol
    a2 = (4.0 * n * n - 1.0) * (4.0 * n * n - 9.0) / 128.0
    resid_coef = 0.4 * n * max(a2, 1.0) / (c * c * math.sqrt(2.0 * math.pi * c))
    T_alg = (resid_coef / tol_half) ** 0.4
    T_alg = max(T_alg, 10.0 * (n * n + 1.0) / c, 1.5 * t + 1.0 / c)

    if rho > 0.0:
        T_exp = t + math.log(max(2.0 * n / (rho * tol_half), 2.0)) / rho
        if T_exp < T_alg:
            val = integrate_semi_infinite(g, t, rho, spec)
            return max(val, 0.0)

    if t >= T_alg:
        return max(_psi_tail(n, c, rho, t), 0.0)
    breaks = [t]
    step = max((n + 1.0) / c, (T_alg - t) * 1e-6)
    while breaks[-1] + step < T_alg:
        breaks.append(breaks[-1] + step)
        step *= 2.0
    breaks.append(T_alg)
    seg_spec = QuadSpec(spec.abs_tol / len(breaks), spec.rel_tol, spec.max_subdivisions)
    finite = math.fsum(
        integrate_finite(g, breaks[k], breaks[k + 1], seg_spec) for k in range(len(breaks) - 1)
    )
    return max(finite + _psi_tail(n, c, rho, T_alg), 0.0)


def queue_survival(x: int, t: float, params: ModelParams, spec: QuadSpec = DEFAULT_QUAD) -> float:
    """P[single queue of size x survives past t] = sqrt(r^x) psi(x, t), r=(mu+theta)/lam."""
    pref = (params.mu_theta / params.lam) ** (0.5 * x)
    return _clamp_prob(pref * psi(x, t, params, spec), f"queue_survival({x},{t})")


def survival_duration(
    a: int, b: int, t: float, params: ModelParams, spec: QuadSpec = DEFAULT_QUAD
) -> float:
    """P[next price move is later than t], starting from queues (a, b).

    Equal to the product of the two per-queue survivals; symmetric in
    (a, b). Requires lam <= mu + theta (otherwise a queue may never deplete
    and the price may never move).
    """
    _require_nonpositive_drift(params)
    if a < 1 or b < 1:
        raise ValueError("queue sizes must be >= 1")
    pref = (params.mu_theta / params.lam) ** (0.5 * (a + b))
    val = pref * psi(a, t, params, spec) * psi(b, t, params, spec)
    return _clamp_prob(val, f"survival_duration({a},{b},{t})")


def survival_curve(
    a: int,
    b: int,
    t_grid,
    params: ModelParams,
    spec: QuadSpec = DEFAULT_QUAD,
) -> np.ndarray:
    """Duration survival on an increasing grid, sharing work across points.

    psi is evaluated once at the largest t; earlier values are accumulated
    backward with short finite integrals, so a 1000-point curve costs about
    as much as a handful of psi calls.
    """
    _require_nonpositive_drift(params)
    ts = np.asarray(t_grid, dtype=np.float64)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d sequence")
    if np.any(np.diff(ts) <= 0.0) or ts[0] < 0.0:
        raise ValueError("t_grid must be strictly increasing and nonnegative")
    lam, mt = params.lam, params.mu_theta
    c = 2.0 * math.sqrt(lam * mt)
    rho = (math.sqrt(lam) - math.sqrt(mt)) ** 2
    pref = (mt / lam) ** (0.5 * (a + b))

    curves = []
    for n in (a, b):
        g = _psi_integrand(n, c, rho)
        vals = np.empty(ts.size)
        vals[-1] = psi(n, float(ts[-1]), params, spec)
        for k in range(ts.size - 2, -1, -1):
            seg = integrate_finite(g, float(ts[k]), float(ts[k + 1]), spec)
            vals[k] = vals[k + 1] + seg
        curves.append(vals)
    out = pref * curves[0] * curves[1]
    return np.array([_clamp_prob(float(v), "survival_curve") for v in out])


def tail_law(a: int, b: int, params: ModelParams) -> TailLaw:
    """Leading-order tail of the duration tau started from queues (a, b).

    Balanced flow: exponent 1, rate 0, prefactor a b / (pi lam).

    Unbalanced flow (lam < mu+theta): with c = 2 sqrt(lam (mu+theta)),
    r = (mu+theta)/lam and rho = (sqrt(lam) - sqrt(mu+theta))^2, the
    depletion density (x/t) r^{x/2} I_x(c t) e^{-(lam+mu+theta) t} and
    I_x(z) ~ e^z / sqrt(2 pi z) give per queue

        S(x, t) ~ x r^{x/2} t^{-3/2} e^{-rho t} / (rho sqrt(2 pi c)),

    so P[tau > t] ~ a b r^{(a+b)/2} / (2 pi c rho^2) t^-3 e^{-2 rho t}:
    exponent 3, rate 2 rho. The relative correction is about -3/(rho t),
    so the law only shows for t well beyond 1/rho; see
    demos/tail_behavior.py.
    """
    if a < 1 or b < 1:
        raise ValueError("queue sizes must be >= 1")
    _require_nonpositive_drift(params)
    lam, mt = params.lam, params.mu_theta
    if params.balanced:
        return TailLaw(exponent=1, prefactor=a * b / (math.pi * lam))
    c = 2.0 * math.sqrt(lam * mt)
    rho = (math.sqrt(lam) - math.sqrt(mt)) ** 2
    pre = a * b * (mt / lam) ** (0.5 * (a + b)) / (2.0 * math.pi * c * rho**2)
    return TailLaw(exponent=3, prefactor=pre, rate=2.0 * rho)


def _require_nonpositive_drift(params: ModelParams) -> None:
    if params.lam > params.mu_theta and not params.balanced:
        raise ValueError("requires lam <= mu + theta")


def _require_negative_drift(params: ModelParams) -> None:
    if params.balanced or params.lam > params.mu_theta:
        raise ValueError("requires lam < mu + theta")


# Gauss-Legendre nodes on each panel of the transform kernel. Going to 48
# moves prob_up and E[tau] by under 1e-14.
NODES_PER_PANEL = 32


@functools.lru_cache(maxsize=64)
def _transform_nodes(lam: float, mt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Fixed quadrature for (1/pi) int_0^inf F(w) dw over the depletion transform r(iw).

    The two queues are independent, so a pair statistic is a Parseval
    integral of one queue's depletion transform r(iw)^x and survival
    transform (1 - r(iw)^x)/(iw). Substituting w = u^2 removes the
    balanced w^-1/2 singularity at 0, so one rule covers both regimes:
    60 geometric panels in u from sqrt(1e-2 rho) to sqrt(W),
    W = 1e6 (lam + mu + theta), plus a first panel from 0, with
    NODES_PER_PANEL nodes each. rho is floored at 1e-30 (lam + mu + theta)
    for balanced flow; a floor as high as 1e-12 would leave the branch point
    of flow within 1e-10 of balance unresolved, 2e-9 off.

    Returns the nodes w, their weights (Jacobian 2u and 1/pi included), the
    root r(iw) and 1/(pi W), the integral beyond W of a 1/w^2 tail.
    """
    total = lam + mt
    rho = ((mt - lam) / (math.sqrt(mt) + math.sqrt(lam))) ** 2
    big_w = 1e6 * total
    lo_u = math.sqrt(1e-2 * max(rho, 1e-30 * total))
    edges = np.concatenate(([0.0], np.geomspace(lo_u, math.sqrt(big_w), 61)))
    x, gw = np.polynomial.legendre.leggauss(NODES_PER_PANEL)
    half = 0.5 * np.diff(edges)[:, None]
    u = (edges[:-1, None] + half * (1.0 + x)).ravel()
    w = u * u
    weights = 2.0 * u * (half * gw).ravel() / math.pi
    r = _depletion_root(1j * w, lam, mt)
    for arr in (w, weights, r):
        arr.flags.writeable = False  # shared by every caller through the cache
    return w, weights, r, 1.0 / (math.pi * big_w)


def _survival_transform(r: np.ndarray, w: np.ndarray, x) -> np.ndarray:
    """(1 - r^x)/(iw): the Fourier transform of one queue's survival S_x at the nodes."""
    return (1.0 - r**x) / (1j * w)


def _prob_up_pairs(bids, asks, params: ModelParams) -> np.ndarray:
    """prob_up at each (bid, ask) pair: P[sigma_ask < sigma_bid] by Parseval.

    (1/pi) int Re[r(iw)^ask conj(S_bid^(iw))] dw; for ask = 1 the integrand
    is mt/w^2 beyond W, which adds mt/(pi W).
    """
    _require_nonpositive_drift(params)
    bids, asks = np.asarray(bids), np.asarray(asks)
    if bids.dtype.kind not in "iu" or asks.dtype.kind not in "iu" or np.any(bids < 1) or np.any(asks < 1):
        raise ValueError("queue sizes must be integers >= 1")
    w, weights, r, tail = _transform_nodes(params.lam, params.mu_theta)
    col = r[:, None]
    vals = (col ** asks * _survival_transform(col, w[:, None], bids).conj()).real
    return (weights[:, None] * vals).sum(axis=0) + params.mu_theta * tail * (asks == 1)


def prob_up(bid: int, ask: int, params: ModelParams) -> float:
    """Probability that the next price move is up, from queues (bid, ask).

    The ask queue empties first: P[sigma_ask < sigma_bid], one weighted sum
    over the transform kernel's fixed nodes, for balanced and unbalanced
    flow alike. Requires lam <= mu + theta (otherwise the price may never
    move).
    """
    val = float(_prob_up_pairs([bid], [ask], params)[0])
    return _clamp_prob(val, f"prob_up({bid},{ask})")


_UNIT_BALANCED = ModelParams.from_rates(1.0, 1.0)


def prob_up_balanced(n: int, p: int) -> float:
    """Probability the next price move is up, balanced flow, bid n and ask p.

    Parameter-free: when lam = mu + theta the answer depends only on the
    queue sizes, so this is prob_up at lam = mu + theta = 1.
    """
    return prob_up(n, p, _UNIT_BALANCED)


def p_cont(f: QueueDist, params: ModelParams) -> float:
    """Probability that two successive price moves share a direction.

    Right after a move the queues are a fresh draw from f (up move) or its
    mirror (down move), so the continuation probability is the f-average of
    the up-move probability.
    """
    val = math.fsum(f.prob * _prob_up_pairs(f.bid, f.ask, params))
    return _clamp_prob(val, "p_cont")


def p_n(k: int, bid: int, ask: int, f: QueueDist, params: ModelParams) -> float:
    """Probability that the k-th subsequent price move is up, given (bid, ask).

    Two-state sign chain: p_k = (1 + (2 p_cont - 1)^(k-1) (2 p_1 - 1)) / 2
    with p_1 the direct up-move probability from the given state. k = 1
    reduces to p_1 itself.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    p1 = prob_up(bid, ask, params)
    if k == 1:
        return p1
    pc = p_cont(f, params)
    return 0.5 * (1.0 + (2.0 * pc - 1.0) ** (k - 1) * (2.0 * p1 - 1.0))


def autocov_moves(k: int, f: QueueDist, params: ModelParams) -> float:
    """Lag covariance Cov(X_1, X_k) of the +-1 move sequence, (2 p_cont - 1)^(k-1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return (2.0 * p_cont(f, params) - 1.0) ** (k - 1)


def depth(f: QueueDist) -> float:
    """Market depth D(f) = sum of i j f(i, j); its square root is the geometric
    mean of the post-move queue sizes."""
    return float(np.sum(f.bid * f.ask * f.prob))


def vol_balanced(params: ModelParams, f: QueueDist) -> float:
    """Diffusion-limit volatility per unit rescaled time for balanced flow.

    tick * sqrt(pi lam / D(f)). Warns when called with unbalanced rates,
    where the constant is only indicative.
    """
    if not params.balanced:
        warnings.warn("vol_balanced called with lam != mu + theta", stacklevel=2)
    d = depth(f)
    if d <= 0.0:
        raise ValueError("depth must be positive")
    return params.tick * math.sqrt(math.pi * params.lam / d)


def vol_balanced_window(params: ModelParams, f: QueueDist, n: int) -> float:
    """Windowed standard-deviation form tick * sqrt(n pi lam / D(f)).

    n is the rescaling index of the window (roughly: a window of W seconds
    corresponds to the n solving n log(n pi lam / D) = W).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.sqrt(n) * vol_balanced(params, f)


def expected_duration(x: int, y: int, params: ModelParams) -> float:
    """Mean time until the next price move from queues (x, y).

    The integral of P[tau > t], taken by Parseval's identity as one weighted
    sum over the transform kernel's nodes,
    (1/pi) int Re[S_x^(iw) conj(S_y^(iw))] dw, with no time truncation; the
    integrand is 1/w^2 beyond W, which adds 1/(pi W). Finite only for lam < mu + theta; bounded above by
    min(x, y) / (mu + theta - lam), the mean depletion time of the smaller
    queue alone.
    """
    if x < 1 or y < 1:
        raise ValueError("queue sizes must be >= 1")
    _require_negative_drift(params)
    lo, hi = (x, y) if x <= y else (y, x)  # bitwise symmetric in (x, y)
    w, weights, r, tail = _transform_nodes(params.lam, params.mu_theta)
    vals = (_survival_transform(r, w, lo) * _survival_transform(r, w, hi).conj()).real
    return float((weights * vals).sum()) + tail


def expected_duration_f(f: QueueDist, params: ModelParams) -> float:
    """f-averaged mean duration m(f) = sum f(i, j) E[tau | (i, j)]."""
    _require_negative_drift(params)
    return math.fsum(p * expected_duration(i, j, params) for i, j, p in f.items())


def vol_unbalanced(params: ModelParams, f: QueueDist) -> float:
    """Diffusion-limit volatility per unit rescaled time for lam < mu + theta.

    tick sqrt(p_cont / ((1 - p_cont) m(f))), with m(f) the mean inter-move
    duration under f replenishment. By renewal-reward, moves come every
    m(f) on average, and the partial sums of the two-state sign chain with
    stay probability p_cont grow with variance p_cont / (1 - p_cont) per
    move; a swap-symmetric f has p_cont = 1/2, which gives tick / sqrt(m(f)).
    """
    m = expected_duration_f(f, params)
    pc = p_cont(f, params)
    return params.tick * math.sqrt(pc / ((1.0 - pc) * m))
