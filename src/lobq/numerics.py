"""Special functions and adaptive quadrature used by the closed-form analytics.

Everything here is a pure function of its arguments; results are deterministic
for fixed inputs (fixed subdivision order), so outputs are reproducible across
runs and safe to call from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy.special import ive

__all__ = [
    "QuadSpec",
    "QuadratureError",
    "bessel_i_scaled",
    "integrate_finite",
    "integrate_panels",
    "integrate_semi_infinite",
]


class QuadratureError(RuntimeError):
    """Raised when an integral fails to converge within its budget."""


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature tolerances and subdivision budget.

    abs_tol and rel_tol are combined as max(abs_tol, rel_tol * |result|);
    max_subdivisions caps the total number of interval bisections.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 2**20

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUAD = QuadSpec()


def bessel_i_scaled(n: int, z: float) -> float:
    """Exponentially scaled modified Bessel function e^(-z) I_n(z).

    The scaled form stays in [0, 1] for all z >= 0, which is what the
    survival-function integrands need (the plain I_n overflows long before
    the exponential kill factor is applied).

    Parameters
    ----------
    n : int
        Order, n >= 0.
    z : float
        Argument, z >= 0.
    """
    if n < 0 or int(n) != n:
        raise ValueError(f"order must be a nonnegative integer, got {n!r}")
    if z < 0.0:
        raise ValueError(f"argument must be nonnegative, got {z!r}")
    if z == 0.0:
        return 1.0 if n == 0 else 0.0
    return float(ive(int(n), z))


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def integrate_finite(
    fn: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadSpec = DEFAULT_QUAD,
) -> float:
    """Adaptive Simpson integration of fn over [a, b].

    Deterministic bisection order (a fixed LIFO stack), so identical inputs
    give bit-identical results. Endpoint singularities must be removable and
    already resolved by the caller; fn is evaluated at both endpoints.
    """
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    if a == b:
        return 0.0

    # Seed with 8 equal panels: a single top-level Simpson estimate can alias
    # on oscillatory integrands and accept a wrong value before refining.
    n0 = 8
    xs = [a + (b - a) * k / (2 * n0) for k in range(2 * n0 + 1)]
    fs = [fn(x) for x in xs]
    panels = [
        (xs[2 * k], xs[2 * k + 1], xs[2 * k + 2], fs[2 * k], fs[2 * k + 1], fs[2 * k + 2])
        for k in range(n0)
    ]
    estimates = [_simpson(f0, fm_, f1, x1 - x0) for x0, _, x1, f0, fm_, f1 in panels]
    whole = math.fsum(estimates)
    tol = max(spec.abs_tol, spec.rel_tol * abs(whole)) / n0

    total = 0.0
    splits = 0
    # stack entries: (a, m, b, fa, fm, fb, simpson_estimate, local_tol)
    stack = [
        (x0, xm, x1, f0, fm_, f1, s, tol)
        for (x0, xm, x1, f0, fm_, f1), s in zip(panels, estimates)
    ]
    stack.reverse()
    while stack:
        x0, xm, x1, f0, fmid, f1, s_whole, loc_tol = stack.pop()
        lm = 0.5 * (x0 + xm)
        rm = 0.5 * (xm + x1)
        flm, frm = fn(lm), fn(rm)
        s_left = _simpson(f0, flm, fmid, xm - x0)
        s_right = _simpson(fmid, frm, f1, x1 - xm)
        err = (s_left + s_right - s_whole) / 15.0
        if abs(err) <= loc_tol or (xm - x0) <= 1e-15 * max(abs(x0), 1.0):
            total += s_left + s_right + err
            continue
        splits += 1
        if splits > spec.max_subdivisions:
            raise QuadratureError(
                f"integrate_finite: no convergence within {spec.max_subdivisions} subdivisions"
            )
        half = 0.5 * loc_tol
        stack.append((xm, rm, x1, fmid, frm, f1, s_right, half))
        stack.append((x0, lm, xm, f0, flm, fmid, s_left, half))
    return total


def integrate_panels(fn: Callable[[float], float], breaks, spec: QuadSpec = DEFAULT_QUAD) -> float:
    """integrate_finite over consecutive panels [breaks[k], breaks[k+1]], summed
    with fsum; abs_tol is shared equally across the panels."""
    n_seg = len(breaks) - 1
    seg_spec = QuadSpec(
        abs_tol=spec.abs_tol / max(n_seg, 1),
        rel_tol=spec.rel_tol,
        max_subdivisions=spec.max_subdivisions,
    )
    return math.fsum(
        integrate_finite(fn, breaks[k], breaks[k + 1], seg_spec) for k in range(n_seg)
    )


def integrate_semi_infinite(
    fn: Callable[[float], float],
    a: float,
    decay_rate: float,
    spec: QuadSpec = DEFAULT_QUAD,
) -> float:
    """Integrate fn over [a, inf) given an eventual bound |fn(u)| <= C e^(-decay_rate u).

    The truncation point T is chosen so the discarded tail, bounded by
    C e^(-decay_rate T) / decay_rate, is below abs_tol / 2; C is estimated by
    sampling fn on a geometric grid and padding with a safety factor. The
    finite part [a, T] is pre-split into geometric panels before adaptive
    refinement so that a long flat tail cannot fool the Simpson error
    estimate.
    """
    if decay_rate <= 0.0:
        raise ValueError(f"decay_rate must be positive, got {decay_rate}")

    scale = 1.0 / decay_rate
    # envelope constant from samples; padded x8 because samples can straddle dips
    c_env = 0.0
    for k in range(41):
        u = a + scale * (0.25 * k + 0.05)
        c_env = max(c_env, abs(fn(u)) * math.exp(decay_rate * (u - a)))
    c_env *= 8.0
    if c_env == 0.0:
        return 0.0

    tail_budget = 0.5 * spec.abs_tol
    span = scale * max(math.log(c_env / (decay_rate * tail_budget)), 4.0)
    span = min(span, 1e7 * scale)
    T = a + span

    breaks = [a]
    step = 0.25 * scale
    while breaks[-1] + step < T:
        breaks.append(breaks[-1] + step)
        step *= 2.0
    breaks.append(T)
    return integrate_panels(fn, breaks, spec)
