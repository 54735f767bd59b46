"""Output checks for the lobq benchmark.

Each check compares a program output with an independent computation, or
with a property the output must have, and returns the problems it found as
strings (an empty list when the output passes). No check reads a stored
copy of an earlier output.

Only numpy and scipy are imported here, so the self-test can feed the
checks hand-made values without running the program.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import os
from typing import Callable

import numpy as np
from scipy import integrate

SIDE_CODES = {"bid": 0, "ask": 1}
KIND_CODES = {"limit": 0, "market": 1, "cancel": 2}
EVENT_COLUMNS = ("t", "side", "kind", "bid_queue_after", "ask_queue_after", "bid_price_after")

# Prefix of the one problem that a known program fault produces: a
# volatility that assumes p_cont = 1/2 (see check_vol_identity).
VOL_HALF_P_CONT = "vol assumes p_cont = 1/2"


CHUNK = 1 << 16


class SavedColumns:
    """A simulated EventLog's columns saved as raw files, read back a chunk at a time.

    Lets the log leave memory before its CSV is parsed, and lets the check
    compare the columns without loading them whole.
    """

    def __init__(self, log, path_of: Callable[[str], str]):
        self.path_of = path_of
        self.length = len(log)
        self.dtypes = {}
        for name in EVENT_COLUMNS:
            col = np.ascontiguousarray(getattr(log, name))
            self.dtypes[name] = col.dtype
            col.tofile(path_of(name))

    def __len__(self) -> int:
        return self.length

    def read(self, name: str, start: int, stop: int) -> np.ndarray:
        """Rows start:stop of one column."""
        dtype = self.dtypes[name]
        count = max(0, min(stop, self.length) - start)
        return np.fromfile(self.path_of(name), dtype, count=count, offset=start * dtype.itemsize)

    def remove(self) -> None:
        for name in EVENT_COLUMNS:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.path_of(name))


def event_column(parsed, name: str, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of one column of a parsed event log, side and kind as integer codes.

    Accepts the row records that parse_event_log returns today (attributes
    timestamp, side, kind, ...) and also a columnar log with the attributes
    of model.EventLog, so a parser that returns columns passes the same
    check.
    """
    codes = {"side": SIDE_CODES, "kind": KIND_CODES}.get(name)
    if hasattr(parsed, "bid_price_after"):
        col = np.asarray(getattr(parsed, name)[start:stop])
        if codes is not None and col.dtype.kind in "OUS":
            col = np.fromiter((codes.get(str(v), -1) for v in col), np.int64, len(col))
        return col
    rows = parsed[start:stop]
    attr = "timestamp" if name == "t" else name
    if codes is not None:
        return np.fromiter((codes.get(getattr(r, attr), -1) for r in rows), np.int64, len(rows))
    dtype = np.int64 if name.endswith("queue_after") else np.float64
    return np.fromiter((getattr(r, attr) for r in rows), dtype, len(rows))


def check_event_columns(simulated: SavedColumns, parsed, warned: list) -> list[str]:
    """The parsed log equals the simulated EventLog, column by column.

    The columns are compared CHUNK rows at a time, so the check holds two
    chunks beside the parsed log and does not set the run's peak memory.
    warned holds the messages of warnings raised while parsing; the parser
    warns about every malformed row it skips, so there must be none.
    """
    problems = [f"parser warned: {w}" for w in warned]
    n_sim, n_par = len(simulated), len(parsed)
    if n_sim != n_par:
        return problems + [f"parsed {n_par} rows, simulated {n_sim}"]
    for name in EVENT_COLUMNS:
        bad = 0
        for start in range(0, n_sim, CHUNK):
            got = event_column(parsed, name, start, start + CHUNK)
            want = simulated.read(name, start, start + CHUNK)
            bad += int(np.count_nonzero(want.astype(got.dtype, copy=False) != got))
        if bad:
            problems.append(f"column {name}: {bad} of {n_sim} rows differ")
    return problems


def check_kind_counts(counts: dict, n_rows: int) -> list[str]:
    """The six (side, kind) counts cover every row exactly once."""
    if len(counts) != len(SIDE_CODES) * len(KIND_CODES):
        return [f"expected 6 side/kind counts, got {sorted(counts)}"]
    total = sum(int(v) for v in counts.values())
    if total != n_rows:
        return [f"side/kind counts sum to {total}, log has {n_rows} rows"]
    return []


def rate_se(rate: float, horizon: float) -> float:
    """Standard error sqrt(2 r T) / (2 T) of a two-side count estimate of a per-side rate."""
    return math.sqrt(2.0 * rate * horizon) / (2.0 * horizon)


def check_rate(name: str, estimate: float, rate: float, horizon: float, n_se: float = 4.0) -> list[str]:
    """A count estimate of a per-side rate lies within n_se standard errors of the true rate."""
    band = n_se * rate_se(rate, horizon)
    if not abs(estimate - rate) <= band:
        return [f"{name} = {estimate!r}, true {rate!r}, outside {n_se} SE = {band:.4g}"]
    return []


def total_variation(f: dict, g: dict) -> float:
    """Total variation distance of two laws given as {(bid, ask): probability}."""
    keys = set(f) | set(g)
    return 0.5 * math.fsum(abs(f.get(k, 0.0) - g.get(k, 0.0)) for k in keys)


def check_replenishment(f_hat: dict, f_true: dict, tol: float = 0.02) -> list[str]:
    """The estimated replenishment law lies within total variation tol of the true one."""
    tv = total_variation(f_hat, f_true)
    if not tv <= tol:
        return [f"replenishment total variation {tv:.4f} > {tol}"]
    return []


def check_window_report(row: dict, lam_hat: float, mt_hat: float, f_hat: dict, tick: float) -> list[str]:
    """predicted_vs_realized agrees with the direct estimates and with its own ratios."""
    problems = []
    depth = math.fsum(i * j * p for (i, j), p in f_hat.items())
    expect = {
        "lambda_hat": lam_hat,
        "mu_theta_hat": mt_hat,
        "depth_hat": depth,
        "tick": tick,
        "realized_over_predicted": row["realized_sigma"] / row["predicted_sigma"],
        "sqrt_lambda_over_depth": math.sqrt(lam_hat / depth),
    }
    for key, want in expect.items():
        if not math.isclose(row[key], want, rel_tol=1e-9, abs_tol=0.0):
            problems.append(f"predicted_vs_realized {key} = {row[key]!r}, expected {want!r}")
    for key in ("realized_sigma", "predicted_sigma", "n_index"):
        if not (math.isfinite(row[key]) and row[key] > 0.0):
            problems.append(f"predicted_vs_realized {key} = {row[key]!r} is not positive")
    return problems


def check_survival(ts, surv, oracle, tol: float = 1e-6) -> list[str]:
    """A duration survival curve: near the exact oracle, S(0) = 1 and nonincreasing."""
    ts = np.asarray(ts, dtype=float)
    surv = np.asarray(surv, dtype=float)
    problems = []
    dev = float(np.max(np.abs(surv - np.asarray(oracle, dtype=float))))
    if not dev <= tol:
        problems.append(f"survival off the uniformized oracle by {dev:.3e} > {tol}")
    if ts[0] == 0.0 and not abs(surv[0] - 1.0) <= 1e-9:
        problems.append(f"S(0) = {surv[0]!r}, not 1")
    rise = float(np.max(np.diff(surv), initial=0.0))
    if rise > 1e-12:
        problems.append(f"survival increases by {rise:.3e}")
    return problems


def check_tail_law(law, a: int, b: int, lam: float, mt: float) -> list[str]:
    """tail_law returns the constants derived from the Bessel asymptote."""
    if math.isclose(lam, mt, rel_tol=1e-12, abs_tol=0.0):
        want = (1, a * b / (math.pi * lam), 0.0)
    else:
        c = 2.0 * math.sqrt(lam * mt)
        rho = (math.sqrt(lam) - math.sqrt(mt)) ** 2
        want = (3, a * b * (mt / lam) ** (0.5 * (a + b)) / (2.0 * math.pi * c * rho**2), 2.0 * rho)
    got = (law.exponent, law.prefactor, law.rate)
    if got[0] != want[0] or not all(
        math.isclose(g, w, rel_tol=1e-9, abs_tol=0.0) for g, w in zip(got[1:], want[1:])
    ):
        return [f"tail law (exponent, prefactor, rate) = {got}, expected {want}"]
    return []


def check_prob_up_grid(phi) -> list[str]:
    """phi[n-1, p-1] = prob_up(n, p): phi(n,p) + phi(p,n) = 1, up in n, down in p."""
    phi = np.asarray(phi, dtype=float)
    problems = []
    dev = float(np.max(np.abs(phi + phi.T - 1.0)))
    if dev > 1e-8:
        problems.append(f"prob_up(n,p) + prob_up(p,n) off 1 by {dev:.3e}")
    if float(np.min(np.diff(phi, axis=0), initial=0.0)) < -1e-12:
        problems.append("prob_up decreases in the bid queue")
    if float(np.max(np.diff(phi, axis=1), initial=0.0)) > 1e-12:
        problems.append("prob_up increases in the ask queue")
    return problems


def check_p_cont_symmetric(p_cont: float, tol: float = 1e-8) -> list[str]:
    """A swap-symmetric law makes up and down equally likely after a move."""
    if not abs(p_cont - 0.5) <= tol:
        return [f"p_cont = {p_cont!r} for a swap-symmetric f, expected 1/2"]
    return []


def check_sign_chain(p_cont: float, autocov, p1: float, p_n) -> list[str]:
    """Lag covariances and p_n follow the two-state chain of move signs."""
    problems = []
    if not 0.0 <= p_cont <= 1.0:
        problems.append(f"p_cont = {p_cont!r} outside [0, 1]")
    g = 2.0 * p_cont - 1.0
    for k, cov in enumerate(autocov, start=1):
        if not math.isclose(cov, g ** (k - 1), rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"autocov lag {k} = {cov!r}, expected {g ** (k - 1)!r}")
    for k, pk in enumerate(p_n, start=1):
        want = 0.5 * (1.0 + g ** (k - 1) * (2.0 * p1 - 1.0))
        if not math.isclose(pk, want, rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"p_n k={k} = {pk!r}, expected {want!r}")
    return problems


def mean_duration_plancherel(x: int, y: int, lam: float, mt: float) -> tuple[float, float]:
    """E[min(sigma_x, sigma_y)] without the survival quadrature, with its error bound.

    sigma_x, the depletion time of a queue of size x, has Laplace transform
    r(s)^x with r the smaller root of lam r^2 - (lam + mt + s) r + mt. The
    Fourier transform of its survival is (1 - r(iw)^x) / (iw), so by
    Plancherel E[tau] = (1/pi) int_0^inf Re[S_x^(iw) conj(S_y^(iw))] dw.
    The integral runs over geometric panels up to W, beyond which the
    integrand is 1/w^2 up to 3|r|/w^2 <= 6 mt/w^3, so the tail is 1/W with
    an error below 3 mt/W^2. Returns the value and the sum of scipy's
    error estimates and that tail bound.
    """
    if not lam < mt:
        raise ValueError("a finite mean duration needs lam < mu + theta")
    four = 4.0 * lam * mt

    def shat(n: int, w: float) -> complex:
        s = 1j * w
        a = lam + mt + s
        r = (a - cmath.sqrt(a * a - four)) / (2.0 * lam)
        return (1.0 - r**n) / s

    ex, ey = x / (mt - lam), y / (mt - lam)

    def g(w: float) -> float:
        if w == 0.0:
            return ex * ey
        return (shat(x, w) * shat(y, w).conjugate()).real

    rho = (math.sqrt(mt) - math.sqrt(lam)) ** 2
    big_w = 1e6 * (lam + mt)
    edges = np.concatenate(([0.0], np.geomspace(1e-2 * rho, big_w, 60)))
    total = 1.0 / big_w
    err = 3.0 * mt / big_w**2
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, est = integrate.quad(g, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)
        total += val
        err += est
    return total / math.pi, err / math.pi


def check_mean_duration(m: float, x: int, y: int, lam: float, mt: float, rel_tol: float = 1e-5) -> list[str]:
    """A mean duration: below min(x,y)/(mt-lam) and on the Plancherel value.

    The band is the Plancherel route's own error bound plus rel_tol of the
    value, the accuracy asked of the program's quadrature.
    """
    problems = []
    bound = min(x, y) / (mt - lam)
    if not m < bound:
        problems.append(f"E[tau]({x},{y}) = {m!r} is not below min(x,y)/(mu+theta-lam) = {bound!r}")
    ref, err = mean_duration_plancherel(x, y, lam, mt)
    band = err + rel_tol * ref
    if not abs(m - ref) <= band:
        problems.append(f"E[tau]({x},{y}) = {m!r}, Plancherel route {ref!r} +- {band:.3e}")
    return problems


def check_vol_identity(vol: float, m_f: float, p_cont: float, tick: float, rel_tol: float = 1e-6) -> list[str]:
    """Unbalanced flow: vol^2 m(f) = tick^2 p_cont / (1 - p_cont).

    The move signs form a two-state chain with continuation probability
    p_cont, whose partial sums grow with variance p_cont / (1 - p_cont) per
    move; moves come every m(f) seconds on average. A vol with
    vol^2 m(f) = tick^2 within 1e-9, the value for p_cont = 1/2, is
    reported under VOL_HALF_P_CONT; any other wrong value is not.
    """
    want = tick * tick * p_cont / (1.0 - p_cont)
    got = vol * vol * m_f
    if abs(got / want - 1.0) <= rel_tol:
        return []
    if abs(got / (tick * tick) - 1.0) <= 1e-9:
        return [f"{VOL_HALF_P_CONT}: vol^2 m(f) = tick^2, not tick^2 p_cont/(1-p_cont) = {want!r}"]
    return [f"vol identity: vol^2 m(f) = {got!r}, tick^2 p_cont/(1-p_cont) = {want!r}"]


def check_vol_balanced(vol: float, lam: float, tick: float, f: dict) -> list[str]:
    """Balanced flow: vol = tick sqrt(pi lam / D(f)), with D(f) = sum i j f(i, j)."""
    depth = math.fsum(i * j * p for (i, j), p in f.items())
    want = tick * math.sqrt(math.pi * lam / depth)
    if not math.isclose(vol, want, rel_tol=1e-12, abs_tol=0.0):
        return [f"balanced vol = {vol!r}, tick sqrt(pi lam / D) = {want!r}"]
    return []


def check_xval_report(report: dict, exit_code: int, number: int) -> list[str]:
    """A report of `lobq xval --criteria number`: exit code 0, that criterion alone, passed."""
    problems = []
    if exit_code != 0:
        problems.append(f"lobq xval exited {exit_code}")
    held = [c["number"] for c in report.get("criteria", [])]
    if held != [number]:
        return problems + [f"report holds criteria {held}, ran {number}"]
    crit = report["criteria"][0]
    if not crit["passed"]:
        failing = [r["quantity"] for r in crit["reports"] if not r["passed"]]
        problems.append(f"criterion {number} failed: {failing}")
    return problems
