"""Ingest tick-event logs and estimate order-flow parameters.

Log format: CSV with header
``timestamp,side,kind,bid_queue_after,ask_queue_after,bid_price_after``
where timestamp is in seconds from session start, side is bid/ask, kind is
limit/market/cancel and queue sizes are in unit batches. Gzip-compressed
files (suffix .gz) are accepted. Queue sizes recorded in shares can be
rescaled to batches at ingestion with batch_size. The parser returns the
simulator's columnar model.EventLog, so a parsed and a simulated log are the
same object to the estimators.

Estimators are count-based numpy reductions over the columns: per-side event
counts over the covered span for the intensities, and the histogram of
post-change queue snapshots for the replenishment law. Under the mirrored
down-move law, down-move snapshots are pooled into the up-move histogram
with swapped coordinates.
"""

from __future__ import annotations

import gzip
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analytics import depth
from .model import KIND_NAMES, SIDE_NAMES, EventLog, QueueDist, _EventBuffer

__all__ = [
    "EstimationError",
    "ParseReport",
    "EstimationResult",
    "parse_event_log",
    "parse_event_log_with_report",
    "estimate_intensities",
    "estimate_replenishment",
    "realized_volatility",
    "predicted_vs_realized",
]

class EstimationError(RuntimeError):
    """Raised for unusable logs (unreadable, empty, or too many bad rows)."""


@dataclass
class ParseReport:
    """Malformed-row accounting for one parsed file."""

    total_rows: int = 0
    malformed: list = field(default_factory=list)  # (line_number, reason)

    @property
    def malformed_fraction(self) -> float:
        return len(self.malformed) / self.total_rows if self.total_rows else 0.0


@dataclass
class EstimationResult:
    """Count-based intensity estimates over one log window."""

    lambda_hat: float
    mu_theta_hat: float
    window: tuple[float, float]
    counts: dict
    per_side: dict
    balance_diagnostic: float
    f_hat: Optional[QueueDist] = None

    def to_json(self) -> str:
        d = {
            "lambda_hat": self.lambda_hat,
            "mu_theta_hat": self.mu_theta_hat,
            "window": list(self.window),
            "counts": self.counts,
            "per_side": self.per_side,
            "balance_diagnostic": self.balance_diagnostic,
        }
        if self.f_hat is not None:
            d["f_hat"] = [[i, j, p] for i, j, p in self.f_hat.items()]
        return json.dumps(d, sort_keys=True)


def parse_event_log(path: str, batch_size: float = 1.0) -> EventLog:
    """Parse a tick-event CSV into the simulator's columnar EventLog.

    Malformed rows below 1% of the file are skipped with a warning carrying
    their line numbers; above 1% the file is rejected. batch_size rescales
    recorded queue sizes (shares per batch) to unit batches.
    """
    log, report = parse_event_log_with_report(path, batch_size)
    if report.malformed:
        shown = ", ".join(f"line {ln}: {why}" for ln, why in report.malformed[:5])
        warnings.warn(
            f"{len(report.malformed)} malformed rows skipped ({shown}...)", stacklevel=2
        )
    return log


def parse_event_log_with_report(
    path: str, batch_size: float = 1.0
) -> tuple[EventLog, ParseReport]:
    """parse_event_log returning the malformed-row report alongside the log."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        fh = opener(path, "rt", encoding="utf-8")
    except OSError as exc:
        raise EstimationError(f"cannot read event log {path}: {exc}") from exc

    side_code = {name: code for code, name in enumerate(SIDE_NAMES)}
    kind_code = {name: code for code, name in enumerate(KIND_NAMES)}
    report = ParseReport()
    rows = _EventBuffer(True)
    add_row = rows.append
    isfinite = math.isfinite
    with fh:
        header = fh.readline().strip()
        expected = "timestamp,side,kind,bid_queue_after,ask_queue_after,bid_price_after"
        if header and header.replace(" ", "") != expected:
            raise EstimationError(f"unexpected header {header!r}")
        last_t = -math.inf
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            report.total_rows += 1
            parts = line.split(",")
            if len(parts) != 6:
                report.malformed.append((line_no, f"{len(parts)} fields"))
                continue
            try:
                t = float(parts[0])
                side = parts[1].strip().lower()
                kind = parts[2].strip().lower()
                qb = int(round(int(parts[3]) / batch_size))
                qa = int(round(int(parts[4]) / batch_size))
                px = float(parts[5])
            except ValueError as exc:
                report.malformed.append((line_no, str(exc)))
                continue
            if side not in side_code or kind not in kind_code:
                report.malformed.append((line_no, f"bad side/kind {side}/{kind}"))
                continue
            if qb < 0 or qa < 0:
                report.malformed.append((line_no, "negative queue"))
                continue
            if not (isfinite(t) and isfinite(px)):
                report.malformed.append((line_no, "non-finite timestamp or price"))
                continue
            if t < last_t:
                report.malformed.append((line_no, "timestamp decreased"))
                continue
            try:
                add_row(t, side_code[side], kind_code[kind], qb, qa, px)
            except OverflowError:  # the queue columns are int64
                report.malformed.append((line_no, "queue size out of range"))
                continue
            last_t = t

    if report.total_rows and report.malformed_fraction > 0.01:
        raise EstimationError(
            f"{len(report.malformed)} of {report.total_rows} rows malformed (> 1%); "
            f"first: {report.malformed[:5]}"
        )
    return rows.finish(), report


def estimate_intensities(log: EventLog, span: Optional[float] = None) -> EstimationResult:
    """Per-side count estimators of the limit and removal intensities.

    lambda_hat averages the per-side limit-order rates; mu_theta_hat does
    the same for market orders plus cancellations. The span defaults to the
    last timestamp (timestamps are measured from session start). The balance
    diagnostic |mu_theta_hat - lambda_hat| / lambda_hat is small for liquid
    order flow.
    """
    if not len(log):
        raise EstimationError("empty event log")
    T = float(log.t[-1]) if span is None else float(span)
    if not T > 0.0:
        raise EstimationError(f"nonpositive time span {T}")
    n_kinds = len(KIND_NAMES)
    flat = np.bincount(log.side * n_kinds + log.kind, minlength=len(SIDE_NAMES) * n_kinds)
    counts = dict(zip(((s, k) for s in SIDE_NAMES for k in KIND_NAMES), flat.tolist()))
    lam_side = {s: counts[(s, "limit")] / T for s in SIDE_NAMES}
    mt_side = {s: (counts[(s, "market")] + counts[(s, "cancel")]) / T for s in SIDE_NAMES}
    lam = 0.5 * (lam_side["bid"] + lam_side["ask"])
    mt = 0.5 * (mt_side["bid"] + mt_side["ask"])
    if mt == 0.0:
        warnings.warn("log contains no market orders or cancellations", stacklevel=2)
    return EstimationResult(
        lambda_hat=lam,
        mu_theta_hat=mt,
        window=(0.0, T),
        counts={f"{s}_{k}": c for (s, k), c in counts.items()},
        per_side={
            "lambda": lam_side,
            "mu_theta": mt_side,
        },
        balance_diagnostic=abs(mt - lam) / lam if lam > 0 else math.inf,
    )


def _price_changes(log: EventLog, tick: Optional[float]):
    """Rows where the bid price moved, their moves in ticks, and the tick.

    The tick, when not given, is the smallest nonzero move rounded to 12
    decimals.
    """
    d = np.diff(log.bid_price_after)
    rows = np.flatnonzero(d) + 1
    d = d[rows - 1]
    if tick is None:
        diffs = {round(float(x), 12) for x in np.unique(np.abs(d))} - {0.0}
        if not diffs:
            raise EstimationError("no price changes found in log")
        tick = min(diffs)
    return rows, d / tick, tick


def estimate_replenishment(
    log: EventLog,
    tick: Optional[float] = None,
    pool_symmetric: bool = True,
) -> QueueDist:
    """Histogram of (bid, ask) queue sizes right after a price increase.

    Price changes are detected from consecutive bid_price_after values; the
    tick is inferred from the smallest nonzero move when not given.
    Multi-tick jumps (book gaps) are counted, reported and excluded. With
    pool_symmetric, snapshots after price decreases enter with swapped
    coordinates, which is exact when the down-move law mirrors the up-move
    law.
    """
    rows, moves, tick = _price_changes(log, tick)
    if not rows.size:
        raise EstimationError("no price changes found in log")
    jump = np.abs(np.abs(moves) - 1.0) > 0.5
    qb = log.bid_queue_after[rows]
    qa = log.ask_queue_after[rows]
    empty = ~jump & ((qb < 1) | (qa < 1))
    usable = ~jump & ~empty
    up = usable & (moves > 0)
    keys = [np.column_stack((qb[up], qa[up]))]
    if pool_symmetric:
        down = usable & ~up
        keys.append(np.column_stack((qa[down], qb[down])))
    n_jump, n_zero = int(np.count_nonzero(jump)), int(np.count_nonzero(empty))
    if n_jump:
        warnings.warn(
            f"excluded {n_jump} multi-tick jumps from the replenishment histogram",
            stacklevel=2,
        )
    if n_zero:
        warnings.warn(f"excluded {n_zero} post-change rows with empty queues", stacklevel=2)
    atoms, counts = np.unique(np.concatenate(keys), axis=0, return_counts=True)
    total = int(counts.sum())
    if total == 0:
        raise EstimationError("no usable one-tick price changes in log")
    return QueueDist((i, j, c / total) for (i, j), c in zip(atoms.tolist(), counts.tolist()))


def realized_volatility(times, prices, window: float) -> float:
    """Sample standard deviation of non-overlapping window price increments.

    times/prices describe a right-continuous step function (price level as
    of each timestamp, in currency units); window is in seconds. Requires
    the series to span at least two full windows.
    """
    t = np.asarray(times, dtype=float)
    p = np.asarray(prices, dtype=float)
    if t.size == 0 or t.size != p.size:
        raise EstimationError("times and prices must be equal-length and nonempty")
    if window <= 0.0:
        raise ValueError("window must be positive (seconds)")
    n_win = int(t[-1] // window)
    if n_win < 2:
        raise EstimationError(
            f"series spans {t[-1]:.3f} s, need at least two windows of {window} s"
        )
    edges = window * np.arange(0, n_win + 1)
    idx = np.searchsorted(t, edges, side="right") - 1
    levels = np.where(idx >= 0, p[np.maximum(idx, 0)], p[0])
    inc = np.diff(levels)
    return float(np.std(inc, ddof=1))


def _window_index(window: float, span: float, lam: float, depth_f: float) -> float:
    """Window rescaling index n such that pi lam n / D is the expected number
    of price moves per window of a log covering [0, span].

    The move count over the whole span solves N log N = span pi lam / D (the
    heavy-tailed renewal norming of balanced flow); windows then hold the
    span-average share N window / span. For span = window this reduces to
    n log(n pi lam / D) = window. The span dependence matters: move arrivals
    thin out logarithmically along a balanced log, so windows late in a long
    record are quieter than fresh ones.
    """
    ratio = math.pi * lam / depth_f
    big_n = max(span * ratio, 2.0)
    for _ in range(60):
        big_n = span * ratio / math.log(max(big_n, 2.0))
    return big_n * (window / span) / ratio


def predicted_vs_realized(
    log: EventLog | dict[str, EventLog],
    window: float,
    tick: Optional[float] = None,
) -> dict:
    """Model-predicted vs realized window volatility from one or more logs.

    Per asset, emits sqrt(lambda_hat / D(f_hat)), the realized window
    standard deviation, the predicted one tick * sqrt(pi n lambda_hat /
    D(f_hat)) with n the self-consistent window index, and their ratios.
    The realized-to-sqrt ratio should sit near the constant
    tick * sqrt(pi n).
    """
    assets = log if isinstance(log, dict) else {"asset": log}
    rows = []
    for name, asset_log in assets.items():
        if not len(asset_log):
            raise EstimationError(f"empty log for {name!r}")
        res = estimate_intensities(asset_log)
        f_hat = estimate_replenishment(asset_log, tick=tick)
        _, _, tck = _price_changes(asset_log, tick)
        d = depth(f_hat)
        realized = realized_volatility(asset_log.t, asset_log.bid_price_after, window)
        n_idx = _window_index(window, res.window[1], res.lambda_hat, d)
        predicted = tck * math.sqrt(math.pi * n_idx * res.lambda_hat / d)
        ratio_base = math.sqrt(res.lambda_hat / d)
        rows.append(
            {
                "asset": name,
                "lambda_hat": res.lambda_hat,
                "mu_theta_hat": res.mu_theta_hat,
                "depth_hat": d,
                "tick": tck,
                "window": window,
                "n_index": n_idx,
                "sqrt_lambda_over_depth": ratio_base,
                "predicted_sigma": predicted,
                "realized_sigma": realized,
                "realized_over_sqrt": realized / ratio_base,
                "expected_ratio_constant": tck * math.sqrt(math.pi * n_idx),
                "realized_over_predicted": realized / predicted,
            }
        )
    return {"window": window, "assets": rows}
