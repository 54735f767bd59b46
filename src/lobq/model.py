"""Event-driven simulation of the two-queue limit order book.

State is (bid price, bid queue, ask queue). Per side, limit orders arrive at
rate lam and market orders / cancellations remove one unit at combined rate
mu + theta. A removal that empties a queue moves the price one tick (ask
emptied: up, bid emptied: down) and instantly redraws both queue sizes from
the replenishment distribution f (after an up move) or its mirror f~ (after
a down move).

Single paths are simulated sequentially; the sample_* helpers run many
independent paths in vectorized batches for Monte Carlo work. Every entry
point derives its own counter-based RNG stream from (seed, stream tag), so
runs are reproducible and paths are independent.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "ModelParams",
    "QueueDist",
    "BookState",
    "PricePath",
    "SimConfig",
    "EventLog",
    "InsufficientPathError",
    "step",
    "simulate",
    "rescaled_series",
    "sample_first_passage",
    "sample_price_at",
    "sample_move_signs",
]

SIDE_NAMES = ("bid", "ask")
KIND_NAMES = ("limit", "market", "cancel")

# stream tags keep the batch samplers' RNG streams disjoint from path streams
_TAG_PATH = 0
_TAG_PASSAGE = 1
_TAG_PRICE = 2
_TAG_MOVES = 3


class InsufficientPathError(ValueError):
    """A PricePath is too short for the requested rescaling horizon."""


@dataclass(frozen=True)
class ModelParams:
    """Order-flow intensities (per side, events per second) and tick size."""

    lam: float
    mu: float
    theta: float
    tick: float = 1.0

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError("lam must be positive")
        if self.mu < 0.0 or self.theta < 0.0:
            raise ValueError("mu and theta must be nonnegative")
        if not self.mu + self.theta > 0.0:
            raise ValueError("mu + theta must be positive")
        if not self.tick > 0.0:
            raise ValueError("tick must be positive")

    @property
    def mu_theta(self) -> float:
        """Combined removal rate mu + theta per side."""
        return self.mu + self.theta

    @property
    def event_rate(self) -> float:
        """Total event rate 2 (lam + mu + theta) over both sides."""
        return 2.0 * (self.lam + self.mu_theta)

    @property
    def p_up(self) -> float:
        """Probability that an event on a given side adds one unit."""
        return self.lam / (self.lam + self.mu_theta)

    @property
    def balanced(self) -> bool:
        return math.isclose(self.lam, self.mu_theta, rel_tol=1e-12, abs_tol=0.0)

    @classmethod
    def from_rates(cls, lam: float, mu_theta: float, tick: float = 1.0) -> "ModelParams":
        """Build params when only the combined removal rate is known."""
        return cls(lam=lam, mu=mu_theta, theta=0.0, tick=tick)


class QueueDist:
    """Finitely supported joint law of (bid, ask) queue sizes after an up move.

    The mirror law after a down move is swap(); sampling returns post-move
    queue pairs. Atoms must have positive integer sizes and probabilities
    summing to one within 1e-12.
    """

    def __init__(self, items: Iterable[tuple[int, int, float]]):
        rows = [(int(i), int(j), float(p)) for i, j, p in items]
        if not rows:
            raise ValueError("QueueDist needs at least one atom")
        if any(i < 1 or j < 1 for i, j, _ in rows):
            raise ValueError("queue sizes must be >= 1 (replenished queues are nonempty)")
        if any(p <= 0.0 for _, _, p in rows):
            raise ValueError("atom probabilities must be positive")
        total = math.fsum(p for _, _, p in rows)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, expected 1 within 1e-12")
        if len({(i, j) for i, j, _ in rows}) != len(rows):
            raise ValueError("duplicate atoms in support")
        rows.sort(key=lambda r: (r[0], r[1]))
        self.bid = np.array([r[0] for r in rows], dtype=np.int64)
        self.ask = np.array([r[1] for r in rows], dtype=np.int64)
        self.prob = np.array([r[2] for r in rows], dtype=np.float64)
        self._cum = np.cumsum(self.prob)
        self._cum[-1] = 1.0

    def items(self) -> list[tuple[int, int, float]]:
        return [(int(i), int(j), float(p)) for i, j, p in zip(self.bid, self.ask, self.prob)]

    def as_dict(self) -> dict[tuple[int, int], float]:
        return {(int(i), int(j)): float(p) for i, j, p in self.items()}

    def swap(self) -> "QueueDist":
        """Mirror law f~(x, y) = f(y, x), the state law after a down move."""
        return QueueDist((int(j), int(i), float(p)) for i, j, p in self.items())

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        d = self.as_dict()
        return all(abs(p - d.get((j, i), 0.0)) <= tol for (i, j), p in d.items())

    def upper_mass(self) -> float:
        """Mass on {ask >= bid}, the asymmetry diagnostic for move reversals."""
        return float(self.prob[self.ask >= self.bid].sum())

    def sample(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        idx = np.searchsorted(self._cum, rng.random(size), side="right")
        return self.bid[idx], self.ask[idx]

    def sample_one(self, rng: np.random.Generator) -> tuple[int, int]:
        k = int(np.searchsorted(self._cum, rng.random(), side="right"))
        return int(self.bid[k]), int(self.ask[k])

    @classmethod
    def point_mass(cls, bid: int, ask: int) -> "QueueDist":
        return cls([(bid, ask, 1.0)])

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("i,j,p\n")
            for i, j, p in self.items():
                fh.write(f"{i},{j},{p!r}\n")

    @classmethod
    def from_csv(cls, path: str) -> "QueueDist":
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().lower().replace(" ", "")
            if header not in ("i,j,p", "bid,ask,p", "bid,ask,prob"):
                raise ValueError(f"unexpected header {header!r}, want 'i,j,p'")
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                i, j, p = line.split(",")
                rows.append((int(i), int(j), float(p)))
        return cls(rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, QueueDist) and self.items() == other.items()

    def __repr__(self) -> str:
        return f"QueueDist({self.items()!r})"


@dataclass(frozen=True)
class BookState:
    """Best-quote snapshot: bid price and the two queue sizes.

    The ask price is implicitly bid_price + tick (one-tick spread). Between
    events both queues are nonempty; depletion is atomic with replenishment.
    """

    bid_price: float
    bid_queue: int
    ask_queue: int

    def __post_init__(self):
        if self.bid_queue < 1 or self.ask_queue < 1:
            raise ValueError("queues must be >= 1 between events")


@dataclass(frozen=True)
class SimConfig:
    """Simulation run configuration; exactly one horizon must be set."""

    seed: int
    horizon_time: Optional[float] = None
    horizon_events: Optional[int] = None
    initial_state: Optional[BookState] = None  # None: draw queues from f
    initial_price: float = 0.0
    path_index: int = 0

    def __post_init__(self):
        if (self.horizon_time is None) == (self.horizon_events is None):
            raise ValueError("set exactly one of horizon_time / horizon_events")
        if self.horizon_time is not None and not self.horizon_time > 0.0:
            raise ValueError("horizon_time must be positive")
        if self.horizon_events is not None and self.horizon_events < 1:
            raise ValueError("horizon_events must be >= 1")


@dataclass
class PricePath:
    """Price-change epochs and signed one-tick moves of a simulated path.

    change_times is strictly increasing and moves holds +1 / -1 per change;
    the price is defined on [0, t_end].
    """

    change_times: np.ndarray
    moves: np.ndarray
    initial_price: float
    tick: float
    t_end: float

    def __post_init__(self):
        self.change_times = np.asarray(self.change_times, dtype=np.float64)
        self.moves = np.asarray(self.moves, dtype=np.int64)
        if self.change_times.shape != self.moves.shape:
            raise ValueError("change_times and moves must have equal length")
        if self.change_times.size and np.any(np.diff(self.change_times) <= 0.0):
            raise ValueError("change_times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.moves.size)

    def prices(self, t) -> np.ndarray:
        """Price level at each time in t (step function, right-continuous)."""
        t = np.asarray(t, dtype=np.float64)
        if t.size and (t.min() < 0.0 or t.max() > self.t_end * (1.0 + 1e-12)):
            raise InsufficientPathError(
                f"path covers [0, {self.t_end}], asked for up to {t.max()}"
            )
        csum = np.concatenate(([0], np.cumsum(self.moves)))
        k = np.searchsorted(self.change_times, t, side="right")
        return self.initial_price + self.tick * csum[k]

    def count_changes(self, t: float) -> int:
        """N_t, the number of price changes in [0, t]."""
        return int(np.searchsorted(self.change_times, t, side="right"))

    def to_csv(self, path: str) -> None:
        csum = np.cumsum(self.moves)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("time,cumulative_price\n")
            fh.write(f"{0.0!r},{self.initial_price!r}\n")
            for t, c in zip(self.change_times, csum):
                fh.write(f"{float(t)!r},{self.initial_price + self.tick * int(c)!r}\n")

    def to_json(self) -> str:
        return json.dumps(
            {
                "initial_price": self.initial_price,
                "tick": self.tick,
                "t_end": self.t_end,
                "change_times": self.change_times.tolist(),
                "moves": self.moves.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "PricePath":
        d = json.loads(text)
        return cls(
            change_times=np.array(d["change_times"], dtype=np.float64),
            moves=np.array(d["moves"], dtype=np.int64),
            initial_price=float(d["initial_price"]),
            tick=float(d["tick"]),
            t_end=float(d["t_end"]),
        )


@dataclass
class EventLog:
    """Columnar record of every order-book event of a simulated path."""

    t: np.ndarray
    side: np.ndarray  # 0 bid, 1 ask
    kind: np.ndarray  # 0 limit, 1 market, 2 cancel
    bid_queue_after: np.ndarray
    ask_queue_after: np.ndarray
    bid_price_after: np.ndarray

    def __post_init__(self):
        lengths = {f.name: len(getattr(self, f.name)) for f in fields(self)}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"event-log columns differ in length: {lengths}")

    def __len__(self) -> int:
        return int(self.t.size)

    def to_csv(self, path: str) -> None:
        """Write the tick-event CSV consumed by the estimation tools.

        A path ending in .gz is gzip-compressed with a zero header time stamp,
        so identical logs give byte-identical files.
        """
        import gzip

        if not str(path).endswith(".gz"):
            with open(path, "w", encoding="utf-8") as fh:
                self.write(fh)
            return
        with gzip.GzipFile(path, "wb", mtime=0) as gz, io.TextIOWrapper(gz, encoding="utf-8") as fh:
            self.write(fh)

    def write(self, fh: io.TextIOBase) -> None:
        fh.write("timestamp,side,kind,bid_queue_after,ask_queue_after,bid_price_after\n")
        for k in range(len(self)):
            fh.write(
                f"{float(self.t[k])!r},{SIDE_NAMES[self.side[k]]},{KIND_NAMES[self.kind[k]]},"
                f"{int(self.bid_queue_after[k])},{int(self.ask_queue_after[k])},"
                f"{float(self.bid_price_after[k])!r}\n"
            )


def path_rng(seed: int, path_index: int = 0) -> np.random.Generator:
    """Counter-based stream for one path, derived from (seed, path index)."""
    return _stream(seed, _TAG_PATH, path_index)


def _stream(seed: int, tag: int, index: int = 0) -> np.random.Generator:
    ss = np.random.SeedSequence((int(seed), int(tag), int(index)))
    return np.random.Generator(np.random.Philox(ss))


def step(
    state: BookState,
    params: ModelParams,
    f: QueueDist,
    rng: np.random.Generator,
) -> tuple[BookState, float, int]:
    """Advance the book by one order-book event.

    Draw order (fixed, part of the reproducibility contract): holding time,
    side, sign, removal kind when the sign is -1, replenishment atom on
    depletion. Returns the new state, the elapsed time and the price move
    in { -1, 0, +1 } ticks.
    """
    elapsed = rng.exponential(1.0 / params.event_rate)
    ask_side = rng.random() < 0.5
    up = rng.random() < params.p_up
    if not up:
        rng.random()  # removal kind (market vs cancel); irrelevant to the state
    if up:
        if ask_side:
            return BookState(state.bid_price, state.bid_queue, state.ask_queue + 1), elapsed, 0
        return BookState(state.bid_price, state.bid_queue + 1, state.ask_queue), elapsed, 0
    if ask_side:
        if state.ask_queue > 1:
            return BookState(state.bid_price, state.bid_queue, state.ask_queue - 1), elapsed, 0
        nb, na = f.sample_one(rng)
        return BookState(state.bid_price + params.tick, nb, na), elapsed, 1
    if state.bid_queue > 1:
        return BookState(state.bid_price, state.bid_queue - 1, state.ask_queue), elapsed, 0
    nb, na = f.swap().sample_one(rng)
    return BookState(state.bid_price - params.tick, nb, na), elapsed, -1


def simulate(
    params: ModelParams,
    f: QueueDist,
    cfg: SimConfig,
    collect_events: bool = False,
):
    """Simulate one path; deterministic given cfg.seed and cfg.path_index.

    Returns a PricePath, or (PricePath, EventLog) when collect_events is set.
    A horizon that ends before the first price change yields an empty-moves
    path, which is valid.
    """
    ft = f.swap()
    rng = path_rng(cfg.seed, cfg.path_index)

    if cfg.initial_state is not None:
        qb, qa = cfg.initial_state.bid_queue, cfg.initial_state.ask_queue
        price = cfg.initial_state.bid_price
    else:
        qb, qa = f.sample_one(rng)
        price = cfg.initial_price
    initial_price = price

    rate = params.event_rate
    inv_rate = 1.0 / rate
    pu = params.p_up
    p_market = params.mu / params.mu_theta

    times: list[float] = []
    moves: list[int] = []
    log = _EventBuffer(collect_events)
    t = 0.0
    n_ev = 0
    ev_budget = cfg.horizon_events if cfg.horizon_events is not None else -1
    t_budget = cfg.horizon_time if cfg.horizon_time is not None else math.inf
    exponential = rng.exponential
    random = rng.random

    while True:
        if ev_budget >= 0 and n_ev >= ev_budget:
            break
        dt = exponential(inv_rate)
        if t + dt > t_budget:
            t = t_budget
            break
        t += dt
        n_ev += 1
        ask_side = random() < 0.5
        up = random() < pu
        kind = 0
        if not up:
            kind = 1 if random() < p_market else 2
        if up:
            if ask_side:
                qa += 1
            else:
                qb += 1
        elif ask_side:
            if qa > 1:
                qa -= 1
            else:
                qb, qa = f.sample_one(rng)
                price += params.tick
                times.append(t)
                moves.append(1)
        else:
            if qb > 1:
                qb -= 1
            else:
                qb, qa = ft.sample_one(rng)
                price -= params.tick
                times.append(t)
                moves.append(-1)
        assert qb >= 1 and qa >= 1
        log.append(t, ask_side, kind, qb, qa, price)

    t_end = t if cfg.horizon_time is None else cfg.horizon_time
    path = PricePath(
        change_times=np.array(times, dtype=np.float64),
        moves=np.array(moves, dtype=np.int64),
        initial_price=initial_price,
        tick=params.tick,
        t_end=float(t_end),
    )
    if collect_events:
        return path, log.finish()
    return path


class _EventBuffer:
    """Grow-by-doubling columnar event store (cheap when disabled)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.n = 0
        if enabled:
            cap = 1024
            self.t = np.empty(cap)
            self.side = np.empty(cap, dtype=np.int8)
            self.kind = np.empty(cap, dtype=np.int8)
            self.qb = np.empty(cap, dtype=np.int64)
            self.qa = np.empty(cap, dtype=np.int64)
            self.price = np.empty(cap)

    def append(self, t, side, kind, qb, qa, price):
        if not self.enabled:
            return
        n = self.n
        if n == self.t.size:
            for name in ("t", "side", "kind", "qb", "qa", "price"):
                arr = getattr(self, name)
                grown = np.empty(2 * arr.size, dtype=arr.dtype)
                grown[:n] = arr
                setattr(self, name, grown)
        self.t[n] = t
        self.side[n] = side
        self.kind[n] = kind
        self.qb[n] = qb
        self.qa[n] = qa
        self.price[n] = price
        self.n = n + 1

    def finish(self) -> EventLog:
        n = self.n
        return EventLog(
            t=self.t[:n].copy(),
            side=self.side[:n].copy(),
            kind=self.kind[:n].copy(),
            bid_queue_after=self.qb[:n].copy(),
            ask_queue_after=self.qa[:n].copy(),
            bid_price_after=self.price[:n].copy(),
        )


def rescaled_series(
    path: PricePath,
    n: int,
    regime: str,
    t_grid: Sequence[float],
) -> np.ndarray:
    """Centered price change at rescaled times, (s(t zeta(n)) - s(0)) / sqrt(n).

    zeta(n) is n log n in the balanced regime (n >= 2 required) and n in the
    unbalanced regime. Raises InsufficientPathError when the path does not
    cover max(t_grid) * zeta(n).
    """
    if regime not in ("balanced", "unbalanced"):
        raise ValueError(f"regime must be 'balanced' or 'unbalanced', got {regime!r}")
    if n < 1 or (regime == "balanced" and n < 2):
        raise ValueError("need n >= 2 for the balanced rescaling (log n > 0)")
    zeta = n * math.log(n) if regime == "balanced" else float(n)
    t = np.asarray(t_grid, dtype=np.float64) * zeta
    return (path.prices(t) - path.initial_price) / math.sqrt(n)


# ---------------------------------------------------------------------------
# Vectorized batch Monte Carlo engines.
#
# Event epochs form a homogeneous Poisson process of rate 2(lam+mu+theta)
# independent of the event marks, so holding times can be attached after the
# embedded discrete walk is simulated: a first-passage time is Gamma(K)
# distributed given its embedded step count K. This keeps the hot loops in
# integer numpy operations.
# ---------------------------------------------------------------------------


def _ruin_steps(q0: np.ndarray, p_up: float, rng: np.random.Generator) -> np.ndarray:
    """Steps until a +-1 walk started at q0 (up with prob p_up) first hits 0."""
    q = q0.astype(np.int64).copy()
    steps = np.zeros(q.size, dtype=np.int64)
    idx = np.flatnonzero(q > 0)
    k = 0
    while idx.size:
        k += 1
        u = rng.random(idx.size)
        q[idx] += np.where(u < p_up, 1, -1)
        done = q[idx] == 0
        if done.any():
            steps[idx[done]] = k
            idx = idx[~done]
    return steps


def sample_first_passage(
    bid: int,
    ask: int,
    params: ModelParams,
    n_samples: int,
    seed: int,
    start_dist: Optional[QueueDist] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample (duration, first-move-is-up) for the time until the next price move.

    The two queues empty independently; each side's first-passage time is the
    Gamma-distributed sum of its embedded step count's holding times (per-side
    event rate lam + mu + theta). When start_dist is given, initial queue
    pairs are drawn from it instead of the fixed (bid, ask).

    The unbalanced regime is required: the balanced embedded walk has
    infinite expected ruin time, so this sampler would not terminate.
    """
    if params.lam >= params.mu_theta:
        raise ValueError("first-passage sampling requires lam < mu + theta")
    rng = _stream(seed, _TAG_PASSAGE)
    if start_dist is not None:
        qb, qa = start_dist.sample(rng, n_samples)
    else:
        qb = np.full(n_samples, int(bid), dtype=np.int64)
        qa = np.full(n_samples, int(ask), dtype=np.int64)
    side_rate = params.lam + params.mu_theta
    ka = _ruin_steps(qa, params.p_up, rng)
    kb = _ruin_steps(qb, params.p_up, rng)
    sigma_a = rng.gamma(shape=ka.astype(np.float64), scale=1.0 / side_rate)
    sigma_b = rng.gamma(shape=kb.astype(np.float64), scale=1.0 / side_rate)
    return np.minimum(sigma_a, sigma_b), sigma_a < sigma_b


def sample_price_at(
    params: ModelParams,
    f: QueueDist,
    horizon_time: float,
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """Net signed tick count at a fixed model time for a batch of paths.

    Initial queue pairs are drawn from f. Event counts per path are Poisson
    with mean event_rate * horizon_time; the embedded marks are then run in
    lockstep rounds across all unfinished paths.
    """
    ft = f.swap()
    rng = _stream(seed, _TAG_PRICE)
    pu = params.p_up
    n_events = rng.poisson(params.event_rate * horizon_time, size=n_paths)
    qb, qa = f.sample(rng, n_paths)
    qb = qb.copy()
    qa = qa.copy()
    ticks = np.zeros(n_paths, dtype=np.int64)
    remaining = n_events.copy()
    active = np.flatnonzero(remaining > 0)
    while active.size:
        m = active.size
        ask_side = rng.random(m) < 0.5
        up = rng.random(m) < pu
        d = np.where(up, 1, -1)
        qa_a = qa[active]
        qb_a = qb[active]
        qa_a = np.where(ask_side, qa_a + d, qa_a)
        qb_a = np.where(ask_side, qb_a, qb_a + d)
        dep_up = ask_side & (qa_a == 0)
        dep_dn = (~ask_side) & (qb_a == 0)
        if dep_up.any():
            k = np.flatnonzero(dep_up)
            nb, na = f.sample(rng, k.size)
            qb_a[k] = nb
            qa_a[k] = na
            ticks[active[k]] += 1
        if dep_dn.any():
            k = np.flatnonzero(dep_dn)
            nb, na = ft.sample(rng, k.size)
            qb_a[k] = nb
            qa_a[k] = na
            ticks[active[k]] -= 1
        qa[active] = qa_a
        qb[active] = qb_a
        remaining[active] -= 1
        still = remaining[active] > 0
        if not still.all():
            active = active[still]
    return ticks


def sample_move_signs(
    params: ModelParams,
    f: QueueDist,
    n_chains: int,
    n_moves: int,
    seed: int,
    start: Optional[tuple[int, int]] = None,
) -> np.ndarray:
    """Simulate the +-1 price-move sequence; shape (n_chains, n_moves).

    Chains start from an f draw (the state after an up move), or from the
    fixed (bid, ask) pair in start when given. After each move the queues
    are redrawn from f or f~ according to the move direction. Requires
    lam < mu + theta (see sample_first_passage).
    """
    if params.lam >= params.mu_theta:
        raise ValueError("move-sign sampling requires lam < mu + theta")
    ft = f.swap()
    rng = _stream(seed, _TAG_MOVES)
    pu = params.p_up
    side_rate = params.lam + params.mu_theta
    signs = np.empty((n_chains, n_moves), dtype=np.int8)
    if start is not None:
        qb = np.full(n_chains, int(start[0]), dtype=np.int64)
        qa = np.full(n_chains, int(start[1]), dtype=np.int64)
    else:
        qb, qa = f.sample(rng, n_chains)
    for mv in range(n_moves):
        ka = _ruin_steps(qa, pu, rng)
        kb = _ruin_steps(qb, pu, rng)
        sigma_a = rng.gamma(shape=ka.astype(np.float64), scale=1.0 / side_rate)
        sigma_b = rng.gamma(shape=kb.astype(np.float64), scale=1.0 / side_rate)
        up = sigma_a < sigma_b
        signs[:, mv] = np.where(up, 1, -1)
        qb = np.empty(n_chains, dtype=np.int64)
        qa = np.empty(n_chains, dtype=np.int64)
        ui = np.flatnonzero(up)
        di = np.flatnonzero(~up)
        if ui.size:
            qb[ui], qa[ui] = f.sample(rng, ui.size)
        if di.size:
            qb[di], qa[di] = ft.sample(rng, di.size)
    return signs
