"""The benchmark's workloads: their inputs, timed operations and output checks.

A workload hands the runner rounds of operations. Every round of a
workload is made of the same operations on fresh inputs drawn from the
seed, so a run attempts whole rounds and its share of failed operations is
the same in every run. Operations are grouped into units of work (one log,
one round of six books, one certification pass); unit_s is the median
scaled time of a unit (see run.Timer).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import checks
from lobq import analytics, cli, estimation, model, numerics, xval
from lobq.model import ModelParams, QueueDist, SimConfig
from lobq.presets import BALANCED_F, CITI_LIKE_F, LIQUID_PARAMS, UNBALANCED_F


@dataclass
class Operation:
    """One timed call sequence and the checks of its outputs.

    check returns the problems it found in the output (none when it
    passes). A problem that starts with known_fault comes from a fault of
    the program that the workload keeps on purpose; any other problem makes
    the run incorrect. The wall time of operations with a label is also
    summed per label.
    """

    name: str
    unit: tuple
    run: Callable[[], object]
    check: Callable[[object], list]
    prepare: Optional[Callable[[], None]] = None
    known_fault: Optional[str] = None
    label: str = ""


def sub_seed(seed: int, *index: int) -> int:
    """A 63-bit seed derived from the run seed and an operation index."""
    return int(np.random.SeedSequence([seed, *index]).generate_state(1, np.uint64)[0] >> 1)


class CalibrateLiquid:
    """`lobq simulate --event-log` then `lobq estimate --window 10` on one 60 s log.

    A round is one log at LIQUID_PARAMS with CITI_LIKE_F (about 544k events
    and 43k price moves), simulated from its own seed. Each program call of
    the two commands is one operation. As with the two commands, the
    simulated log is gone from memory before the log is parsed: the check
    of the CSV write saves its columns to files, and the check of the parse
    reads them back a chunk at a time.
    """

    horizon = 60.0
    window = 10.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.events: dict[tuple, int] = {}

    def round(self, r: int) -> list[Operation]:
        log_seed = sub_seed(self.seed, r)
        csv_path = os.path.join(self.workdir, f"events-{r}.csv")
        state: dict = {}  # what one call hands the next, as the CSV file does between commands

        def column_path(name: str) -> str:
            return os.path.join(self.workdir, f"events-{r}-{name}.bin")

        def simulate():
            return model.simulate(
                LIQUID_PARAMS, CITI_LIKE_F, SimConfig(seed=log_seed, horizon_time=self.horizon),
                collect_events=True,
            )

        def check_simulate(out):
            path, log = out
            state["log"] = log
            self.events[(r,)] = len(log)
            prices = np.concatenate(([path.initial_price], log.bid_price_after))
            moves = int(np.count_nonzero(np.diff(prices)))
            if moves != len(path):
                return [f"price path has {len(path)} moves, event log {moves}"]
            return []

        def write():
            state["log"].to_csv(csv_path)

        def check_write(_):
            state["simulated"] = checks.SavedColumns(state.pop("log"), column_path)
            return []

        def parse():
            with warnings.catch_warnings(record=True) as warned:
                warnings.simplefilter("always")
                records = estimation.parse_event_log(csv_path)
            return records, [str(w.message) for w in warned]

        def check_parse(out):
            records, warned = out
            os.remove(csv_path)
            state["records"] = records
            simulated = state.pop("simulated")
            problems = checks.check_event_columns(simulated, records, warned)
            simulated.remove()
            return problems

        def estimate():
            records = state["records"]
            result = estimation.estimate_intensities(records)
            result.f_hat = estimation.estimate_replenishment(records)
            return result

        def check_estimate(result):
            state["result"] = result
            p = LIQUID_PARAMS
            problems = checks.check_kind_counts(result.counts, len(state["records"]))
            problems += checks.check_rate("lambda_hat", result.lambda_hat, p.lam, self.horizon)
            problems += checks.check_rate("mu_theta_hat", result.mu_theta_hat, p.mu_theta, self.horizon)
            problems += checks.check_replenishment(result.f_hat.as_dict(), CITI_LIKE_F.as_dict())
            return problems

        def predict():
            return estimation.predicted_vs_realized(state["records"], self.window)

        def check_predict(report):
            result = state["result"]
            state.clear()
            return checks.check_window_report(report["assets"][0], result.lambda_hat,
                                              result.mu_theta_hat, result.f_hat.as_dict(),
                                              LIQUID_PARAMS.tick)

        return [
            Operation("simulate", (r,), simulate, check_simulate),
            Operation("write", (r,), write, check_write),
            Operation("parse", (r,), parse, check_parse),
            Operation("estimate", (r,), estimate, check_estimate),
            Operation("predict", (r,), predict, check_predict),
        ]

    def info(self, unit_times: dict) -> dict:
        done = {u: secs for u, secs in unit_times.items() if u in self.events}
        if not done:
            return {}
        events = sum(self.events[u] for u in done)
        return {"events_per_log": events / len(done),
                "events_per_s": events / sum(done.values())}


# Replenishment laws of the price-stats books: the shipped presets. Each
# kind of flow gets its swap-symmetric preset (BALANCED_F for balanced
# flow, UNBALANCED_F otherwise, as in xval's diffusion criteria) and the
# asymmetric CITI_LIKE_F, the law calibrate-liquid's f_hat recovers.
LAWS = {"UNBALANCED_F": UNBALANCED_F, "BALANCED_F": BALANCED_F, "CITI_LIKE_F": CITI_LIKE_F}
TICK = 0.01
K_MAX = 10
PHI_GRID = 5


@dataclass(frozen=True)
class Book:
    kind: str
    lam: float
    mu_theta: float
    a: int
    b: int
    f_name: str

    @property
    def f(self) -> QueueDist:
        return LAWS[self.f_name]

    @property
    def params(self) -> ModelParams:
        return ModelParams.from_rates(self.lam, self.mu_theta, tick=TICK)

    @property
    def balanced(self) -> bool:
        return self.params.balanced


def draw_books(seed: int, r: int) -> list[Book]:
    """Round r's six books: slow, liquid near-balanced and balanced flow, each with two laws.

    Rates are drawn afresh for every book, so no two books share them.
    """
    rng = np.random.default_rng(sub_seed(seed, r))
    books = []
    for kind in ("slow", "liquid", "balanced"):
        sym = "BALANCED_F" if kind == "balanced" else "UNBALANCED_F"
        for f_name in (sym, "CITI_LIKE_F"):
            a, b = (int(v) for v in rng.integers(1, 5, size=2))
            if kind == "slow":
                lam = rng.uniform(0.9, 1.1)
                mt = lam * rng.uniform(1.25, 1.3)
            elif kind == "liquid":
                lam = rng.uniform(2000.0, 2400.0)
                mt = lam * rng.uniform(1.01, 1.02)
            else:
                lam = float(np.exp(rng.uniform(0.0, math.log(2200.0))))
                mt = lam
            books.append(Book(kind, float(lam), float(mt), a, b, f_name))
    return books


def time_grid(book: Book) -> np.ndarray:
    """101 points over five mean durations (balanced: to where S is about 0.05)."""
    if book.balanced:
        t_max = 20.0 * book.a * book.b / (math.pi * book.lam)
    else:
        m, _ = checks.mean_duration_plancherel(book.a, book.b, book.lam, book.mu_theta)
        t_max = 5.0 * m
    return np.linspace(0.0, t_max, 101)


def clear_caches() -> None:
    """Empty every functools cache in lobq, as a fresh `lobq` process starts."""
    for mod in (numerics, model, analytics, estimation, xval, cli):
        for val in vars(mod).values():
            if callable(getattr(val, "cache_clear", None)):
                val.cache_clear()


class PriceStats:
    """`lobq duration`, `lobq price-stats` and `lobq vol` on seeded books, cold caches."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.first = self._inputs(0)

    def _inputs(self, r: int):
        return [(book, time_grid(book)) for book in draw_books(self.seed, r)]

    def round(self, r: int) -> list[Operation]:
        inputs = self.first if r == 0 else self._inputs(r)
        ops = []
        for book, ts in inputs:
            ops += self._book_ops((r,), book, ts)
        return ops

    def _book_ops(self, unit, book: Book, ts: np.ndarray) -> list[Operation]:
        params, f, a, b = book.params, book.f, book.a, book.b
        shared = {}

        def duration():
            surv = analytics.survival_curve(a, b, ts, params)
            law = analytics.tail_law(a, b, params)
            return surv, law, [law.asymptote(float(t)) for t in ts]

        def check_duration(out):
            surv, law, _ = out
            oracle = xval.oracle_survival(a, b, ts, params)
            problems = checks.check_survival(ts, surv, oracle)
            return problems + checks.check_tail_law(law, a, b, book.lam, book.mu_theta)

        def price_stats():
            pc = analytics.p_cont(f, params)
            return {
                "p_cont": pc,
                "upper_mass": f.upper_mass(),
                "depth": analytics.depth(f),
                "autocov": [analytics.autocov_moves(k, f, params) for k in range(1, K_MAX + 1)],
                "p_n": [analytics.p_n(k, a, b, f, params) for k in range(1, K_MAX + 1)],
            }

        def check_price_stats(out):
            shared["p_cont"] = pc = out["p_cont"]
            phi = [[analytics.prob_up(n, p, params) for p in range(1, PHI_GRID + 1)]
                   for n in range(1, PHI_GRID + 1)]
            problems = checks.check_prob_up_grid(phi)
            p1 = analytics.prob_up(a, b, params)
            problems += checks.check_sign_chain(pc, out["autocov"], p1, out["p_n"])
            if f.is_symmetric():
                problems += checks.check_p_cont_symmetric(pc)
            return problems

        def vol():
            if params.balanced:
                return {"sigma": analytics.vol_balanced(params, f)}
            return {
                "sigma": analytics.vol_unbalanced(params, f),
                "mean_duration_f": analytics.expected_duration_f(f, params),
            }

        def check_vol(out):
            if params.balanced:
                return checks.check_vol_balanced(out["sigma"], book.lam, TICK, f.as_dict())
            problems = []
            for i, j in sorted({(min(i, j), max(i, j)) for i, j, _ in f.items()}):
                m = analytics.expected_duration(i, j, params)
                problems += checks.check_mean_duration(m, i, j, book.lam, book.mu_theta)
            m_f = math.fsum(p * analytics.expected_duration(i, j, params) for i, j, p in f.items())
            if out["mean_duration_f"] != m_f:
                problems.append(f"m(f) = {out['mean_duration_f']!r}, f-average {m_f!r}")
            if "p_cont" not in shared:
                return problems + ["no p_cont to check the vol identity: the price-stats operation failed"]
            problems += checks.check_vol_identity(out["sigma"], out["mean_duration_f"],
                                                  shared["p_cont"], TICK)
            return problems

        # vol_unbalanced assumes p_cont = 1/2, so on an unbalanced book with
        # an asymmetric law it misses the identity by that one factor.
        fault = checks.VOL_HALF_P_CONT if not params.balanced and not f.is_symmetric() else None
        label = f"{book.kind} {book.f_name}"
        ops = [
            Operation("duration", unit, duration, check_duration, prepare=clear_caches, label=label),
            Operation("price-stats", unit, price_stats, check_price_stats, label=label),
        ]
        # Liquid books leave `lobq vol` out: at some liquid rates the
        # mean-duration quadrature misses by 0.4% (bench/README.md), so the
        # operation would fail on some seeds only.
        if book.kind != "liquid":
            ops.append(Operation("vol", unit, vol, check_vol, known_fault=fault, label=label))
        return ops

    def info(self, unit_times: dict) -> dict:
        return {}


class Certify:
    """`lobq xval --criteria k` in process at its pinned seed, once per criterion.

    Each criterion seeds its own generators from the pinned seed, so
    separate calls give the reports that one call of `--criteria 1,2,4,7`
    gives, and each is timed as its own operation. Four criteria are left
    out so that the benchmark's runs fit its time budget. Criterion 5 alone
    takes about 45 s on the reference machine; its mean-duration quadrature
    is timed by the price-stats books' `lobq vol` operations. Criterion 3
    (14 s) solves the N=400 and N=800 Dirichlet problems that criterion 4
    also solves. Criterion 6 (6-8 s) samples prices with sample_price_at as
    criterion 7 does, and its vol_balanced is timed by price-stats.
    Criterion 8 repeats the calibrate-liquid pipeline on one log.
    """

    criteria = [1, 2, 4, 7]

    def __init__(self, seed: int, workdir: str):
        self.report_path = os.path.join(workdir, "xval-report.json")

    def round(self, r: int) -> list[Operation]:
        return [self._criterion(r, k) for k in self.criteria]

    def _criterion(self, r: int, k: int) -> Operation:
        argv = ["xval", "--criteria", str(k), "--out", self.report_path]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):  # keep the last line for the result
                return cli.main(argv)

        def check(code):
            with open(self.report_path, encoding="utf-8") as fh:
                report = json.load(fh)
            os.remove(self.report_path)
            return checks.check_xval_report(report, code, k)

        return Operation(f"criterion {k}", (r,), run, check)

    def info(self, unit_times: dict) -> dict:
        return {}


WORKLOADS = {
    "calibrate-liquid": CalibrateLiquid,
    "price-stats": PriceStats,
    "xval": Certify,
}
