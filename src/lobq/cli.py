"""Command-line interface.

Subcommands: duration, prob-up, price-stats, simulate, estimate, vol, xval.
Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 cross-validation
comparison failure. Failures print a machine-readable JSON object to stderr.
Every output embeds the fully resolved configuration for provenance, and
identical configurations (including seeds) produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import analytics, estimation, xval
from .model import BookState, ModelParams, QueueDist, SimConfig, simulate
from .numerics import QuadratureError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_XVAL = 3


class UsageError(ValueError):
    pass


def _parse_grid(text: str) -> np.ndarray:
    """Parse 'start:stop:step' (seconds) into an inclusive grid."""
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise UsageError(f"bad grid {text!r}, want start:stop:step") from None
    if step <= 0 or stop < start:
        raise UsageError(f"bad grid {text!r}: need step > 0 and stop >= start")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return np.round(start + step * np.arange(n), 12)


def _params_from(args, need_split: bool = False) -> ModelParams:
    tick = getattr(args, "tick", 1.0)
    if getattr(args, "mu", None) is not None or getattr(args, "theta", None) is not None:
        mu = args.mu if args.mu is not None else 0.0
        theta = args.theta if args.theta is not None else 0.0
        return ModelParams(lam=args.lam, mu=mu, theta=theta, tick=tick)
    if getattr(args, "mu_theta", None) is None:
        raise UsageError("provide --mu-theta, or --mu/--theta")
    if need_split:
        raise UsageError("this command needs --mu and --theta separately")
    return ModelParams.from_rates(args.lam, args.mu_theta, tick=tick)


def _load_f(args) -> QueueDist:
    if getattr(args, "f", None) is None:
        raise UsageError("provide --f pointing to a replenishment CSV (columns i,j,p)")
    return QueueDist.from_csv(args.f)


def _write_text(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_echo(args, **extra) -> dict:
    skip = {"func"}
    d = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    d.update(extra)
    return d


def _csv_with_config(config: dict, header: str, rows) -> str:
    lines = ["# config: " + json.dumps(config, sort_keys=True), header]
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def cmd_duration(args) -> int:
    """Survival curve of the time to the next price move, plus tail asymptote."""
    params = _params_from(args)
    ts = _parse_grid(args.t_grid)
    surv = analytics.survival_curve(args.a, args.b, ts, params)
    law = analytics.tail_law(args.a, args.b, params)
    config = _config_echo(args, tail_exponent=law.exponent, tail_prefactor=law.prefactor,
                          tail_rate=law.rate)
    asym = [law.asymptote(float(t)) for t in ts]
    rows = [f"{float(t)!r},{float(s)!r},{x!r}" for t, s, x in zip(ts, surv, asym)]
    if args.format == "json":
        _write_text(args, json.dumps({
            "config": config,
            "t": [float(x) for x in ts],
            "survival": [float(x) for x in surv],
            "tail_asymptote": asym,
        }, sort_keys=True) + "\n")
    else:
        _write_text(args, _csv_with_config(config, "t,survival,tail_asymptote", rows))
    return EXIT_OK


def cmd_prob_up(args) -> int:
    """Up-move probability grid for a balanced book (parameter-free)."""
    rows = []
    for n in range(1, args.n_max + 1):
        for p in range(1, args.p_max + 1):
            rows.append(f"{n},{p},{analytics.prob_up_balanced(n, p)!r}")
    config = _config_echo(args)
    if args.format == "json":
        data = [
            {"n": n, "p": p, "phi": analytics.prob_up_balanced(n, p)}
            for n in range(1, args.n_max + 1)
            for p in range(1, args.p_max + 1)
        ]
        _write_text(args, json.dumps({"config": config, "phi": data}, sort_keys=True) + "\n")
    else:
        _write_text(args, _csv_with_config(config, "n,p,phi", rows))
    return EXIT_OK


def cmd_price_stats(args) -> int:
    """Move-chain statistics: p_cont, lag covariances, conditional p_n."""
    params = _params_from(args)
    f = _load_f(args)
    pc = analytics.p_cont(f, params)
    out = {
        "config": _config_echo(args),
        "p_cont": pc,
        "upper_mass": f.upper_mass(),
        "depth": analytics.depth(f),
        "autocov": [
            {"k": k, "cov": analytics.autocov_moves(k, f, params)}
            for k in range(1, args.k_max + 1)
        ],
    }
    if args.bid is not None and args.ask is not None:
        out["p_n"] = [
            {"k": k, "p": analytics.p_n(k, args.bid, args.ask, f, params)}
            for k in range(1, args.k_max + 1)
        ]
    _write_text(args, json.dumps(out, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    """Simulate one path; write the price path and optionally the event log."""
    params = _params_from(args, need_split=args.event_log is not None)
    f = _load_f(args)
    initial = None
    if args.initial_bid is not None or args.initial_ask is not None:
        if args.initial_bid is None or args.initial_ask is None:
            raise UsageError("give both --initial-bid and --initial-ask, or neither")
        initial = BookState(args.initial_price, args.initial_bid, args.initial_ask)
    cfg = SimConfig(
        seed=args.seed,
        horizon_time=args.horizon_time,
        horizon_events=args.horizon_events,
        initial_state=initial,
        initial_price=args.initial_price,
        path_index=args.path_index,
    )
    if args.event_log is not None:
        path, log = simulate(params, f, cfg, collect_events=True)
        log.to_csv(args.event_log)
    else:
        path = simulate(params, f, cfg)
    if args.out.endswith(".json"):
        payload = {"config": _config_echo(args), "path": json.loads(path.to_json())}
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        config_line = "# config: " + json.dumps(_config_echo(args), sort_keys=True) + "\n"
        path.to_csv(args.out)
        with open(args.out, "r", encoding="utf-8") as fh:
            body = fh.read()
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(config_line + body)
    sys.stdout.write(
        json.dumps({"price_changes": len(path), "t_end": path.t_end, "out": args.out})
        + "\n"
    )
    return EXIT_OK


def cmd_estimate(args) -> int:
    """Estimate intensities and the replenishment law from an event log."""
    log = estimation.parse_event_log(args.log, batch_size=args.batch_size)
    result = estimation.estimate_intensities(log)
    try:
        f_hat = estimation.estimate_replenishment(log)
        result.f_hat = f_hat
    except estimation.EstimationError:
        f_hat = None
    payload = json.loads(result.to_json())
    payload["config"] = _config_echo(args)
    if f_hat is not None:
        payload["upper_mass_hat"] = f_hat.upper_mass()
    if args.window is not None:
        payload["predicted_vs_realized"] = estimation.predicted_vs_realized(log, args.window)
    _write_text(args, json.dumps(payload, sort_keys=True) + "\n")
    if args.f_out and f_hat is not None:
        f_hat.to_csv(args.f_out)
    return EXIT_OK


def cmd_vol(args) -> int:
    """Predicted diffusion volatility; with a log, the predicted-vs-realized report."""
    params = _params_from(args)
    f = _load_f(args)
    out = {"config": _config_echo(args), "depth": analytics.depth(f)}
    if params.balanced:
        sigma = analytics.vol_balanced(params, f)
        out["regime"] = "balanced"
        if args.n is not None:
            out["sigma_window"] = analytics.vol_balanced_window(params, f, args.n)
    else:
        sigma = analytics.vol_unbalanced(params, f)
        out["regime"] = "unbalanced"
        out["mean_duration_f"] = analytics.expected_duration_f(f, params)
    out["sigma"] = sigma
    if args.log is not None:
        if args.window is None:
            raise UsageError("--log needs --window (seconds)")
        log = estimation.parse_event_log(args.log, batch_size=args.batch_size)
        out["predicted_vs_realized"] = estimation.predicted_vs_realized(log, args.window)
    _write_text(args, json.dumps(out, sort_keys=True) + "\n")
    return EXIT_OK


def _parse_criteria(text: str) -> list[int]:
    out: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if "-" in part:
            lo, hi = part.split("-")
            out.update(range(int(lo), int(hi) + 1))
        elif part:
            out.add(int(part))
    bad = out - set(xval.CRITERIA)
    if bad:
        raise UsageError(f"unknown criteria {sorted(bad)}; available {sorted(xval.CRITERIA)}")
    return sorted(out)


def cmd_xval(args) -> int:
    """Run the cross-validation suite; exit 3 if any comparison fails."""
    import time

    numbers = _parse_criteria(args.criteria) if args.criteria else sorted(xval.CRITERIA)
    results = []
    for k in numbers:
        t0 = time.perf_counter()
        res = xval.run_criterion(k, seed=args.seed)
        elapsed = time.perf_counter() - t0
        status = "PASS" if res.passed else "FAIL"
        sys.stdout.write(f"criterion {k}: {status}  {res.title}  [{elapsed:.1f}s]\n")
        for note in res.notes:
            sys.stdout.write(f"    note: {note}\n")
        sys.stdout.flush()
        results.append(res)
    suite = xval.SuiteResult(results)
    payload = {"config": {"criteria": numbers, "seed": args.seed}, **suite.as_dict()}
    text = json.dumps(payload, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    sys.stdout.write(f"overall: {'PASS' if suite.passed else 'FAIL'}\n")
    return EXIT_OK if suite.passed else EXIT_XVAL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lobq",
        description="Two-queue limit order book: simulation, closed-form analytics, estimation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_rates(p, split=False):
        p.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="limit-order rate per side (events/second)")
        p.add_argument("--mu-theta", dest="mu_theta", type=float,
                       help="combined market+cancel rate per side (events/second)")
        p.add_argument("--mu", type=float, help="market-order rate per side (events/second)")
        p.add_argument("--theta", type=float, help="cancellation rate per side (events/second)")
        p.add_argument("--tick", type=float, default=1.0,
                       help="tick size (currency units per price level)")

    p = sub.add_parser("duration", help="survival curve of the next-move duration")
    add_rates(p)
    p.add_argument("--a", type=int, required=True, help="initial bid queue (batches)")
    p.add_argument("--b", type=int, required=True, help="initial ask queue (batches)")
    p.add_argument("--t-grid", required=True, help="time grid start:stop:step (seconds)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="output file (default stdout)")
    p.set_defaults(func=cmd_duration)

    p = sub.add_parser("prob-up", help="balanced up-move probability grid")
    p.add_argument("--n-max", type=int, default=20, help="bid sizes 1..n-max (batches)")
    p.add_argument("--p-max", type=int, default=20, help="ask sizes 1..p-max (batches)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="output file (default stdout)")
    p.set_defaults(func=cmd_prob_up)

    p = sub.add_parser("price-stats", help="move-chain statistics from f and rates")
    add_rates(p)
    p.add_argument("--f", required=True, help="replenishment CSV, columns i,j,p (batches)")
    p.add_argument("--k-max", type=int, default=10, help="largest move lag to report")
    p.add_argument("--bid", type=int, help="bid queue for conditional p_n (batches)")
    p.add_argument("--ask", type=int, help="ask queue for conditional p_n (batches)")
    p.add_argument("--output", help="output file (default stdout)")
    p.set_defaults(func=cmd_price_stats)

    p = sub.add_parser("simulate", help="simulate one path to CSV/JSON files")
    add_rates(p)
    p.add_argument("--f", required=True, help="replenishment CSV, columns i,j,p (batches)")
    p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    p.add_argument("--path-index", type=int, default=0, help="independent stream index")
    p.add_argument("--horizon-time", type=float, help="stop after this model time (seconds)")
    p.add_argument("--horizon-events", type=int, help="stop after this many events")
    p.add_argument("--initial-bid", type=int, help="initial bid queue (batches; default: draw from f)")
    p.add_argument("--initial-ask", type=int, help="initial ask queue (batches)")
    p.add_argument("--initial-price", type=float, default=0.0, help="initial bid price (currency)")
    p.add_argument("--out", required=True, help="price-path output (.csv or .json)")
    p.add_argument("--event-log", help="also write the full event log CSV (.gz ok); needs --mu/--theta")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate rates and replenishment from a log")
    p.add_argument("--log", required=True, help="event-log CSV (.gz ok)")
    p.add_argument("--batch-size", type=float, default=1.0,
                   help="shares per batch for queue-size rescaling")
    p.add_argument("--window", type=float, help="also report predicted vs realized volatility over this window (seconds)")
    p.add_argument("--f-out", help="write estimated replenishment as sparse CSV i,j,p")
    p.add_argument("--output", help="output JSON file (default stdout)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("vol", help="predicted diffusion volatility from (rates, f)")
    add_rates(p)
    p.add_argument("--f", required=True, help="replenishment CSV, columns i,j,p (batches)")
    p.add_argument("--n", type=int, help="window index for the windowed balanced form")
    p.add_argument("--log", help="event log for predicted-vs-realized comparison")
    p.add_argument("--window", type=float, help="realized-volatility window (seconds)")
    p.add_argument("--batch-size", type=float, default=1.0,
                   help="shares per batch for queue-size rescaling")
    p.add_argument("--output", help="output JSON file (default stdout)")
    p.set_defaults(func=cmd_vol)

    p = sub.add_parser("xval", help="run the cross-validation acceptance suite")
    p.add_argument("--criteria", help="subset like '1,3' or '1-8' (default: all)")
    p.add_argument("--seed", type=int, default=xval.BASE_SEED, help="base RNG seed")
    p.add_argument("--out", help="write the JSON report here (default stdout)")
    p.set_defaults(func=cmd_xval)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(json.dumps({"error": "usage", "message": str(exc)}) + "\n")
        return EXIT_USAGE
    except (ValueError, OSError, QuadratureError, estimation.EstimationError,
            xval.OracleError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
