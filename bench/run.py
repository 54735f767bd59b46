"""Run one workload of the lobq benchmark and print its metrics.

    python3 bench/run.py --workload price-stats --seed 1 --seconds 5 --trace 0

Workloads: calibrate-liquid, price-stats, xval (see bench/README.md). The
run repeats whole rounds of the workload's operations until their summed
wall time reaches --seconds, checks every output, and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 every
public lobq function is wrapped in a span and the metrics are the
per-layer ones. The line before it describes the machine and the run.

Results and traces are also written to bench/out/. The program is run from
src/ of the checkout holding this file; the run fails, printing no result,
when that source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_PROBES = 3
# Time of reference_job() on the reference machine (bench/README.md) in a
# fast phase; timings are scaled to this speed.
REFERENCE_S = 0.1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("calibrate-liquid", "price-stats", "xval")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=5.0,
                    help="summed operation wall time after which no new round starts")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up the workload, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def cap_threads() -> int:
    """Cap the numeric libraries' thread pools at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = min(int(os.environ.get(var, nproc)), nproc)
        except ValueError:
            want = nproc
        os.environ[var] = str(max(want, 1))
    return nproc


def build(args, workdir: str):
    """Import lobq from this checkout and build the workload's first inputs."""
    sys.path.insert(0, SRC)
    import lobq

    if not os.path.realpath(lobq.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"lobq imported from {lobq.__file__}, not from {SRC}")
    import workloads

    return workloads.WORKLOADS[args.workload](args.seed, workdir)


def reference_job() -> float:
    """A fixed job of the kinds of work lobq does, without lobq.

    A pure-Python loop, scipy quad with a Python integrand, numpy sorts and
    one sparse LU solve; about 0.1 s on the reference machine.
    """
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    from scipy import integrate

    total = 0.0
    for i in range(150_000):
        total += i * i % 7
    for k in range(240):
        total += integrate.quad(lambda x: math.exp(-x) * math.cos(k % 30 * x), 0.0, 10.0, limit=200)[0]
    x = np.random.default_rng(1).random(200_000)
    for _ in range(3):
        x = np.sort(x * 1.5 % 1.0)
    n = 60
    one = np.ones(n * n)
    lap = sp.diags([4.0 * one, -one[1:], -one[1:], -one[n:], -one[n:]], [0, 1, -1, n, -n], format="csc")
    return total + float(spla.spsolve(lap, one)[0])


def reference_s() -> float:
    """Wall time of one reference_job()."""
    t0 = time.perf_counter()
    reference_job()
    return time.perf_counter() - t0


class Timer:
    """Times calls and scales each to the speed at which reference_job takes REFERENCE_S.

    The reference machine's speed drifts by up to a factor two within
    minutes (bench/README.md). reference_job runs right before and right
    after each timed call; the call's wall time is scaled by REFERENCE_S
    over their mean. The reference job does not use lobq, so
    a change to the program moves the scaled time as it moves the wall time.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.references: list[float] = []
        reference_job()  # the first call also imports; it is not timed

    def reference(self) -> float:
        if self.tracer is not None:
            self.tracer.paused = True
        r = reference_s()
        if self.tracer is not None:
            self.tracer.paused = False
        self.references.append(r)
        return r

    @staticmethod
    def scale(wall: float, before: float, after: float) -> float:
        return wall * REFERENCE_S / (0.5 * (before + after))

    def time(self, fn):
        """(result or None, exception or None, wall seconds, scaled seconds) of fn()."""
        before = self.reference()
        t0 = time.perf_counter()
        try:
            out, error = fn(), None
        except Exception as exc:  # one broken operation is reported, not fatal
            out, error = None, exc
        wall = time.perf_counter() - t0
        return out, error, wall, self.scale(wall, before, self.reference())


def setup_times(args, timer: Timer) -> tuple[list[float], list[float]]:
    """Wall and scaled times from process start to the first operation, in fresh processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    walls, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = timer.reference()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        after = timer.reference()
        if code != 0 or line.strip() != "ready":
            raise SystemExit(f"set-up probe exited {code}")
        walls.append(elapsed)
        scaled.append(timer.scale(elapsed, before, after))
    return walls, scaled


def maxrss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seconds: float, timer: Timer) -> dict:
    """Run whole rounds until the operations' summed wall time reaches seconds."""
    tracer = timer.tracer
    busy = 0.0
    rounds = 0
    unit_times: dict[tuple, float] = {}
    unit_walls: dict[tuple, float] = {}
    op_times: dict[str, float] = {}
    label_times: dict[str, float] = {}
    attempted = failed = 0
    unexpected: list[str] = []
    known: dict[str, int] = {}
    check_rss = 0.0
    while rounds == 0 or busy < seconds:
        for op in wl.round(rounds):
            if op.prepare is not None:
                op.prepare()
            out, exc, wall, scaled = timer.time(op.run)
            error = None
            if exc is not None:
                error = f"{op.name} raised {type(exc).__name__}: {exc}"
                traceback.print_exception(exc, file=sys.stderr)
            busy += wall
            unit_times[op.unit] = unit_times.get(op.unit, 0.0) + scaled
            unit_walls[op.unit] = unit_walls.get(op.unit, 0.0) + wall
            op_times[op.name] = op_times.get(op.name, 0.0) + wall
            if op.label:
                label_times[op.label] = label_times.get(op.label, 0.0) + wall
            if tracer is not None:
                tracer.paused = True
            rss = maxrss_mb()
            if error:
                problems = [error]
            else:
                try:
                    problems = op.check(out)
                except Exception as exc:
                    problems = [f"{op.name} check raised {type(exc).__name__}: {exc}"]
                    traceback.print_exc(file=sys.stderr)
            check_rss += maxrss_mb() - rss
            if tracer is not None:
                tracer.paused = False
            del out
            attempted += 1
            if not problems:
                continue
            failed += 1
            for p in problems:
                if op.known_fault is not None and p.startswith(op.known_fault):
                    known[op.name] = known.get(op.name, 0) + 1
                else:
                    unexpected.append(f"{op.name} {op.unit}: {p}")
        rounds += 1
    return {
        "rounds": rounds,
        "unit_times": unit_times,
        "unit_walls": unit_walls,
        "op_times": op_times,
        "label_times": label_times,
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected,
        "known_faults": known,
        "peak_rss_raised_by_checks_mb": check_rss,
    }


def git_sha():
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "lobq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": nproc,
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run(args, workdir: str, nproc: int) -> dict:
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    timer = Timer(tracer)
    setups, setups_scaled = ([], []) if args.trace else setup_times(args, timer)
    wl = build(args, workdir)
    if tracer is not None:
        span_s, eval_s = tracing.span_cost()
        tracing.install(tracer)
    m = measure(wl, args.seconds, timer)
    for p in m["unexpected"]:
        print(f"FAILED {p}", file=sys.stderr)
    for name, n in m["known_faults"].items():
        print(f"known fault: {n} {name} operations fail", file=sys.stderr)

    unit_s = list(m["unit_times"].values())
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setups_scaled), "unit": "s"},
            "peak_rss_mb": {"value": maxrss_mb(), "unit": "MB"},
            "unit_s": {"value": statistics.median(unit_s), "unit": "s"},
        }
    else:
        import layers

        overhead = tracer.spans() * span_s + tracer.integrand_evals[0] * eval_s
        values = layers.per_layer(tracer, m["rounds"], overhead)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.METRICS}
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"rounds": m["rounds"], "counts": tracer.counts,
                       "integrand_evals": tracer.integrand_evals[0], "spans": tracer.dump()}, fh)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": m["rounds"],
        "units": len(unit_s),
        "unit_times_s": unit_s,
        "unit_wall_s": list(m["unit_walls"].values()),
        "op_wall_s": m["op_times"],
        "label_wall_s": m["label_times"],
        "setup_probes_s": setups_scaled,
        "setup_probes_wall_s": setups,
        "reference_s": {"median": statistics.median(timer.references),
                        "min": min(timer.references), "max": max(timer.references),
                        "count": len(timer.references)},
        "known_faults": m["known_faults"],
        "peak_rss_raised_by_checks_mb": m["peak_rss_raised_by_checks_mb"],
        "details": wl.info(m["unit_walls"]),
        "machine": machine(nproc),
    }
    result = {
        "correct": not m["unexpected"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    return {"info": info, "result": result}


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_threads()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tempfile.tempdir = workdir  # the program's own temporary files stay in the checkout too
    try:
        if args.setup_probe:
            build(args, workdir)
            print("ready", flush=True)
            return 0
        out = run(args, workdir, nproc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"bench": out["info"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
