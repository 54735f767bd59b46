"""Span tracer that wraps lobq's public functions from outside the package.

A span is one call of a wrapped function: its name, its duration and the
span that called it. Spans are aggregated in memory by call path (the names
of the open spans from the outermost down), which keeps a run that makes
millions of calls small and still gives exact inclusive and self times:

* inclusive ("busy") time of a group of functions is the summed duration
  of the group's spans that have no ancestor in the same group;
* self time of a span is its duration minus that of its child spans.

install() replaces every binding of a public function, including names
imported into other modules (analytics.integrate_finite,
xval.sample_first_passage), so calls between modules are traced too. The
program itself is not changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types

LAYERS = ("numerics", "model", "analytics", "estimation", "xval", "cli")

# A scalar kernel the survival integrands call millions of times per round:
# a span around it would cost more than the call itself.
UNTRACED = {"numerics.bessel_i_scaled"}

class Tracer:
    """Aggregated spans and counters; paused while the benchmark checks outputs."""

    def __init__(self):
        self.stats: dict[tuple, list] = {}  # call path -> [calls, inclusive s, self s]
        self.counts: dict[str, float] = {}
        self.integrand_evals = [0]
        self.paused = False
        self._stack: list[list] = []  # [path, child seconds] per open span

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span; before may rewrite the arguments, after sees the result."""
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(self, args)
            path = stack[-1][0] + (name,) if stack else (name,)
            frame = [path, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st = stats.get(path)
                if st is None:
                    st = stats[path] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(self, fn, args, kwargs, out)
            return out

        return traced

    def spans(self) -> int:
        return sum(st[0] for st in self.stats.values())

    def busy(self, names) -> float:
        """Seconds during which at least one span of the named functions was open."""
        names = set(names)
        return sum(
            st[1]
            for path, st in self.stats.items()
            if path[-1] in names and names.isdisjoint(path[:-1])
        )

    def calls(self, names, outermost: bool = False) -> int:
        names = set(names)
        return sum(
            st[0]
            for path, st in self.stats.items()
            if path[-1] in names and (not outermost or names.isdisjoint(path[:-1]))
        )

    def self_time(self, prefix: str) -> float:
        return sum(st[2] for path, st in self.stats.items() if path[-1].startswith(prefix))

    def dump(self) -> list[dict]:
        return [
            {"path": list(path), "calls": st[0], "total_s": st[1], "self_s": st[2]}
            for path, st in sorted(self.stats.items(), key=lambda kv: -kv[1][1])
        ]


def _count_integrand(tracer: Tracer, args: tuple) -> tuple:
    """Replace the integrand (first argument) by one that counts its evaluations."""
    fn = args[0]
    if getattr(fn, "_counted", False):  # already counted by an outer quadrature
        return args
    cell = tracer.integrand_evals

    def counted(x):
        cell[0] += 1
        return fn(x)

    counted._counted = True
    return (counted,) + tuple(args[1:])


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _after_simulate(tr, fn, args, kwargs, out):
    if isinstance(out, tuple):
        tr.add("simulate_events", len(out[1]))


def _after_first_passage(tr, fn, args, kwargs, out):
    tr.add("first_passage_paths", _arguments(fn, args, kwargs)["n_samples"])


def _after_move_signs(tr, fn, args, kwargs, out):
    a = _arguments(fn, args, kwargs)
    tr.add("move_signs", a["n_chains"] * a["n_moves"])


def _after_price_at(tr, fn, args, kwargs, out):
    # the per-path event counts stay inside the sampler; their sum is
    # Poisson with this mean, within 0.1% for the path counts xval uses
    a = _arguments(fn, args, kwargs)
    tr.add("price_at_events", a["n_paths"] * a["params"].event_rate * a["horizon_time"])


def _after_parse(tr, fn, args, kwargs, out):
    tr.add("rows_parsed", out[1].total_rows)


def _after_spsolve(tr, fn, args, kwargs, out):
    tr.add("sparse_unknowns", _arguments(fn, args, kwargs)["A"].shape[0])


HOOKS = {
    "numerics.integrate_finite": (_count_integrand, None),
    "numerics.integrate_semi_infinite": (_count_integrand, None),
    "model.simulate": (None, _after_simulate),
    "model.sample_first_passage": (None, _after_first_passage),
    "model.sample_move_signs": (None, _after_move_signs),
    "model.sample_price_at": (None, _after_price_at),
    "estimation.parse_event_log_with_report": (None, _after_parse),
}

# Methods traced for the event-log write metric.
METHODS = {"model": {"EventLog": ("to_csv", "write")}}


def _public_functions(layer: str, mod) -> dict[str, types.FunctionType]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n, v in vars(mod).items()
                 if getattr(v, "__module__", None) == mod.__name__ and not n.startswith("_")]
    out = {}
    for n in names:
        fn = getattr(mod, n, None)
        if isinstance(fn, types.FunctionType) and f"{layer}.{n}" not in UNTRACED:
            out[f"{layer}.{n}"] = fn
    return out


def install(tracer: Tracer) -> None:
    """Trace lobq's public functions, its xval criteria and analytics' sparse solves."""
    import lobq
    import scipy.sparse.linalg as spla

    mods = {layer: importlib.import_module(f"lobq.{layer}") for layer in LAYERS}
    by_id = {}
    for layer, mod in mods.items():
        for name, fn in _public_functions(layer, mod).items():
            before, after = HOOKS.get(name, (None, None))
            by_id[id(fn)] = tracer.wrap(name, fn, before, after)
    for mod in [lobq, *mods.values()]:
        for attr, val in list(vars(mod).items()):
            if isinstance(val, types.FunctionType) and id(val) in by_id:
                setattr(mod, attr, by_id[id(val)])
    for layer, classes in METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(mods[layer], cls_name)
            for m in methods:
                setattr(cls, m, tracer.wrap(f"{layer}.{cls_name}.{m}", getattr(cls, m)))
    criteria = mods["xval"].CRITERIA
    for k, fn in list(criteria.items()):
        criteria[k] = tracer.wrap(f"xval.criterion_{k}", fn)
    spla.spsolve = tracer.wrap("scipy.spsolve", spla.spsolve, None, _after_spsolve)


def span_cost(n: int = 20000) -> tuple[float, float]:
    """Measured seconds added per span and per counted integrand evaluation."""

    def f(x):
        return x

    def best_of(call, reps=5):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            for i in range(n):
                call(i)
            best = min(best, time.perf_counter() - t0)
        return best / n

    bare = best_of(f)
    tr = Tracer()
    wrapped = tr.wrap("probe", f)
    counted = _count_integrand(tr, (f,))[0]
    return max(best_of(wrapped) - bare, 0.0), max(best_of(counted) - bare, 0.0)
