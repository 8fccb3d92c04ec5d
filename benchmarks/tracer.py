"""Outside-in layer tracing: wrap public functions, aggregate self time.

The package itself is never edited. A :class:`Tracer` replaces chosen
module attributes with timing wrappers and restores them afterwards.
Spans are aggregated in memory as they close (calls, self time, errors
per name) and read out once when the run ends, so memory stays flat no
matter how many of the ~10^5 autodiff calls a run makes.

Self time of a span is its duration minus the durations of the spans
opened directly inside it. A nested span's own children are already
subtracted from it, so every nanosecond is charged to exactly one name,
and work done in unwrapped (private) helpers lands on the nearest
wrapped caller.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# The public functions of each layer that the traced run times. Per-layer
# metric names derive from these; keep them stable so results compare.
SPANS = {
    "autodiff": ("backward", "matmul", "add_bias", "relu", "take_rows",
                 "take_cols", "pairwise_diff", "mul", "add", "exp", "tanh",
                 "clamp"),
    "models": ("extract_features", "cross_entropy_loss"),
    "training": ("train", "Adam.step", "evaluate_classification",
                 "shift_report"),
    "divergences": ("mmd_squared_graph", "coral_penalty_graph",
                    "marginal_divergence"),
    "copula": ("copula_distance_graph", "copula_distance"),
    "datasets": ("load_delimited", "batch_iterator"),
    "experiments": ("moons_pair",),
    "cli": ("main",),
}


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns]


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0


class Tracer:
    """Aggregating span recorder; ``wrap`` makes a timed stand-in for ``fn``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        # one accumulator per open span: time covered by its direct children
        self._child_time: list[float] = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        child_time = self._child_time
        clock = self.clock

        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                duration = clock() - start
                stats.calls += 1
                stats.self_s += duration - child_time.pop()
                if child_time:
                    child_time[-1] += duration

        return functools.wraps(fn)(traced)


class Instrumented:
    """Context manager that installs ``tracer`` wrappers on the package.

    Each span ``module.function`` is wrapped where it is defined and also
    under every other ``copulashift`` module attribute bound to the same
    object, because ``from .models import extract_features`` copies the
    reference into the importer's namespace. ``Class.method`` spans are
    wrapped on the class. Everything is restored on exit.
    """

    def __init__(self, tracer: Tracer, package: str = "copulashift"):
        self.tracer = tracer
        self.package = package
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for mod_name, fns in SPANS.items():
            home = sys.modules[f"{self.package}.{mod_name}"]
            for fn in fns:
                owner, attr = home, fn
                if "." in fn:
                    cls_name, attr = fn.split(".")
                    owner = getattr(home, cls_name)
                original = getattr(owner, attr)
                wrapped = self.tracer.wrap(f"{mod_name}.{fn}", original)
                targets = [owner] if owner is not home else [
                    m for m in modules if getattr(m, attr, None) is original]
                for target in targets:
                    self._undo.append((target, attr, original))
                    setattr(target, attr, wrapped)
        return self.tracer

    def __exit__(self, *exc):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()
        return False
