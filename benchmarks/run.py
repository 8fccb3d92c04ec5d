"""Benchmark runner: one workload, one closed loop, metrics as JSON.

Run from the repository root:

    python3 benchmarks/run.py --workload moons-paper --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of an outside-in traced run (see README.md here). The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is ``{"detail": ...}`` with the environment record, the
tail percentile and its sample count, and any failure messages.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracer import SPANS, Instrumented, Tracer, span_names
from workloads import WORKLOADS, OpResult

PACKAGE = "copulashift"
MODULES = ("autodiff", "models", "divergences", "copula", "datasets",
           "training", "experiments", "cli")
# The autodiff spans that build graph nodes, for autodiff.ops_per_step.
GRAPH_OPS = tuple(f"autodiff.{fn}" for fn in SPANS["autodiff"] if fn != "backward")
# Untraced runs set the workload up this many times; setup_s is the median.
SETUPS = 3
# Share of a traced run's --seconds spent on its untraced reference ops.
UNTRACED_SHARE = 0.5

clock = time.perf_counter


# --- statistics -----------------------------------------------------------------

def tail_percentile(samples) -> tuple[int, float]:
    """The highest whole percentile with at least 10 samples above it.

    Nearest rank: percentile ``p`` of ``n`` sorted samples is the one at
    rank ``ceil(p * n / 100)``. Ten samples beyond it means rank <= n - 10,
    so ``p = floor(100 * (n - 10) / n)``. Below 11 samples no percentile
    qualifies and the minimum is returned as percentile 0.
    """
    xs = sorted(samples)
    n = len(xs)
    p = max(0, (100 * (n - 10)) // n)
    rank = max(1, math.ceil(p * n / 100))
    return p, xs[rank - 1]


@dataclass
class Outcome:
    """One attempted operation: its wall time and result, or why it failed."""

    i: int
    seconds: float
    result: OpResult | None
    error: str | None = None


def run_op(workload, pkg, state, i: int, seen: dict) -> Outcome:
    """Run operation ``i``; raising or failing a check marks it failed, never drops it."""
    t0 = clock()
    try:
        res = workload.op(pkg, state, i, clock)
    except Exception as exc:  # any failure of the package counts against it
        return Outcome(i, clock() - t0, None, f"op {i}: {type(exc).__name__}: {exc}")
    seconds = clock() - t0
    if seen.setdefault(workload.key(i), res.fingerprint) != res.fingerprint:
        return Outcome(i, seconds, None,
                       f"op {i}: output differs from an earlier run of the same inputs")
    return Outcome(i, seconds, res)


def measure(workload, pkg, state, seconds: float, seen: dict) -> list[Outcome]:
    """Closed loop for ``seconds``, extended to end on a whole cycle."""
    outcomes: list[Outcome] = []
    cycle = len(workload.cycle)
    start = clock()
    i = 0
    while True:
        outcomes.append(run_op(workload, pkg, state, i, seen))
        i += 1
        if i % cycle == 0 and clock() - start >= seconds:
            return outcomes


# --- set-up -----------------------------------------------------------------------

def fresh_import() -> SimpleNamespace:
    """Import the package from scratch, so each set-up pays the import."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}")
                              for m in MODULES})


def setup(workload, seed: int, workdir: Path, seen: dict):
    """Import, generate inputs and run one discarded warm-up operation."""
    t0 = clock()
    pkg = fresh_import()
    state = workload.setup(pkg, seed, workdir)
    warm = run_op(workload, pkg, state, 0, seen)
    return clock() - t0, pkg, state, warm


# --- environment record -------------------------------------------------------------

def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / PACKAGE).glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_record() -> dict:
    """The BLAS numpy was built against and the thread count it runs with."""
    rec = {"env": {k: os.environ.get(k) for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    rec["threads"] = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                rec.update(threads=fn(), library=Path(lib).name)
                return rec
    return rec


def environment(root: Path) -> dict:
    return {"git_sha": git_sha(root), "src_sha256": tree_sha256(root),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_record(), "cpu_count": os.cpu_count(),
            "platform": platform.platform(), "loadavg_start": os.getloadavg()}


# --- the two kinds of run -----------------------------------------------------------

def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seed: int, seconds: float, workdir: Path):
    seen: dict = {}
    setups = [setup(workload, seed, workdir, seen) for _ in range(SETUPS)]
    _, pkg, state, _ = setups[-1]
    ops = measure(workload, pkg, state, seconds, seen)
    attempted = [s[3] for s in setups] + ops
    checks = workload.check_run(attempted)
    times = [o.seconds for o in ops]
    done = [o.result for o in ops if o.error is None]
    tail_p, tail = tail_percentile(times)
    metrics = {
        "setup_s": metric(statistics.median(s[0] for s in setups), "s"),
        "op_s.p50": metric(statistics.median(times), "s"),
        "op_s.tail": metric(tail, "s"),
        # median of per-operation rates: one slow outlier cannot move it
        "samples_per_s": metric(statistics.median(r.rows / r.inner_s for r in done)
                                if done else 0.0, "rows/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                              / 1024.0, "MB"),
        "ok_frac": metric(1.0 - sum(o.error is not None for o in attempted)
                          / len(attempted), "ratio"),
    }
    detail = {"setup_s": [s[0] for s in setups], "ops": len(ops),
              "op_s.tail_percentile": tail_p, "op_s.n": len(times),
              "run_checks": checks}
    return attempted, metrics, detail


class StepOps:
    """Counts traced autodiff op calls up to the first optimizer step of each train()."""

    def __init__(self, pkg, tracer: Tracer):
        self.pkg, self.tracer = pkg, tracer
        self.counts: list[int] = []
        self._mark = None

    def _graph_ops(self) -> int:
        return sum(self.tracer.stats[n].calls for n in GRAPH_OPS)

    def __enter__(self):
        training = self.pkg.training
        self._train, self._step = training.train, training.Adam.step
        inner_train, inner_step = self._train, self._step

        def train(*args, **kwargs):
            self._mark = self._graph_ops()
            return inner_train(*args, **kwargs)

        def step(opt, *args, **kwargs):
            if self._mark is not None:
                self.counts.append(self._graph_ops() - self._mark)
                self._mark = None
            return inner_step(opt, *args, **kwargs)

        training.train, training.Adam.step = train, step
        return self

    def __exit__(self, *exc):
        self.pkg.training.train, self.pkg.training.Adam.step = self._train, self._step
        return False


def traced(workload, seed: int, seconds: float, workdir: Path):
    seen: dict = {}
    _, pkg, state, warm = setup(workload, seed, workdir, seen)
    plain = measure(workload, pkg, state, seconds * UNTRACED_SHARE, seen)
    tracer = Tracer()
    with Instrumented(tracer, PACKAGE), StepOps(pkg, tracer) as steps:
        ops = measure(workload, pkg, state, seconds * (1.0 - UNTRACED_SHARE), seen)
    attempted = [warm] + plain + ops
    checks = workload.check_run(attempted)
    n = len(ops)
    metrics = {}
    for name in span_names():
        s = tracer.stats[name]
        metrics[f"{name}.calls"] = metric(s.calls / n, "count/op")
        metrics[f"{name}.self_ms"] = metric(1e3 * s.self_s / n, "ms/op")
        metrics[f"{name}.errors"] = metric(s.errors / n, "count/op")
    done = [o.result for o in ops if o.error is None]
    epochs = sum(r.epochs_run for r in done)
    metrics["training.steps"] = metric(tracer.stats["training.Adam.step"].calls / n,
                                       "count/op")
    metrics["autodiff.ops_per_step"] = metric(
        statistics.fmean(steps.counts) if steps.counts else 0.0, "count/step")
    metrics["training.useful_epoch_frac"] = metric(
        sum(r.best_epoch for r in done) / epochs if epochs else 0.0, "ratio")
    cycle = len(workload.cycle)
    k = min(len(plain), n) // cycle * cycle
    overhead = (statistics.median(o.seconds for o in ops[:k])
                / statistics.median(o.seconds for o in plain[:k]) - 1.0)
    metrics["trace.overhead_frac"] = metric(overhead, "ratio")
    detail = {"ops": n, "untraced_ops": len(plain), "overhead_ops": k,
              "run_checks": checks}
    return attempted, metrics, detail


# --- entry point ---------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _terminate(signum, frame):
    # unwind normally so the work directory is removed
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = Path.cwd()
    if not (root / "src" / PACKAGE / "__init__.py").is_file():
        print(f"benchmark: run from the repository root; src/{PACKAGE} not found "
              f"under {root}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]
    env = environment(root)
    run = traced if args.trace else end_to_end
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=root) as tmp:
        attempted, metrics, detail = run(workload, args.seed, args.seconds, Path(tmp))
    env["loadavg_end"] = os.getloadavg()
    errors = [o.error for o in attempted if o.error is not None]
    print(json.dumps({"detail": {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "loop": "closed, 1 caller", "env": env, **detail,
        "errors": errors[:10]}}))
    print(json.dumps({"correct": not errors, "attempted": len(attempted),
                      "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
