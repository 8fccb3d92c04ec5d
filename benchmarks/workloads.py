"""The benchmark workloads: inputs, one operation, and its output checks.

Every workload is a closed loop with one caller: operation ``i`` starts when
operation ``i - 1`` has returned. The workload seed picks the data draws and
the synthetic CSV contents; the package only ever sees the generated inputs.
Operations cycle through ``Workload.cycle``; the runner always stops on a
whole cycle, so every run has the same mix of cells.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Table-3 stretch used by every moons workload (the paper's 3x column).
STRETCH = 3.0

# Criterion 2 accepts the 10-seed CDAN mean at 3x within 2.5 points of
# 94.42%. A run holds 10+ cells of each method, so each method's median
# accuracy over the run must clear the band's lower edge. The median, not
# every cell: about 1% of draws train into dead ReLU features and score 50%
# (7 of 900 cells in a 300-draw scan), and those cells are counted in the
# result detail rather than failed one by one.
ACCURACY_FLOOR = (94.42 - 2.5) / 100.0

# UCI wine-quality shapes: white 4898 rows, red 1599 rows, 11 features
# plus an integer "quality" label, ';'-delimited.
WINE_ROWS = (4898, 1599)
WINE_FEATURES = 11

# Draw seeds derived from one workload seed; far more than a run's cycles.
DRAWS = 4096


class CheckFailed(Exception):
    """An operation returned, but its output broke the workload's check."""


@dataclass(frozen=True)
class TrainCell:
    """One table-3-style cell: moons draw + ``train`` + ``evaluate_classification``."""

    method: str
    overrides: tuple = ()  # TrainConfig fields layered over the moons config
    full_protocol: bool = True  # uncapped epochs: the accuracy floor applies

    @property
    def label(self) -> str:
        extra = ",".join(f"{k}={v}" for k, v in self.overrides)
        return self.method + (f"[{extra}]" if extra else "")


@dataclass
class OpResult:
    """What one operation produced, for checks and throughput accounting."""

    fingerprint: bytes  # compared bit for bit across repeats of one cell
    inner_s: float  # wall time inside the timed package call (train or cli.main)
    rows: int  # rows processed: epochs run x training rows, or CSV rows
    epochs_run: int = 0
    best_epoch: int = 0
    accuracy: float | None = None


@dataclass
class Workload:
    name: str
    cycle: tuple  # the cells one cycle of operations runs, in order

    def key(self, i: int):
        """Operations with equal keys run the same inputs and must agree bit for bit."""
        return i % (len(self.cycle) * DRAWS)

    def check_run(self, outcomes) -> dict:
        """Checks over a whole run; marks failing outcomes and returns a summary."""
        return {}


def _fingerprint(arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays)


@dataclass
class TrainWorkload(Workload):
    """Moons cells; every cell of cycle ``k`` uses the ``k``-th derived draw seed."""

    def setup(self, pkg, seed: int, workdir: Path) -> dict:
        rng = random.Random(seed)
        return {"draws": [rng.randrange(2 ** 31) for _ in range(DRAWS)]}

    def op(self, pkg, state: dict, i: int, clock) -> OpResult:
        cell = self.cycle[i % len(self.cycle)]
        draws = state["draws"]
        s = draws[(i // len(self.cycle)) % len(draws)]
        src, tgt = pkg.experiments.moons_pair(STRETCH, s)
        cfg = pkg.training.TrainConfig.from_dict(
            {"seed": s, **dict(cell.overrides)},
            base=pkg.experiments.moons_config(cell.method))
        t0 = clock()
        params, trace = pkg.training.train(src, tgt.unlabeled(), cfg)
        inner = clock() - t0
        metrics = pkg.training.evaluate_classification(params, tgt)
        self.check(cell, params, trace, metrics)
        vals = [t.val for t in trace]
        best = 1 + vals.index(min(vals))
        # the trainer holds out round(10%) of the source; an odd batch loses a row
        train_rows = len(src) - max(1, round(cfg.holdout_fraction * len(src)))
        return OpResult(_fingerprint(params.flat_arrays()), inner,
                        len(trace) * (train_rows - train_rows % 2),
                        epochs_run=len(trace), best_epoch=best,
                        accuracy=metrics.accuracy)

    @staticmethod
    def check(cell: TrainCell, params, trace, metrics) -> None:
        for entry in trace:
            values = (entry.loss, entry.md, entry.cd, entry.val)
            if not all(v is not None and math.isfinite(v) for v in values):
                raise CheckFailed(f"{cell.label}: non-finite trace entry {entry}")
        if not all(np.all(np.isfinite(a)) for a in params.flat_arrays()):
            raise CheckFailed(f"{cell.label}: non-finite parameters")
        if not 0.0 <= metrics.accuracy <= 1.0 or not 0.0 <= metrics.auc <= 1.0:
            raise CheckFailed(f"{cell.label}: metrics out of range {metrics}")

    def check_run(self, outcomes) -> dict:
        """Each full-protocol cell's median accuracy must clear ACCURACY_FLOOR."""
        summary = {}
        for pos, cell in enumerate(self.cycle):
            if not cell.full_protocol:
                continue
            mine = [o for o in outcomes if o.i % len(self.cycle) == pos]
            accs = [o.result.accuracy for o in mine if o.result is not None]
            median = statistics.median(accs) if accs else None
            summary[cell.label] = {"n": len(accs), "median_accuracy": median,
                                   "below_floor": sum(a < ACCURACY_FLOOR for a in accs)}
            if median is None or median >= ACCURACY_FLOOR:
                continue
            for o in mine:
                if o.error is None:
                    o.error = (f"op {o.i}: {cell.label} median accuracy {median:.4f} "
                               f"of the run is below {ACCURACY_FLOOR:.4f}")
        return summary


def write_wine_like(path: Path, rows: int, rng: np.random.Generator) -> None:
    """A ';'-delimited CSV with the UCI wine header shape and correlated columns."""
    mix = rng.normal(size=(WINE_FEATURES, WINE_FEATURES)) * 0.4 + np.eye(WINE_FEATURES)
    scale = rng.uniform(0.05, 40.0, size=WINE_FEATURES)
    feats = np.abs(rng.normal(size=(rows, WINE_FEATURES)) @ mix) * scale
    quality = np.clip(np.rint(5.8 + 0.9 * rng.normal(size=rows)), 3, 9)
    header = [f"f{k}" for k in range(WINE_FEATURES)] + ["quality"]
    lines = [";".join(header)]
    lines += [";".join([*(f"{v:.6g}" for v in row), str(int(q))])
              for row, q in zip(feats, quality)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class ShiftReportWorkload(Workload):
    """In-process ``copulashift shift-report`` on two wine-shaped CSVs."""

    def key(self, i: int):
        return 0

    def setup(self, pkg, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        paths = [workdir / "white.csv", workdir / "red.csv"]
        for path, rows in zip(paths, WINE_ROWS):
            write_wine_like(path, rows, rng)
        argv = ["shift-report", str(paths[0]), str(paths[1]),
                "--delimiter", ";", "--label-column", "quality"]
        return {"argv": argv}

    def op(self, pkg, state: dict, i: int, clock) -> OpResult:
        buf = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(buf):
            code = pkg.cli.main(state["argv"])
        inner = clock() - t0
        text = buf.getvalue()
        if code != 0:
            raise CheckFailed(f"shift-report exited {code}")
        self.check(text)
        return OpResult(text.encode(), inner, sum(WINE_ROWS))

    @staticmethod
    def check(text: str) -> None:
        try:
            doc, _ = json.JSONDecoder().raw_decode(text)
        except json.JSONDecodeError as err:
            raise CheckFailed(f"shift-report JSON does not parse: {err}") from None
        md, cd = doc.get("md_per_feature"), doc.get("cd")
        if not isinstance(md, list) or len(md) != WINE_FEATURES:
            raise CheckFailed(f"shift-report: expected {WINE_FEATURES} md values")
        if not all(isinstance(v, float) and math.isfinite(v) and v >= 0.0 for v in md):
            raise CheckFailed(f"shift-report: md values not finite and >= 0: {md}")
        if not isinstance(cd, float) or not math.isfinite(cd) or cd < 0.0:
            raise CheckFailed(f"shift-report: cd not finite and >= 0: {cd}")


def _cell(method: str, full: bool = True, **overrides) -> TrainCell:
    return TrainCell(method, tuple(sorted(overrides.items())), full)


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    # table3 cells at 3x on one draw per cycle: m=4, full batch, early stop.
    # cdan leads because set-up warms up on the first cell, and cdan runs
    # close to all 100 epochs on every draw, so setup_s hardly depends on
    # the seed.
    TrainWorkload("moons-paper", (_cell("cdan"), _cell("coral"), _cell("mlp"))),
    # the dense n x n kernel-MMD path. dan gets two epochs and cdan --h1 mmd
    # one, so both cells cost about the same and op times stay unimodal.
    # Page-fault bound and unsteady between runs, so not in BENCHMARK.json.
    TrainWorkload("moons-mmd", (_cell("dan", False, max_epochs=2),
                                _cell("cdan", False, max_epochs=1, h1="mmd"))),
    # m=64, so 2016 copula pairs; batch 256 gives 4 steps per epoch
    TrainWorkload("wide-cdan", (_cell("cdan", False, max_epochs=2, batch_size=256,
                                      model={"hidden": [32, 64]}),)),
    ShiftReportWorkload("shift-report", ("shift-report",)),
)}
