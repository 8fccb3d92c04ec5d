"""Print the SHA-256 of trained parameters and traces for fixed training cells.

Run from the root of a checkout:

    python tests/fingerprint_cells.py > fingerprints.json

It imports the package from this checkout's ``src``, trains each cell below
at seeds 0 and 5, and prints one JSON object mapping ``<cell>@<seed>`` to
``{"params": ..., "trace": ..., "scores": ...}``: the SHA-256 of the trained
parameter bytes (float64, in ``flat_arrays`` order, C order), of the JSON
list of ``TraceEntry.to_dict()``, and of the float64 bytes of what scoring
makes of the trained model: for a classification cell the target's accuracy
and AUC (``evaluate_classification``) and ``learned_shift``'s MD and CD, for
the regression cell its predictions on the target. Two checkouts that print
the same object train and score these cells bit for bit alike. It takes
about ten seconds.

    python tests/fingerprint_cells.py --golden > tests/golden.json

writes the record ``tests/test_golden.py`` holds the package to: the same
fingerprints for ``GOLDEN_CELLS`` (the cells above, with the two kernel-MMD
cells at one epoch and seed 0 to keep the test short, and ``cdan`` with the
``w2`` and ``mmd`` copula forms at ten epochs), the floats of every
cell that trains at most ``FLOAT_EPOCHS`` epochs, and the key of the numpy
build they were made with. Regenerate it only for a change that moves bits
on purpose, and name every changed cell.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from copulashift import training  # noqa: E402
from copulashift.datasets import Dataset  # noqa: E402
from copulashift.experiments import MOONS_N_PER_CLASS, moons_config, moons_pair  # noqa: E402
from copulashift.models import predict_regression  # noqa: E402

SEEDS = (0, 5)


def moons(method, seed, n_per_class=MOONS_N_PER_CLASS, **overrides):
    src, tgt = moons_pair(3.0, seed, n_per_class)
    cfg = training.TrainConfig.from_dict({"seed": seed, **overrides},
                                         base=moons_config(method))
    params, trace = training.train(src, tgt.unlabeled(), cfg)
    metrics = training.evaluate_classification(params, tgt)
    return params, trace, [metrics.accuracy, metrics.auc,
                           *training.learned_shift(params, src, tgt, cfg)]


def regression(method, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(90, 3))
    src = Dataset(x, np.tanh(x[:, 0]) + 0.1 * x[:, 1])
    tgt = Dataset(rng.normal(0.4, 1.2, size=(70, 3)), None)
    cfg = training.TrainConfig.from_dict({
        "seed": seed, "method": method, "max_epochs": 12, "batch_size": 32,
        "model": {"hidden": [5, 3], "task": "regression", "activation": "tanh"}})
    params, trace = training.train(src, tgt, cfg)
    return params, trace, predict_regression(tgt.features, params)


CELLS = {
    # the table-3 protocol: moons at 3x, full batch, early stopping
    "mlp": lambda seed: moons("mlp", seed),
    "coral": lambda seed: moons("coral", seed),
    "cdan": lambda seed: moons("cdan", seed),
    # the kernel-MMD paths, capped at three epochs
    "dan-3ep": lambda seed: moons("dan", seed, max_epochs=3),
    "cdan-h1-mmd-3ep": lambda seed: moons("cdan", seed, max_epochs=3, h1="mmd"),
    "cdan-kl-chi2": lambda seed: moons("cdan", seed, max_epochs=20, h1="kl", h2="chi2"),
    "wide-cdan": lambda seed: moons("cdan", seed, n_per_class=500, max_epochs=2,
                                    batch_size=256, model={"hidden": [32, 64]}),
    "cdan-tanh": lambda seed: moons("cdan", seed, max_epochs=15,
                                    model={"hidden": [6, 3], "activation": "tanh"}),
    "regression-coral": lambda seed: regression("coral", seed),
}


# name -> (run, seeds) of the cells the golden record keeps
GOLDEN_CELLS = {
    **{name: (run, SEEDS) for name, run in CELLS.items() if not name.endswith("-3ep")},
    "dan-1ep": (lambda seed: moons("dan", seed, max_epochs=1), (0,)),
    "cdan-h1-mmd-1ep": (lambda seed: moons("cdan", seed, max_epochs=1, h1="mmd"), (0,)),
    # the H2 forms the copula backward serves beyond the kl and chi2 cells
    "cdan-h2-w2-10ep": (lambda seed: moons("cdan", seed, max_epochs=10, h2="w2"), SEEDS),
    "cdan-h2-mmd-10ep": (lambda seed: moons("cdan", seed, max_epochs=10, h2="mmd"), SEEDS),
}
# a cell this short also keeps its trace and score floats, for a numpy build
# with another key to compare within 1e-9; longer runs compound rounding
FLOAT_EPOCHS = 3


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(params, trace, scores) -> dict:
    arrays = b"".join(np.ascontiguousarray(a, dtype=np.float64).tobytes()
                      for a in params.flat_arrays())
    entries = json.dumps([t.to_dict() for t in trace], sort_keys=True)
    return {"params": sha256(arrays), "trace": sha256(entries.encode()),
            "scores": sha256(np.asarray(scores, dtype=np.float64).tobytes())}


def build_key() -> dict:
    """The numpy version, its BLAS and the CPU features it dispatches to."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "cpu_features": [*simd["baseline"], *simd["found"]]}


def golden_cell(params, trace, scores) -> dict:
    """A cell's fingerprint, plus its trace and score floats if it is short."""
    record = fingerprint(params, trace, scores)
    if len(trace) <= FLOAT_EPOCHS:
        record["floats"] = [*(v for t in trace for v in (t.loss, t.md, t.cd, t.val)),
                            *np.asarray(scores, dtype=np.float64).tolist()]
    return record


def golden() -> dict:
    return {"key": build_key(),
            "cells": {f"{name}@{seed}": golden_cell(*run(seed))
                      for name, (run, seeds) in GOLDEN_CELLS.items() for seed in seeds}}


def main() -> None:
    if sys.argv[1:] == ["--golden"]:
        print(json.dumps(golden(), indent=2))
        return
    out = {f"{name}@{seed}": fingerprint(*run(seed))
           for name, run in CELLS.items() for seed in SEEDS}
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
