"""Seeded experiment protocols behind the benchmark tables.

Two benchmark families live here:

* stretched two-moons classification (source moons vs. x-stretched target
  moons, methods compared by target accuracy), and
* wine-quality regression transfer (white->red and red->white, methods
  compared by target RMSE / R2 / RE).

Every protocol constant (noise level, seed offsets, epoch budget, grids)
is frozen in this module so the command line, the tests, and interactive
use all reproduce the same numbers. Each ``run_*`` function returns an
ExperimentTable carrying per-cell aggregates plus the per-seed values,
renderable as Markdown or JSON.

The wine files are not bundled; ``fetch_wine`` downloads them into the
data directory (``COPULASHIFT_DATA_DIR`` or ``./data``) and records a
checksum sidecar that later loads verify.
"""

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .copula import H2_TAGS
from .datasets import (Dataset, MoonsConfig, generate_moons, load_delimited,
                       minmax_normalize)
from .divergences import H1_TAGS
from .errors import ContractViolation, is_int
from .models import LayerSpec
from .training import (TrainConfig, evaluate_classification, mean_std,
                       run_experiment, train)

# --- frozen protocol constants -------------------------------------------

MOONS_NOISE = 0.2
MOONS_N_PER_CLASS = 512
MOONS_STRETCHES = (2.0, 3.0, 4.0, 5.0)
# Per-seed data draws: run seed s trains on moons seeded 1000+s (source)
# and 2000+s (target) so no two runs share a sample.
MOONS_SOURCE_SEED = 1000
MOONS_TARGET_SEED = 2000
DEFAULT_MOONS_SEEDS = 10

WINE_FEATURES = 11
WINE_FILES = {"white": ("winequality-white.csv", 4898),
              "red": ("winequality-red.csv", 1599)}
WINE_BASE_URL = ("https://archive.ics.uci.edu/ml/machine-learning-databases/"
                 "wine-quality/")
DEFAULT_WINE_SEEDS = 20
# (alpha, beta) grid for the ablation table.
ABLATION_GRID = ((0.0, 0.0), (0.0, 0.1), (0.0, 1.0), (0.0, 10.0),
                 (0.1, 0.0), (1.0, 0.0), (10.0, 0.0), (1.0, 1.0))
# H1 x H2 grid for the divergence-comparison table (every H2 but mmd).
COMPARISON_GRID = tuple((h1, h2) for h1 in H1_TAGS for h2 in H2_TAGS if h2 != "mmd")
# The MMD rows of the comparison grid cost ~30x the others, so the
# comparison table defaults to fewer seeds than the headline tables.
DEFAULT_COMPARISON_SEEDS = 3

METHOD_LABELS = {"mlp": "MLP", "coral": "CORAL", "dan": "DAN", "cdan": "CDAN"}


def moons_config(method: str = "cdan") -> TrainConfig:
    """Training configuration for the two-moons benchmark."""
    return TrainConfig(method=method)


def wine_config(method: str = "cdan", alpha: float = 1.0,
                beta: float = 1.0) -> TrainConfig:
    """Training configuration for the wine-quality transfer benchmark."""
    return TrainConfig(method=method, alpha=alpha, beta=beta,
                       batch_size=256,
                       model=LayerSpec(hidden=(8, 8), task="regression"))


def moons_pair(stretch: float, seed: int,
               n_per_class: int = MOONS_N_PER_CLASS) -> tuple[Dataset, Dataset]:
    """Source/target draw for one benchmark run.

    The source is the unit-scale moons; the target has its x axis
    stretched by ``stretch``. Both use noise MOONS_NOISE.
    """
    src = generate_moons(MoonsConfig(n_per_class, 1.0, MOONS_NOISE, MOONS_SOURCE_SEED + seed))
    tgt = generate_moons(MoonsConfig(n_per_class, stretch, MOONS_NOISE,
                                     MOONS_TARGET_SEED + seed))
    return src, tgt


# --- result container ------------------------------------------------------


class ExperimentError(RuntimeError):
    """Some benchmark rows failed; carries the surviving partial table.

    ``partial`` holds every row that completed, ``failures`` a list of
    {"row", "error"} records for the ones that did not.
    """

    def __init__(self, partial: "ExperimentTable", failures: list):
        self.partial = partial
        self.failures = failures
        names = ", ".join(f["row"] for f in failures)
        super().__init__(f"{len(failures)} benchmark row(s) failed: {names}")


@dataclass
class ExperimentTable:
    """Aggregated benchmark results in row/column form.

    ``rows`` is a list of {"label": str, "cells": {column: {"mean", "std"}}}.
    ``reports`` keeps the per-seed values keyed by row label so nothing is
    lost in aggregation; ``meta`` records the protocol (seeds, constants).
    """

    name: str
    columns: list
    rows: list
    meta: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)

    to_dict = asdict

    def cell(self, label: str, column: str) -> dict:
        for row in self.rows:
            if row["label"] == label:
                return row["cells"][column]
        raise KeyError(f"no row labelled {label!r} in table {self.name}")


def render_markdown(table: ExperimentTable, digits: int | None = None) -> str:
    """Pipe-delimited Markdown with mean ± std cells."""
    if digits is None:
        digits = int(table.meta.get("digits", 2))
    head = "| " + " | ".join([table.name] + list(table.columns)) + " |"
    rule = "| " + " | ".join(["---"] * (len(table.columns) + 1)) + " |"
    lines = [head, rule]
    for row in table.rows:
        cells = []
        for col in table.columns:
            c = row["cells"][col]
            cells.append(f"{c['mean']:.{digits}f} ± {c['std']:.{digits}f}")
        lines.append("| " + " | ".join([row["label"]] + cells) + " |")
    return "\n".join(lines)


def _seed_range(n_seeds) -> range:
    """The seeds 0..n_seeds-1 of a table, at least one of them."""
    if not is_int(n_seeds) or n_seeds < 1:
        raise ContractViolation(f"n_seeds must be an integer >= 1, got {n_seeds!r}")
    return range(n_seeds)


def _finish(name, columns, rows, meta, reports, failures) -> ExperimentTable:
    """Assemble a table; raise ExperimentError (with the partial) on failures."""
    if failures:
        meta = dict(meta, failures=failures)
    table = ExperimentTable(name, columns, rows, meta, reports)
    if failures:
        raise ExperimentError(table, failures)
    return table


# --- two-moons benchmark ---------------------------------------------------


def run_moons_benchmark(methods=("mlp", "coral", "dan", "cdan"),
                        stretches=MOONS_STRETCHES,
                        n_seeds: int = DEFAULT_MOONS_SEEDS,
                        progress=None) -> ExperimentTable:
    """Target accuracy (percent, mean ± std) per method and stretch.

    Each (method, stretch, seed) run trains on a fresh source draw and
    adapts to an unlabeled fresh target draw; accuracy is transductive
    (scored on the full target set).
    """
    seeds = _seed_range(n_seeds)
    columns = [f"{s:g}x" for s in stretches]
    rows, reports, failures = [], {}, []
    for method in methods:
        label = METHOD_LABELS.get(method, method)
        try:
            cells, per_seed = {}, {}
            for stretch, col in zip(stretches, columns):
                accs = []
                for s in seeds:
                    src, tgt = moons_pair(stretch, s)
                    cfg = replace(moons_config(method), seed=s)
                    params, _ = train(src, tgt.unlabeled(), cfg)
                    acc = evaluate_classification(params, tgt).accuracy * 100.0
                    accs.append(acc)
                    if progress is not None:
                        progress(f"moons {method} stretch={stretch:g} seed={s} "
                                 f"acc={acc:.2f}")
                cells[col] = mean_std(accs)
                per_seed[col] = accs
        except Exception as exc:  # record-and-continue: one bad row keeps its siblings
            failures.append({"row": label, "error": f"{type(exc).__name__}: {exc}"})
            continue
        rows.append({"label": label, "cells": cells})
        reports[label] = {"per_seed": per_seed,
                          "config": moons_config(method).to_dict()}
    meta = {"seeds": list(seeds), "noise": MOONS_NOISE,
            "n_per_class": MOONS_N_PER_CLASS, "digits": 2,
            "source_seed_offset": MOONS_SOURCE_SEED,
            "target_seed_offset": MOONS_TARGET_SEED,
            "metric": "target accuracy (%)"}
    return _finish("method", columns, rows, meta, reports, failures)


# --- wine data handling ----------------------------------------------------


class MissingDataError(RuntimeError):
    """A required data file is absent or fails verification."""


def wine_data_dir(override=None) -> Path:
    """Directory holding the wine CSVs (flag > env var > ./data)."""
    if override is not None:
        return Path(override)
    return Path(os.environ.get("COPULASHIFT_DATA_DIR", "data"))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def load_wine(color: str, data_dir=None) -> Dataset:
    """Load one wine-quality CSV, verifying shape and recorded checksum.

    Raises MissingDataError with the fetch instructions when the file is
    absent, truncated, or does not match the checksum recorded at fetch
    time.
    """
    if color not in WINE_FILES:
        raise ContractViolation(f"wine color must be red or white, got {color!r}")
    name, expected_rows = WINE_FILES[color]
    directory = wine_data_dir(data_dir)
    path = directory / name
    if not path.exists():
        raise MissingDataError(
            f"{path} not found. Run `copulashift fetch-wine` (downloads from "
            f"{WINE_BASE_URL}) or place the file there by hand; set "
            f"COPULASHIFT_DATA_DIR to use a different directory.")
    sidecar = path.with_suffix(path.suffix + ".sha256")
    if sidecar.exists():
        recorded = sidecar.read_text(encoding="utf-8").split()[0]
        actual = _sha256(path)
        if actual != recorded:
            raise MissingDataError(
                f"{path} does not match its recorded checksum ({actual[:12]}… "
                f"vs {recorded[:12]}…); the file changed since it was "
                f"fetched. Re-run `copulashift fetch-wine`.")
    ds = load_delimited(path, delimiter=";", label_column="quality")
    if ds.dim != WINE_FEATURES or len(ds) != expected_rows:
        raise MissingDataError(
            f"{path} parsed to {len(ds)} rows x {ds.dim} features; expected "
            f"{expected_rows} x {WINE_FEATURES}. The file looks wrong or "
            f"truncated — re-run `copulashift fetch-wine`.")
    return ds


def fetch_wine(data_dir=None, progress=None) -> list:
    """Download both wine-quality CSVs and record checksum sidecars.

    Files that already exist and verify are left alone. Returns the list
    of file paths. Network failures raise MissingDataError naming the URL
    so offline users can fetch by other means.
    """
    directory = wine_data_dir(data_dir)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for color, (name, _) in sorted(WINE_FILES.items()):
        path = directory / name
        sidecar = path.with_suffix(path.suffix + ".sha256")
        if path.exists() and sidecar.exists():
            try:
                load_wine(color, directory)
                if progress is not None:
                    progress(f"{path} already present and verified")
                paths.append(path)
                continue
            except MissingDataError:
                pass  # fall through and re-download
        url = WINE_BASE_URL + name
        if progress is not None:
            progress(f"downloading {url}")
        # imported here: urllib.request pulls in http, email, ssl and socket,
        # which would otherwise cost every `import copulashift` about 30 ms
        import urllib.error
        import urllib.request
        try:
            with urllib.request.urlopen(url, timeout=60) as resp:
                body = resp.read()
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            raise MissingDataError(
                f"could not download {url}: {exc}. If this machine has no "
                f"network access, download the file elsewhere and copy it to "
                f"{path} (then re-run fetch-wine to record its checksum).") from exc
        path.write_bytes(body)
        sidecar.write_text(_sha256(path) + "  " + name + "\n", encoding="utf-8")
        load_wine(color, directory)  # structural verification
        if progress is not None:
            progress(f"wrote {path} ({len(body)} bytes)")
        paths.append(path)
    return paths


DIRECTIONS = (("white_to_red", "W->R", "white", "red"),
              ("red_to_white", "R->W", "red", "white"))


def wine_transfer_pairs(data_dir=None) -> dict:
    """Normalized (source, target, stats) per transfer direction.

    Scaling is fit on the source domain only (features and quality
    labels) and applied to both domains, mirroring the protocol where
    target labels are unseen at training time.
    """
    raw = {c: load_wine(c, data_dir) for c in ("white", "red")}
    out = {}
    for key, _, src_color, tgt_color in DIRECTIONS:
        src = raw[src_color]
        (nsrc, ntgt), stats = minmax_normalize(src, src, raw[tgt_color], scale_labels=True)
        out[key] = (nsrc, ntgt, stats)
    return out


def _run_wine_table(name, rows, metrics, meta, n_seeds, data_dir,
                    progress) -> ExperimentTable:
    """Train every (label, config) row in both transfer directions.

    A row that raises is recorded in the failures and the remaining rows
    still run; ``_finish`` then raises ExperimentError with the partial.
    """
    seeds = _seed_range(n_seeds)
    pairs = wine_transfer_pairs(data_dir)
    columns = [f"{disp} {m.upper()}" for _, disp, _, _ in DIRECTIONS for m in metrics]
    table_rows, reports, failures = [], {}, []
    for label, cfg in rows:
        try:
            by_dir = {}
            for key, _, _, _ in DIRECTIONS:
                nsrc, ntgt, stats = pairs[key]
                rep = run_experiment(f"wine {key}", nsrc, ntgt, cfg, seeds, stats=stats)
                by_dir[key] = rep
                if progress is not None:
                    agg = rep.aggregate
                    progress(f"wine {key} {cfg.method} alpha={cfg.alpha:g} "
                             f"beta={cfg.beta:g} h1={cfg.h1.kind} h2={cfg.h2.tag} "
                             f"rmse={agg['rmse']['mean']:.3f} r2={agg['r2']['mean']:.3f}")
        except Exception as exc:  # record-and-continue: one bad row keeps its siblings
            failures.append({"row": label, "error": f"{type(exc).__name__}: {exc}"})
            continue
        values = [dict(by_dir[key].aggregate[m]) for key, _, _, _ in DIRECTIONS
                  for m in metrics]
        table_rows.append({"label": label, "cells": dict(zip(columns, values))})
        reports[label] = {key: rep.to_dict() for key, rep in by_dir.items()}
    meta = dict(meta, seeds=list(seeds), digits=3)
    return _finish(name, columns, table_rows, meta, reports, failures)


def run_wine_benchmark(methods=("mlp", "dan", "coral", "cdan"),
                       n_seeds: int = DEFAULT_WINE_SEEDS,
                       data_dir=None, progress=None) -> ExperimentTable:
    """Both transfer directions for each method: RMSE / R2 / RE over seeds.

    RMSE and R2 are computed on the normalized label scale, RE on the
    original quality scale.
    """
    rows = [(METHOD_LABELS.get(m, m), wine_config(m)) for m in methods]
    meta = {"metric_scale": "rmse/r2 on normalized labels, re on raw quality"}
    return _run_wine_table("method", rows, ("rmse", "r2", "re"), meta,
                           n_seeds, data_dir, progress)


def run_wine_ablation(grid=ABLATION_GRID, n_seeds: int = DEFAULT_WINE_SEEDS,
                      data_dir=None, progress=None) -> ExperimentTable:
    """Regularizer weight sweep: one row per (alpha, beta) pair.

    alpha scales the per-dimension marginal term, beta the dependence
    term; (0, 0) degenerates to the unregularized network.
    """
    rows = [(f"alpha={alpha:g}, beta={beta:g}",
             wine_config("cdan", alpha=alpha, beta=beta)) for alpha, beta in grid]
    return _run_wine_table("weights", rows, ("rmse", "r2"),
                           {"grid": [list(g) for g in grid]},
                           n_seeds, data_dir, progress)


def run_wine_divergence_comparison(grid=COMPARISON_GRID,
                                   n_seeds: int = DEFAULT_COMPARISON_SEEDS,
                                   data_dir=None, progress=None) -> ExperimentTable:
    """Marginal (H1) x dependence (H2) divergence sweep on the wine task.

    Exploratory, trend-level numbers: the MMD marginal rows dominate the
    runtime, hence the smaller default seed count.
    """
    rows = [(f"H1={h1}, H2={h2}",
             TrainConfig.from_dict({"h1": h1, "h2": h2}, base=wine_config("cdan")))
            for h1, h2 in grid]
    return _run_wine_table("divergences", rows, ("rmse", "r2"),
                           {"grid": [list(g) for g in grid]},
                           n_seeds, data_dir, progress)


def out_paths(out_path, *suffixes: str) -> list[Path]:
    """``out_path`` less any trailing parts of ``suffixes``, plus each suffix.

    Only the verb's own suffixes are stripped, and each new one is appended
    (not set by with_suffix), so dotted bases like "run.v2" or "t.partial"
    keep their names.
    """
    own = {"." + part for s in suffixes for part in s.split(".") if part}
    base = Path(out_path)
    while base.suffix in own:
        base = base.with_suffix("")
    return [base.with_name(base.name + s) for s in suffixes]


def write_table(table: ExperimentTable, out_path) -> tuple[Path, Path]:
    """Write <out>.md and <out>.json for a finished table."""
    md_path, json_path = out_paths(out_path, ".md", ".json")
    md_path.write_text(render_markdown(table) + "\n", encoding="utf-8")
    json_path.write_text(json.dumps(table.to_dict(), indent=2, sort_keys=True)
                         + "\n", encoding="utf-8")
    return md_path, json_path
