"""Command-line surface: data generation, training, evaluation, shift
diagnostics, and benchmark-table reproduction.

Verbs:

* ``moons-gen``     write a stretched two-moons CSV
* ``train``         fit a model on source/target CSVs, write checkpoint + trace
* ``eval``          score a checkpoint against a labeled CSV
* ``shift-report``  per-feature marginal divergences and the copula distance
* ``reproduce``     run a benchmark table (table3|table6|table7|table8)
* ``fetch-wine``    download and verify the wine-quality CSVs

Every artifact embeds the fully resolved configuration and seed, so any
output can be regenerated from its own header. Exit status: 0 on success,
2 for bad usage/inputs/missing data, 3 when only part of a benchmark
completed (a ``.partial`` results file is written).
"""

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments as ex
from .copula import H2_TAGS
from .datasets import (Dataset, MinMaxStats, MoonsConfig, generate_moons,
                       load_delimited, read_header, write_dataset)
from .divergences import H1_TAGS
from .errors import ContractViolation
from .models import load_checkpoint, save_params
from .training import (METHODS, TrainConfig, evaluate_classification,
                       evaluate_regression, shift_report, train)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


# --- config plumbing --------------------------------------------------------


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}


def _resolve_config(args, **defaults) -> TrainConfig:
    """Layer the verb's defaults < the --config file < flags into one config.

    Flags store under their TrainConfig field names; ``--hidden``/``--task``
    under ``model``. A dict merges key by key over a dict below it.
    """
    data = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8-sig") as fh:
                data = json.load(fh)
        except ValueError as err:  # JSON's and UTF-8's decoding faults, named with the file
            raise ContractViolation(f"--config {args.config} is not JSON: {err!r}") from None
        if not isinstance(data, dict):
            raise ContractViolation(f"--config must hold a JSON object, got {data!r}")
    flags = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS and v is not None}
    model = {"task": args.task} if getattr(args, "task", None) else {}
    if getattr(args, "hidden", None):
        try:
            model["hidden"] = [int(t) for t in args.hidden.split(",") if t.strip()]
        except ValueError:
            raise ContractViolation(
                f"--hidden must be comma-separated integers, got {args.hidden!r}") from None
    if model:
        flags["model"] = model
    merged = {"model": {"hidden": list(TrainConfig().model.hidden)}}
    for name, value in [*defaults.items(), *data.items(), *flags.items()]:
        below = merged.get(name)
        both = isinstance(below, dict) and isinstance(value, dict)
        merged[name] = {**below, **value} if both else value
    return TrainConfig.from_dict(merged)


def _load_maybe_labeled(verb: str, path, delimiter: str, label_column: str) -> Dataset:
    """Load a CSV that has data rows, with ``label_column`` as the label if present."""
    column = label_column if label_column in read_header(path, delimiter) else None
    ds = load_delimited(path, delimiter=delimiter, label_column=column)
    if len(ds) == 0:
        raise ContractViolation(f"{verb}: {path} has no data rows")
    return ds


# --- verbs -------------------------------------------------------------------


def cmd_moons_gen(args) -> int:
    cfg = MoonsConfig(n_per_class=args.n, stretch=args.stretch,
                      noise_sigma=args.noise, seed=args.seed)
    ds = generate_moons(cfg)
    write_dataset(ds, args.out, header_note={"generator": "moons", **dataclasses.asdict(cfg)})
    _say(f"wrote {args.out} ({len(ds)} rows, stretch {cfg.stretch:g})")
    return EXIT_OK


def cmd_train(args) -> int:
    source = _load_maybe_labeled("train", args.source, args.delimiter, args.label_column)
    if source.labels is None:
        raise ContractViolation(
            f"train: {args.source} has no {args.label_column!r} column")
    target = _load_maybe_labeled("train", args.target, args.delimiter, args.label_column)
    if np.issubdtype(source.labels.dtype, np.integer):
        model = {"task": "classification",
                 "n_classes": max(2, int(source.labels.max()) + 1)}
    else:
        model = {"task": "regression"}
    config = _resolve_config(args, model=model)
    params, trace = train(source, target.unlabeled(), config)

    ckpt_path, trace_path = ex.out_paths(args.out, ".ckpt.json", ".trace.json")
    resolved = {"config": config.to_dict(), "source": str(args.source),
                "target": str(args.target)}
    save_params(params, ckpt_path, extra=resolved)
    ex.write_json({**resolved, "trace": [t.to_dict() for t in trace]}, trace_path)
    _say(f"wrote {ckpt_path} and {trace_path} "
         f"({len(trace)} epochs, final loss {trace[-1].loss:.6f})")
    return EXIT_OK


def cmd_eval(args) -> int:
    params, record = load_checkpoint(args.checkpoint)
    extra = record.get("extra", {})
    if not isinstance(extra, dict):
        raise ContractViolation(f"eval: {args.checkpoint} has a non-object 'extra' entry")
    ds = _load_maybe_labeled("eval", args.data, args.delimiter, args.label_column)
    if ds.labels is None:
        raise ContractViolation(
            f"eval: {args.data} has no {args.label_column!r} column to score against")
    if params.spec.task == "classification":
        m = evaluate_classification(params, ds)
    else:
        # Identity scaling: metrics are on the file's own label scale.
        m = evaluate_regression(params, ds, MinMaxStats())
    doc = {"task": params.spec.task, "checkpoint": str(args.checkpoint),
           "data": str(args.data), "n": len(ds), "metrics": dataclasses.asdict(m),
           "config": extra.get("config")}
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.out:
        ex.write_json(doc, args.out)
    return EXIT_OK


def cmd_shift_report(args) -> int:
    a = _load_maybe_labeled("shift-report", args.a, args.delimiter, args.label_column)
    b = _load_maybe_labeled("shift-report", args.b, args.delimiter, args.label_column)
    config = _resolve_config(args, beta=1.0)
    rep = shift_report(a, b, config.h1, config.h2, beta=config.beta,
                       tanh_a=config.tanh_a)
    doc = {**rep.to_dict(),
           "a": str(args.a), "b": str(args.b),
           "h1": config.h1.kind, "h2": config.h2.tag,
           "tanh_a": config.tanh_a, "beta": config.beta}
    print(json.dumps(doc, indent=2, sort_keys=True))

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["quantity", "value"])
    for name, md in zip(rep.feature_names, rep.md_per_feature):
        writer.writerow([f"md:{name}", repr(md)])
    if rep.cd is not None:
        writer.writerow(["cd", repr(rep.cd)])
    print(buf.getvalue(), end="")
    if args.out:
        json_path, csv_path = ex.out_paths(args.out, ".json", ".csv")
        ex.write_json(doc, json_path)
        csv_path.write_text(buf.getvalue(), encoding="utf-8")
        _say(f"wrote {json_path} and {csv_path}")
    return EXIT_OK


# table -> its runner in ``experiments``, looked up by name on each call so
# the module attribute stays patchable
_TABLES = {"table3": "run_moons_benchmark", "table6": "run_wine_benchmark",
           "table7": "run_wine_ablation", "table8": "run_wine_divergence_comparison"}


def cmd_reproduce(args) -> int:
    kwargs = {"progress": None if args.quiet else _say}
    if args.seeds is not None:  # else the runner's own default
        kwargs["n_seeds"] = args.seeds
    if args.table != "table3":  # the wine tables read the CSVs
        kwargs["data_dir"] = args.data_dir
    out_base = args.out if args.out else args.table
    try:
        table = getattr(ex, _TABLES[args.table])(**kwargs)
    except ex.ExperimentError as err:
        base = Path(str(out_base) + ".partial")
        md_path, json_path = ex.write_table(err.partial, base)
        _say(f"error: {err}")
        for f in err.failures:
            _say(f"  {f['row']}: {f['error']}")
        _say(f"partial results in {md_path} and {json_path}")
        return EXIT_PARTIAL
    md_path, json_path = ex.write_table(table, out_base)
    print(ex.render_markdown(table))
    _say(f"wrote {md_path} and {json_path}")
    return EXIT_OK


def cmd_fetch_wine(args) -> int:
    paths = ex.fetch_wine(args.data_dir, progress=_say)
    for p in paths:
        print(p)
    return EXIT_OK


# --- parser ------------------------------------------------------------------


def _add_io_flags(sp) -> None:
    sp.add_argument("--delimiter", default=",", help="CSV delimiter")
    sp.add_argument("--label-column", default="label",
                    help="column treated as the label when present")


def _add_divergence_flags(sp) -> None:
    """The config flags a shift report reads; ``train`` takes them too."""
    sp.add_argument("--config", help="JSON file of training-config fields; "
                    "command-line flags override it")
    sp.add_argument("--beta", type=float, help="dependence regularizer weight")
    sp.add_argument("--h1", choices=H1_TAGS, help="marginal divergence")
    sp.add_argument("--h2", choices=H2_TAGS, help="copula-pair divergence")
    sp.add_argument("--tanh-a", dest="tanh_a", type=float,
                    help="rank-correlation smoothing sharpness")


def _moons_gen_args(sp) -> None:
    sp.add_argument("--n", type=int, default=MoonsConfig.n_per_class, help="points per class")
    sp.add_argument("--stretch", type=float, default=MoonsConfig.stretch)
    sp.add_argument("--noise", type=float, default=MoonsConfig.noise_sigma)
    sp.add_argument("--seed", type=int, default=MoonsConfig.seed)
    sp.add_argument("--out", required=True)


def _train_args(sp) -> None:
    sp.add_argument("--source", required=True, help="labeled source CSV")
    sp.add_argument("--target", required=True,
                    help="target CSV (labels, if any, are ignored)")
    sp.add_argument("--out", default="model",
                    help="output base path for .ckpt.json and .trace.json")
    sp.add_argument("--hidden", help="comma-separated hidden sizes, e.g. 8,4")
    sp.add_argument("--task", choices=["classification", "regression"],
                    help="override the task inferred from the labels")
    _add_io_flags(sp)
    _add_divergence_flags(sp)
    sp.add_argument("--seed", type=int, help="training seed")
    sp.add_argument("--alpha", type=float, help="marginal regularizer weight")
    sp.add_argument("--lambda", dest="lambda_", type=float,
                    help="baseline (dan/coral) regularizer weight")
    sp.add_argument("--lr", dest="learning_rate", type=float, help="Adam learning rate")
    sp.add_argument("--epochs", dest="max_epochs", type=int, help="maximum epochs")
    sp.add_argument("--batch", dest="batch_size", type=int, help="batch size")
    sp.add_argument("--method", choices=METHODS, help="training objective")


def _eval_args(sp) -> None:
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", help="also write the report JSON here")
    _add_io_flags(sp)


def _shift_report_args(sp) -> None:
    sp.add_argument("a", help="first CSV (e.g. source)")
    sp.add_argument("b", help="second CSV (e.g. target)")
    sp.add_argument("--out", help="write .json and .csv reports to this base path")
    _add_io_flags(sp)
    _add_divergence_flags(sp)


def _reproduce_args(sp) -> None:
    sp.add_argument("table", choices=sorted(_TABLES))
    sp.add_argument("--seeds", type=int,
                    help="number of seeds (default depends on the table)")
    sp.add_argument("--data-dir", help="directory with the wine CSVs "
                    "(default $COPULASHIFT_DATA_DIR or ./data)")
    sp.add_argument("--out", help="output base path (default: the table name)")
    sp.add_argument("--quiet", action="store_true",
                    help="suppress per-run progress lines")


def _fetch_wine_args(sp) -> None:
    sp.add_argument("--data-dir", help="target directory "
                    "(default $COPULASHIFT_DATA_DIR or ./data)")


# (name, help, add-arguments, command) of every verb, in the order -h lists them
_VERBS = (
    ("moons-gen", "write a stretched two-moons CSV", _moons_gen_args, cmd_moons_gen),
    ("train", "fit a model on source/target CSVs", _train_args, cmd_train),
    ("eval", "score a checkpoint on a labeled CSV", _eval_args, cmd_eval),
    ("shift-report", "per-feature marginal divergences + copula distance",
     _shift_report_args, cmd_shift_report),
    ("reproduce", "run a benchmark table", _reproduce_args, cmd_reproduce),
    ("fetch-wine", "download and verify the wine-quality CSVs",
     _fetch_wine_args, cmd_fetch_wine),
)


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser; with ``verb``, only that verb gets its arguments.

    Every verb is registered either way, so the verb list, its help and the
    error for a missing or unknown verb are the same. Building the arguments
    of the one verb that runs spares the rest of their argparse set-up.
    """
    parser = argparse.ArgumentParser(
        prog="copulashift",
        description="Domain adaptation by marginal + dependence-structure "
                    "alignment: train, diagnose, and reproduce benchmarks.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, help_, add_arguments, command in _VERBS:
        sp = sub.add_parser(name, help=help_)
        if verb is None or verb == name:
            add_arguments(sp)
        sp.set_defaults(func=command)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    verb = argv[0] if argv and argv[0] in {v[0] for v in _VERBS} else None
    args = build_parser(verb).parse_args(argv)
    try:
        # overflow ends in train's non-finite-loss error or a saturated tanh: no warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ContractViolation, ex.MissingDataError, OSError) as err:
        _say(f"error: {err}")
        return EXIT_USAGE
    except FloatingPointError as err:  # a diverging run, or a shift report that overflowed
        _say(f"error: {err}")
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
