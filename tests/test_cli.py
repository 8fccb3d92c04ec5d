import argparse
import builtins
import codecs
import inspect
import io
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import copulashift.experiments as ex
from copulashift import cli
from copulashift.datasets import load_delimited


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def split_json_and_csv(stdout: str):
    """shift-report prints a JSON document followed by a small CSV."""
    lines = stdout.splitlines()
    k = lines.index("quantity,value")
    doc = json.loads("\n".join(lines[:k]))
    rows = [ln.split(",") for ln in lines[k + 1:] if ln]
    return doc, rows


def make_moons_csv(tmp_path, name, stretch, seed, n=40, noise=0.2):
    path = tmp_path / name
    assert run_cli("moons-gen", "--n", n, "--stretch", stretch, "--noise",
                   noise, "--seed", seed, "--out", path) == cli.EXIT_OK
    return path


def make_regression_csv(tmp_path, name, seed, n=24):
    rng = np.random.default_rng(seed)
    xy = rng.normal(size=(n, 2))
    y = 2.0 * xy[:, 0] + 0.1 * rng.normal(size=n)
    lines = ["x,y,label"] + [f"{a:.6f},{b:.6f},{c:.6f}" for (a, b), c in zip(xy, y)]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# a valid command line for each verb that sets every flag the verb has
_FULL_ARGV = {
    "moons-gen": ["--n", "8", "--stretch", "2", "--noise", "0.1", "--seed", "3",
                  "--out", "m.csv"],
    "train": ["--source", "s.csv", "--target", "t.csv", "--out", "m", "--hidden", "8,4",
              "--task", "regression", "--delimiter", ";", "--label-column", "q",
              "--config", "c.json", "--seed", "1", "--alpha", "0.1", "--beta", "0.2",
              "--lambda", "0.3", "--lr", "0.01", "--epochs", "5", "--batch", "64",
              "--h1", "kl", "--h2", "w2", "--tanh-a", "50", "--method", "coral"],
    "eval": ["--checkpoint", "m.ckpt.json", "--data", "d.csv", "--out", "r.json",
             "--delimiter", ";", "--label-column", "q"],
    "shift-report": ["a.csv", "b.csv", "--out", "r", "--delimiter", ";",
                     "--label-column", "q", "--h1", "mmd", "--h2", "chi2", "--beta", "2",
                     "--tanh-a", "7", "--config", "c.json"],
    "reproduce": ["table6", "--seeds", "2", "--data-dir", "data", "--out", "t", "--quiet"],
    "fetch-wine": ["--data-dir", "data"],
}
# the fewest arguments each verb takes: the rest come from defaults
_MIN_ARGV = {"moons-gen": ["--out", "m.csv"], "train": ["--source", "s", "--target", "t"],
             "eval": ["--checkpoint", "c", "--data", "d"], "shift-report": ["a", "b"],
             "reproduce": ["table3"], "fetch-wine": []}
_VERB_NAMES = [name for name, *_ in cli._VERBS]
# every config flag: (flag, a non-default value, its path in to_dict, the value there)
_CONFIG_FLAGS = [
    ("--beta", "0.2", ("beta",), 0.2), ("--h1", "kl", ("h1", "kind"), "kl"),
    ("--h2", "w2", ("h2", "tag"), "w2"), ("--tanh-a", "50", ("tanh_a",), 50.0),
    ("--seed", "1", ("seed",), 1), ("--alpha", "0.1", ("alpha",), 0.1),
    ("--lambda", "0.3", ("lambda_",), 0.3), ("--lr", "0.02", ("learning_rate",), 0.02),
    ("--epochs", "5", ("max_epochs",), 5), ("--batch", "64", ("batch_size",), 64),
    ("--method", "coral", ("method",), "coral"),
    ("--hidden", "6,3", ("model", "hidden"), [6, 3]),
    ("--task", "regression", ("model", "task"), "regression")]
_CONFIG_FLAGS_OF = {"train": _CONFIG_FLAGS, "shift-report": _CONFIG_FLAGS[:4]}
# a one-unit regression checkpoint on two inputs, as save_params writes it
_CKPT = {"format": "copulashift-params-v1", "input_dim": 2,
         "spec": {"hidden": [1], "task": "regression", "n_classes": None, "activation": "relu"},
         "layers": [{"w": [[1.0], [0.5]], "b": [[0.0]]}, {"w": [[1.0]], "b": [[0.0]]}]}


def parse_exit(parse, argv, capsys):
    """The exit code and (stdout, stderr) of a parse that ends the program."""
    with pytest.raises(SystemExit) as info:
        parse(argv)
    return info.value.code, capsys.readouterr()


class TestParser:
    def test_every_verb_has_command_lines(self):
        assert sorted(_FULL_ARGV) == sorted(_MIN_ARGV) == sorted(_VERB_NAMES)

    @pytest.mark.parametrize("verb", _VERB_NAMES)
    def test_verb_only_parser_parses_and_helps_as_the_full_one(self, verb, capsys):
        for argv in ([verb, *_FULL_ARGV[verb]], [verb, *_MIN_ARGV[verb]]):
            assert cli.build_parser(verb).parse_args(argv) == cli.build_parser().parse_args(argv)
        for argv in ([verb, "-h"], ["-h"]):
            alone = parse_exit(cli.build_parser(verb).parse_args, argv, capsys)
            assert alone == parse_exit(cli.build_parser().parse_args, argv, capsys)
            assert alone[0] == 0 and alone[1].out.startswith("usage: copulashift")

    @pytest.mark.parametrize("verb", sorted(_CONFIG_FLAGS_OF))
    def test_config_flag_table_lists_every_config_flag(self, verb):
        sp = argparse.ArgumentParser()
        {name: add for name, _, add, _ in cli._VERBS}[verb](sp)
        options = {o for action in sp._actions for o in action.option_strings}
        not_config = {"-h", "--help", "--source", "--target", "--out", "--delimiter",
                      "--label-column", "--config"}
        assert options - not_config == {flag for flag, *_ in _CONFIG_FLAGS_OF[verb]}

    @pytest.mark.parametrize("verb, flag, value, path, expected", [
        (verb, *row) for verb, rows in sorted(_CONFIG_FLAGS_OF.items()) for row in rows])
    def test_every_config_flag_reaches_its_field(self, verb, flag, value, path, expected):
        args = cli.build_parser(verb).parse_args([verb, *_MIN_ARGV[verb], flag, value])
        got = cli._resolve_config(args).to_dict()
        for key in path:
            got = got[key]
        assert got == expected

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--seed", "1"], ["Train"]])
    def test_missing_or_unknown_verb_is_one_usage_error(self, argv, capsys):
        outcomes = {parse_exit(cli.build_parser(verb).parse_args, argv, capsys)
                    for verb in [None, *_VERB_NAMES]}
        assert len(outcomes) == 1
        code, streams = outcomes.pop()
        assert code == cli.EXIT_USAGE and "error:" in streams.err
        assert parse_exit(cli.main, argv, capsys) == (code, streams)


class TestMoonsGen:
    def test_writes_csv_with_embedded_generator_note(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = run_cli("moons-gen", "--stretch", 3, "--n", 512, "--seed", 7,
                       "--out", out)
        assert code == cli.EXIT_OK
        lines = out.read_text().splitlines()
        notes = [ln for ln in lines if ln.startswith("#")]
        note = json.loads(notes[0].lstrip("# "))
        assert note["stretch"] == 3.0
        assert note["seed"] == 7
        ds = load_delimited(out, label_column="label")
        assert len(ds) == 1024
        assert set(np.unique(ds.labels)) == {0, 1}
        assert "wrote" in capsys.readouterr().err

    def test_bad_generator_args_exit_usage(self, tmp_path, capsys):
        code = run_cli("moons-gen", "--n", 0, "--out", tmp_path / "x.csv")
        assert code == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err


class TestTrainEval:
    def test_classification_round_trip(self, tmp_path, capsys):
        src = make_moons_csv(tmp_path, "src.csv", stretch=1, seed=1)
        tgt = make_moons_csv(tmp_path, "tgt.csv", stretch=3, seed=2)
        base = tmp_path / "model"
        code = run_cli("train", "--source", src, "--target", tgt,
                       "--epochs", 5, "--batch", 64, "--seed", 3,
                       "--out", base)
        assert code == cli.EXIT_OK
        trace_doc = json.loads((tmp_path / "model.trace.json").read_text())
        assert trace_doc["config"]["seed"] == 3
        assert trace_doc["config"]["max_epochs"] == 5
        assert trace_doc["config"]["model"]["task"] == "classification"
        assert len(trace_doc["trace"]) == 5
        capsys.readouterr()

        code = run_cli("eval", "--checkpoint", tmp_path / "model.ckpt.json",
                       "--data", tgt)
        assert code == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["task"] == "classification"
        assert 0.0 <= doc["metrics"]["accuracy"] <= 1.0
        assert doc["config"]["seed"] == 3  # checkpoint embeds its config

    def test_bom_csv_with_the_label_first_trains(self, tmp_path, capsys):
        # Excel's "CSV UTF-8" export starts the file with a byte-order mark
        paths = {}
        for name, stretch, seed in (("src.csv", 1, 1), ("tgt.csv", 3, 2)):
            rows = make_moons_csv(tmp_path, name, stretch, seed).read_text().splitlines()[1:]
            text = "".join(",".join([*cells[2:], *cells[:2]]) + "\n"
                           for cells in (row.split(",") for row in rows))
            assert text.startswith("label,x,y\n")
            paths[name] = tmp_path / f"bom-{name}"
            paths[name].write_bytes(codecs.BOM_UTF8 + text.encode())
            plain = load_delimited(tmp_path / name, label_column="label")
            ds = load_delimited(paths[name], label_column="label")
            assert ds.feature_names == plain.feature_names == ["x", "y"]
            np.testing.assert_array_equal(ds.labels, plain.labels)
            np.testing.assert_array_equal(ds.features, plain.features)
        code = run_cli("train", "--source", paths["src.csv"], "--target", paths["tgt.csv"],
                       "--epochs", 2, "--out", tmp_path / "m")
        assert code == cli.EXIT_OK, capsys.readouterr().err

    def test_regression_task_inferred_from_float_labels(self, tmp_path, capsys):
        src = make_regression_csv(tmp_path, "src.csv", seed=1)
        tgt = make_regression_csv(tmp_path, "tgt.csv", seed=2)
        base = tmp_path / "reg"
        code = run_cli("train", "--source", src, "--target", tgt,
                       "--epochs", 3, "--method", "mlp", "--out", base)
        assert code == cli.EXIT_OK
        trace_doc = json.loads((tmp_path / "reg.trace.json").read_text())
        assert trace_doc["config"]["model"]["task"] == "regression"
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", tmp_path / "reg.ckpt.json",
                       "--data", tgt, "--out", tmp_path / "scores.json")
        assert code == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["metrics"]) == {"rmse", "r2", "re"}
        assert json.loads((tmp_path / "scores.json").read_text()) == doc

    # a learning rate of 1e300 overflows the features on purpose; the MMD
    # methods take their bandwidth from those features
    @pytest.mark.parametrize("method", [["mlp"], ["cdan"], ["dan"], ["cdan", "--h1", "mmd"]],
                             ids=["mlp", "cdan", "dan", "cdan-h1-mmd"])
    def test_diverging_run_is_one_error_line(self, tmp_path, capsys, method):
        src = make_moons_csv(tmp_path, "src.csv", stretch=1, seed=1)
        tgt = make_moons_csv(tmp_path, "tgt.csv", stretch=3, seed=2)
        capsys.readouterr()
        code = run_cli("train", "--source", src, "--target", tgt, "--method", *method,
                       "--epochs", 5, "--batch", 64, "--seed", 3, "--lr", 1e300,
                       "--out", tmp_path / "m")
        assert code == cli.EXIT_FAILURE
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: train: non-finite loss at epoch \d+, batch \d+\n", err)
        assert not list(tmp_path.glob("m.*"))

    def test_flags_override_config_file(self, tmp_path):
        src = make_moons_csv(tmp_path, "src.csv", stretch=1, seed=1)
        tgt = make_moons_csv(tmp_path, "tgt.csv", stretch=3, seed=2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 5.0, "beta": 0.2, "max_epochs": 4}))
        base = tmp_path / "m"
        code = run_cli("train", "--source", src, "--target", tgt,
                       "--config", cfg, "--alpha", 7, "--out", base)
        assert code == cli.EXIT_OK
        conf = json.loads((tmp_path / "m.trace.json").read_text())["config"]
        assert conf["alpha"] == 7.0   # flag wins
        assert conf["beta"] == 0.2    # file survives where no flag given
        assert conf["max_epochs"] == 4

    def test_dotted_out_base_keeps_its_name(self, tmp_path, capsys):
        src = make_moons_csv(tmp_path, "src.csv", stretch=1, seed=1)
        for out, written in (("run.v2", "run.v2"), ("model.ckpt.json", "model")):
            assert run_cli("train", "--source", src, "--target", src, "--epochs", 1,
                           "--out", tmp_path / out) == cli.EXIT_OK
            for suffix in (".ckpt.json", ".trace.json"):
                assert (tmp_path / (written + suffix)).exists()
        assert sorted(p.name for p in tmp_path.glob("*.json")) == [
            "model.ckpt.json", "model.trace.json", "run.v2.ckpt.json", "run.v2.trace.json"]
        capsys.readouterr()

    def test_lambda_and_method_flags_reach_config(self, tmp_path):
        src = make_moons_csv(tmp_path, "src.csv", stretch=1, seed=1)
        tgt = make_moons_csv(tmp_path, "tgt.csv", stretch=3, seed=2)
        base = tmp_path / "dan"
        code = run_cli("train", "--source", src, "--target", tgt,
                       "--method", "dan", "--lambda", 0.5, "--epochs", 2,
                       "--out", base)
        assert code == cli.EXIT_OK
        conf = json.loads((tmp_path / "dan.trace.json").read_text())["config"]
        assert conf["method"] == "dan"
        assert conf["lambda_"] == 0.5

    def test_invalid_config_value_exits_usage(self, tmp_path, capsys):
        src = make_moons_csv(tmp_path, "src.csv", stretch=1, seed=1)
        tgt = make_moons_csv(tmp_path, "tgt.csv", stretch=3, seed=2)
        code = run_cli("train", "--source", src, "--target", tgt,
                       "--alpha", -1, "--out", tmp_path / "m")
        assert code == cli.EXIT_USAGE
        assert "alpha" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_epochs": 2.5}))
        code = run_cli("train", "--source", src, "--target", tgt,
                       "--config", cfg, "--out", tmp_path / "m")
        assert code == cli.EXIT_USAGE
        assert "max_epochs" in capsys.readouterr().err
        for data, name in (({"h1": {"bins": 4}}, "h1"),
                           ({"h1": {"kind": "kl", "bins": "x"}}, "bins"),
                           ({"h1": 5}, "h1"),
                           ({"h2": {}}, "h2"),
                           ({"model": {"hidden": [4, "a"]}}, "hidden"),
                           ({"model": {"hidden": [8, 4], "activaton": "tanh"}}, "activaton"),
                           ({"model": 5}, "model"),
                           ([1, 2], "JSON object")):
            cfg.write_text(json.dumps(data))
            code = run_cli("train", "--source", src, "--target", tgt,
                           "--config", cfg, "--out", tmp_path / "m")
            assert code == cli.EXIT_USAGE
            assert name in capsys.readouterr().err
        # a file that is not UTF-8 or not JSON is one error line naming it
        for raw in (b"\xff\xfe\x00{", b"", b"{not json"):
            cfg.write_bytes(raw)
            for argv in (["train", "--source", src, "--target", tgt, "--out", tmp_path / "m"],
                         ["shift-report", src, tgt]):
                assert run_cli(*argv, "--config", cfg) == cli.EXIT_USAGE
                err = capsys.readouterr().err
                assert err.startswith(f"error: --config {cfg} is not JSON: ")
                assert err.count("\n") == 1
        # a byte-order mark is read past, so the bad value is what is named
        cfg.write_bytes(codecs.BOM_UTF8 + json.dumps({"max_epochs": 2.5}).encode())
        code = run_cli("train", "--source", src, "--target", tgt,
                       "--config", cfg, "--out", tmp_path / "m")
        assert code == cli.EXIT_USAGE
        assert "max_epochs" in capsys.readouterr().err
        code = run_cli("train", "--source", src, "--target", tgt,
                       "--hidden", "4,a", "--out", tmp_path / "m")
        assert code == cli.EXIT_USAGE
        assert "--hidden" in capsys.readouterr().err

    def test_negative_seed_is_one_error_line(self, tmp_path, capsys):
        src = make_moons_csv(tmp_path, "src.csv", stretch=1, seed=1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        capsys.readouterr()
        for argv in (["--seed", -1], ["--config", cfg]):
            code = run_cli("train", "--source", src, "--target", src, *argv,
                           "--out", tmp_path / "m")
            assert code == cli.EXIT_USAGE
            assert capsys.readouterr().err == (
                "error: TrainConfig: seed must be an integer >= 0, got -1\n")
        assert not list(tmp_path.glob("m.*"))

    def test_unlabeled_source_exits_usage(self, tmp_path, capsys):
        bare = tmp_path / "bare.csv"
        bare.write_text("x,y\n0.0,1.0\n1.0,0.0\n")
        code = run_cli("train", "--source", bare, "--target", bare,
                       "--out", tmp_path / "m")
        assert code == cli.EXIT_USAGE
        assert "label" in capsys.readouterr().err

    def test_missing_checkpoint_exits_usage(self, tmp_path, capsys):
        tgt = make_moons_csv(tmp_path, "t.csv", stretch=1, seed=0)
        code = run_cli("eval", "--checkpoint", tmp_path / "absent.json",
                       "--data", tgt)
        assert code == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("record, message", [
        ([], "load_params: CKPT is not a checkpoint"),
        ({"format": _CKPT["format"]}, "load_params: CKPT is not a checkpoint"),
        ({**_CKPT, "layers": [{"w": [["x"], ["y"]], "b": [[0.0]]}, _CKPT["layers"][1]]},
         "load_params: CKPT is not a checkpoint"),
        ({**_CKPT, "extra": []}, "eval: CKPT has a non-object 'extra' entry"),
        ("not json", "load_params: CKPT is not a checkpoint: JSONDecodeError("),
    ], ids=["list", "format-only", "non-numeric-weight", "extra-not-object", "not-json"])
    def test_malformed_checkpoint_exits_usage(self, tmp_path, capsys, record, message):
        ckpt = tmp_path / "bad.ckpt.json"
        ckpt.write_text(record if isinstance(record, str) else json.dumps(record))
        tgt = make_regression_csv(tmp_path, "t.csv", seed=0)
        assert run_cli("eval", "--checkpoint", ckpt, "--data", tgt) == cli.EXIT_USAGE
        assert "error: " + message.replace("CKPT", str(ckpt)) in capsys.readouterr().err

    def test_eval_reads_the_checkpoint_once(self, tmp_path, monkeypatch, capsys):
        ckpt = tmp_path / "m.ckpt.json"
        ckpt.write_text(json.dumps({**_CKPT, "extra": {"config": {"seed": 4}}}))
        tgt = make_regression_csv(tmp_path, "t.csv", seed=0)
        opened, real_open = [], io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opened.append(os.fspath(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        assert run_cli("eval", "--checkpoint", ckpt, "--data", tgt) == cli.EXIT_OK
        assert opened.count(str(ckpt)) == 1
        assert json.loads(capsys.readouterr().out)["config"] == {"seed": 4}

    def test_malformed_config_file_exits_usage(self, tmp_path, capsys):
        src = make_moons_csv(tmp_path, "src.csv", stretch=1, seed=1)
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        code = run_cli("train", "--source", src, "--target", src,
                       "--config", broken, "--out", tmp_path / "m")
        assert code == cli.EXIT_USAGE
        capsys.readouterr()

    def test_header_only_csv_exits_usage(self, tmp_path, capsys):
        src = make_moons_csv(tmp_path, "src.csv", stretch=1, seed=1)
        empty = tmp_path / "empty.csv"
        empty.write_text("x,y,label\n")
        for source, target in ((empty, src), (src, empty)):
            code = run_cli("train", "--source", source, "--target", target,
                           "--out", tmp_path / "m")
            assert code == cli.EXIT_USAGE
            assert f"error: train: {empty} has no data rows" in capsys.readouterr().err

    def test_eval_on_header_only_csv_exits_usage(self, tmp_path, capsys):
        src = make_moons_csv(tmp_path, "src.csv", stretch=1, seed=1)
        empty = tmp_path / "empty.csv"
        empty.write_text("x,y,label\n")
        assert run_cli("train", "--source", src, "--target", src, "--epochs", 1,
                       "--out", tmp_path / "m") == cli.EXIT_OK
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", tmp_path / "m.ckpt.json", "--data", empty)
        assert code == cli.EXIT_USAGE
        assert f"error: eval: {empty} has no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("task, label", [("classification", "2"),
                                             ("classification", "nan"),
                                             ("regression", "nan")])
    def test_eval_on_labels_the_checkpoint_cannot_score_exits_usage(
            self, tmp_path, capsys, task, label):
        if task == "classification":
            data = make_moons_csv(tmp_path, "d.csv", stretch=1, seed=1)
            assert run_cli("train", "--source", data, "--target", data, "--epochs", 1,
                           "--out", tmp_path / "m") == cli.EXIT_OK
        else:
            data = make_regression_csv(tmp_path, "d.csv", seed=0)
            (tmp_path / "m.ckpt.json").write_text(json.dumps(_CKPT))
        lines = data.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + label
        data.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", tmp_path / "m.ckpt.json", "--data", data)
        out, err = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("error: evaluate_") and "labels" in err

    def test_unknown_method_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run_cli("train", "--source", "a", "--target", "b",
                    "--method", "svm")
        assert info.value.code == 2


class TestShiftReport:
    def test_identical_files_report_zero_shift(self, tmp_path, capsys):
        data = make_moons_csv(tmp_path, "a.csv", stretch=2, seed=5)
        code = run_cli("shift-report", data, data)
        assert code == cli.EXIT_OK
        doc, rows = split_json_and_csv(capsys.readouterr().out)
        assert doc["md_per_feature"] == [0.0, 0.0]
        assert doc["cd"] == 0.0
        assert [r[0] for r in rows] == ["md:x", "md:y", "cd"]
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_stretch_shift_and_weight_scaling(self, tmp_path, capsys):
        a = make_moons_csv(tmp_path, "a.csv", stretch=1, seed=5, n=150)
        b = make_moons_csv(tmp_path, "b.csv", stretch=4, seed=6, n=150)
        assert run_cli("shift-report", a, b, "--h2", "chi2") == cli.EXIT_OK
        doc1, _ = split_json_and_csv(capsys.readouterr().out)
        assert doc1["h2"] == "chi2"
        assert doc1["md_per_feature"][0] > doc1["md_per_feature"][1]
        assert run_cli("shift-report", a, b, "--h2", "chi2",
                       "--beta", 2.0) == cli.EXIT_OK
        doc2, _ = split_json_and_csv(capsys.readouterr().out)
        np.testing.assert_allclose(doc2["cd"], 2.0 * doc1["cd"], rtol=1e-12)

    def test_config_layers_under_flags(self, tmp_path, capsys):
        a = make_moons_csv(tmp_path, "a.csv", stretch=1, seed=5, n=150)
        b = make_moons_csv(tmp_path, "b.csv", stretch=4, seed=6, n=150)
        cfg = tmp_path / "cfg.json"

        def report(*argv):
            assert run_cli("shift-report", a, b, *argv) == cli.EXIT_OK
            return split_json_and_csv(capsys.readouterr().out)[0]

        plain = report()
        assert plain["beta"] == 1.0  # no file and no flag: the verb's default
        cfg.write_text(json.dumps({"beta": 2.5}))
        from_file = report("--config", cfg)
        assert from_file["beta"] == 2.5
        np.testing.assert_allclose(from_file["cd"], 2.5 * plain["cd"], rtol=1e-12)
        cfg.write_text(json.dumps({"beta": 2.5, "h1": "kl", "h2": "w2", "tanh_a": 7.0}))
        assert {k: report("--config", cfg)[k] for k in ("beta", "h1", "h2", "tanh_a")} == {
            "beta": 2.5, "h1": "kl", "h2": "w2", "tanh_a": 7.0}
        both = report("--config", cfg, "--beta", 0.5, "--h1", "mmd", "--h2", "chi2",
                      "--tanh-a", 50)
        assert {k: both[k] for k in ("beta", "h1", "h2", "tanh_a")} == {
            "beta": 0.5, "h1": "mmd", "h2": "chi2", "tanh_a": 50.0}
        assert both == report("--beta", 0.5, "--h1", "mmd", "--h2", "chi2", "--tanh-a", 50)

    def test_label_column_found_with_the_given_delimiter(self, tmp_path, capsys):
        data = tmp_path / "wine.csv"
        data.write_text("# note\nx;y;quality\n0.1;1.0;5\n0.4;0.2;6\n"
                        "0.9;0.5;5\n0.3;0.8;7\n")
        code = run_cli("shift-report", data, data, "--delimiter", ";",
                       "--label-column", "quality")
        assert code == cli.EXIT_OK
        _, rows = split_json_and_csv(capsys.readouterr().out)
        assert [r[0] for r in rows] == ["md:x", "md:y", "cd"]

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_bad_delimiter_exits_usage(self, tmp_path, capsys, delimiter):
        data = make_moons_csv(tmp_path, "a.csv", stretch=2, seed=5)
        code = run_cli("shift-report", data, data, "--delimiter", delimiter)
        assert code == cli.EXIT_USAGE
        assert f"delimiter {delimiter!r}" in capsys.readouterr().err

    def test_non_utf8_csv_exits_usage(self, tmp_path, capsys):
        data = make_moons_csv(tmp_path, "a.csv", stretch=2, seed=5)
        latin = tmp_path / "latin1.csv"
        latin.write_bytes(b"# caf\xe9\n" + data.read_bytes())
        code = run_cli("shift-report", data, latin)
        assert code == cli.EXIT_USAGE
        assert "latin1.csv is not UTF-8" in capsys.readouterr().err

    def test_header_only_csv_exits_usage(self, tmp_path, capsys):
        data = make_moons_csv(tmp_path, "a.csv", stretch=2, seed=5)
        empty = tmp_path / "empty.csv"
        empty.write_text("x,y,label\n")
        code = run_cli("shift-report", data, empty)
        assert code == cli.EXIT_USAGE
        assert f"error: shift-report: {empty} has no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "1"), ("--alpha", "0.1"), ("--lambda", "0.3"), ("--lr", "0.01"),
        ("--epochs", "5"), ("--batch", "64"), ("--method", "coral")])
    def test_training_only_flags_exit_usage(self, flag, value, capsys):
        code, streams = parse_exit(cli.main, ["shift-report", "a", "b", flag, value], capsys)
        assert code == cli.EXIT_USAGE
        assert f"unrecognized arguments: {flag} {value}" in streams.err

    def test_out_writes_json_and_csv(self, tmp_path, capsys):
        data = make_moons_csv(tmp_path, "a.csv", stretch=2, seed=5)
        base = tmp_path / "report.csv"
        assert run_cli("shift-report", data, data, "--out", base) == cli.EXIT_OK
        written = json.loads((tmp_path / "report.json").read_text())
        doc, _ = split_json_and_csv(capsys.readouterr().out)
        assert written == doc
        csv_text = (tmp_path / "report.csv").read_text()
        assert csv_text.startswith("quantity,value")

    def test_dotted_out_base_keeps_its_name(self, tmp_path, capsys):
        data = make_moons_csv(tmp_path, "a.csv", stretch=2, seed=5)
        assert run_cli("shift-report", data, data, "--out", tmp_path / "rep.v2") == cli.EXIT_OK
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.glob("rep*")) == ["rep.v2.csv", "rep.v2.json"]


def canned_table():
    rows = [{"label": "CDAN", "cells": {"2x": {"mean": 95.0, "std": 1.0}}}]
    return ex.ExperimentTable("method", ["2x"], rows, meta={"digits": 2},
                              reports={"CDAN": {"per_seed": {"2x": [95.0]}}})


def runner_default_seeds(runner: str) -> int:
    return inspect.signature(getattr(ex, runner)).parameters["n_seeds"].default


class TestReproduce:
    def test_success_writes_table_files(self, tmp_path, monkeypatch, capsys):
        seen = {}

        def fake(n_seeds, progress=None):
            seen["n_seeds"] = n_seeds
            return canned_table()

        monkeypatch.setattr(ex, "run_moons_benchmark", fake)
        out = tmp_path / "t3"
        code = run_cli("reproduce", "table3", "--seeds", 2, "--quiet",
                       "--out", out)
        assert code == cli.EXIT_OK
        assert seen["n_seeds"] == 2
        assert "| CDAN | 95.00 ± 1.00 |" in capsys.readouterr().out
        assert (tmp_path / "t3.md").exists()
        loaded = json.loads((tmp_path / "t3.json").read_text())
        assert loaded == canned_table().to_dict()

    def test_default_seed_count_per_table(self, tmp_path, monkeypatch):
        assert runner_default_seeds("run_moons_benchmark") == ex.DEFAULT_MOONS_SEEDS
        seen = {}

        def fake(**kwargs):
            seen.update(kwargs)
            return canned_table()

        monkeypatch.setattr(ex, "run_moons_benchmark", fake)
        monkeypatch.chdir(tmp_path)
        assert run_cli("reproduce", "table3", "--quiet") == cli.EXIT_OK
        assert seen == {"progress": None}  # no n_seeds: the runner's default holds
        assert Path("table3.md").exists()

    @pytest.mark.parametrize("seeds", [0, -1])
    def test_no_seeds_exits_usage_and_writes_nothing(self, tmp_path, capsys, seeds):
        code = run_cli("reproduce", "table3", "--seeds", seeds, "--quiet",
                       "--out", tmp_path / "t3")
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: n_seeds must be an integer >= 1, got {seeds}\n"
        assert not list(tmp_path.iterdir())

    def test_partial_failure_exits_3_with_partial_files(self, tmp_path,
                                                        monkeypatch, capsys):
        failures = [{"row": "DAN", "error": "RuntimeError: boom"}]

        def fake(progress=None):
            raise ex.ExperimentError(canned_table(), failures)

        monkeypatch.setattr(ex, "run_moons_benchmark", fake)
        out = tmp_path / "t3"
        code = run_cli("reproduce", "table3", "--quiet", "--out", out)
        assert code == cli.EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "DAN" in err and "boom" in err
        assert (tmp_path / "t3.partial.md").exists()
        partial = json.loads((tmp_path / "t3.partial.json").read_text())
        assert [r["label"] for r in partial["rows"]] == ["CDAN"]

    @pytest.mark.parametrize("table, runner, seeds", [
        ("table6", "run_wine_benchmark", ex.DEFAULT_WINE_SEEDS),
        ("table7", "run_wine_ablation", ex.DEFAULT_WINE_SEEDS),
        ("table8", "run_wine_divergence_comparison", ex.DEFAULT_COMPARISON_SEEDS)])
    def test_wine_tables_dispatch_with_data_dir(self, tmp_path, monkeypatch,
                                                table, runner, seeds):
        assert runner_default_seeds(runner) == seeds
        seen = {}

        def fake(data_dir, progress=None):
            seen.update(data_dir=data_dir)
            return canned_table()

        monkeypatch.setattr(ex, runner, fake)
        code = run_cli("reproduce", table, "--quiet", "--data-dir", tmp_path,
                       "--out", tmp_path / table)
        assert code == cli.EXIT_OK
        assert seen == {"data_dir": str(tmp_path)}

    def test_wine_table_without_data_exits_usage(self, tmp_path, capsys):
        code = run_cli("reproduce", "table6", "--quiet",
                       "--data-dir", tmp_path, "--out", tmp_path / "t6")
        assert code == cli.EXIT_USAGE
        assert "fetch-wine" in capsys.readouterr().err


class TestFetchWine:
    def test_prints_fetched_paths(self, tmp_path, monkeypatch, capsys):
        paths = [tmp_path / "winequality-red.csv",
                 tmp_path / "winequality-white.csv"]
        monkeypatch.setattr(ex, "fetch_wine",
                            lambda data_dir, progress=None: paths)
        code = run_cli("fetch-wine", "--data-dir", tmp_path)
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out == [str(p) for p in paths]

    def test_unreachable_mirror_exits_usage(self, tmp_path, monkeypatch, capsys):
        def refuse(data_dir, progress=None):
            raise ex.MissingDataError("could not download http://x: offline")

        monkeypatch.setattr(ex, "fetch_wine", refuse)
        code = run_cli("fetch-wine", "--data-dir", tmp_path)
        assert code == cli.EXIT_USAGE
        assert "offline" in capsys.readouterr().err
