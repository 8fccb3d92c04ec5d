"""The CLI boundary as a property: no ``--config`` ends ``train`` or ``shift-report``
in a traceback.

``cli.main`` runs in process on tiny CSVs. Every numeric field of the
config is drawn from bools, huge integers, signed zeros, 1e308, the JSON
``NaN``/``Infinity`` literals and values at and past the field's bounds.
Only fields whose bound fires before any allocation get huge sizes, and
``max_epochs`` stays at 2 or below, so no example asks for more than a
few MB or a few epochs.
"""

import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from copulashift import cli
from copulashift.copula import H2_TAGS
from copulashift.datasets import MAX_N_PER_CLASS
from copulashift.divergences import H1_TAGS, MAX_BINS
from copulashift.models import MAX_WIDTH
from copulashift.training import METHODS

ODD = [True, False, -0.0, -1, 1e308, -1e308, math.nan, math.inf, -math.inf, "1", None]
HUGE = [10 ** 20, 10 ** 400]
TINY = math.nextafter(0.0, 1.0)


def _field(inside, outside):
    """Mostly a value at or just inside a bound, else one past it or an odd one."""
    return st.one_of(*[st.sampled_from(inside)] * 4, st.sampled_from(outside + ODD))


# field -> (values at or inside its bounds, values past them)
FIELDS = {
    **{name: ([0.0, TINY, 0.5], [-TINY]) for name in ("alpha", "beta", "lambda_")},
    "learning_rate": ([TINY, 0.01], [0.0]),
    "tanh_a": ([TINY, 100.0], [0.0]),
    "holdout_fraction": ([0.0, 0.1, math.nextafter(1.0, 0.0)], [-TINY, 1.0]),
    "max_epochs": ([1, 2], [0, 2.0]),
    "batch_size": ([2, 16, *HUGE], [0, 3]),
    "seed": ([0, 1, *HUGE], [-1]),
}
BINS = ([2, 3, MAX_BINS], [1, MAX_BINS + 1, *HUGE])
BANDWIDTH = ([sys.float_info.min, 1.0, 1e308], [0.0, TINY])
WIDTH = ([1, 2, MAX_WIDTH], [0, MAX_WIDTH + 1, *HUGE])
N_CLASSES = ([2, MAX_WIDTH], [1, MAX_WIDTH + 1, *HUGE])


@st.composite
def configs(draw, verb):
    """A --config object: a random subset of the fields the verb reads."""
    names = ["beta", "tanh_a"] if verb == "shift-report" else list(FIELDS)
    cfg = {name: draw(_field(*FIELDS[name]))
           for name in draw(st.lists(st.sampled_from(names), unique=True, max_size=3))}
    h1 = {"kind": draw(st.sampled_from(H1_TAGS))}
    if draw(st.booleans()):
        h1["bins"] = draw(_field(*BINS))
    if draw(st.booleans()) and (h1["kind"] == "mmd" or draw(st.booleans())):
        h1["bandwidths"] = draw(st.lists(_field(*BANDWIDTH), max_size=2))
    cfg["h1"] = h1
    cfg["h2"] = draw(st.sampled_from(H2_TAGS))
    if verb == "train":
        cfg["method"] = draw(st.sampled_from(METHODS))
        if draw(st.booleans()):
            cfg["model"] = {"hidden": draw(st.lists(_field(*WIDTH), min_size=1, max_size=2))}
            if draw(st.booleans()):
                cfg["model"]["n_classes"] = draw(_field(*N_CLASSES))
        cfg.setdefault("max_epochs", 2)
        cfg["early_stop_patience"] = 1
    return cfg


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundary")
    rng = np.random.default_rng(0)
    for name in ("source.csv", "target.csv"):
        x = rng.normal(size=(20, 3))
        lines = ["a,b,c,label"] + [f"{r[0]!r},{r[1]!r},{r[2]!r},{k % 2}"
                                   for k, r in enumerate(x.tolist())]
        (root / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return root


def _main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _refuse_constant(name):
    raise AssertionError(f"non-finite number {name} written")


def _check_exit(code, err, artifacts):
    assert code in (cli.EXIT_OK, cli.EXIT_FAILURE, cli.EXIT_USAGE)
    if code != cli.EXIT_OK:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return
    for text in artifacts():
        json.loads(text, parse_constant=_refuse_constant)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=configs("train"))
def test_train_config_ends_in_an_exit_code(workdir, cfg):
    (workdir / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    out = workdir / "model"
    for stale in workdir.glob("model.*"):
        stale.unlink()
    code, _, err = _main("train", "--source", workdir / "source.csv",
                         "--target", workdir / "target.csv",
                         "--config", workdir / "cfg.json", "--out", out)
    _check_exit(code, err, lambda: [p.read_text(encoding="utf-8")
                                    for p in sorted(workdir.glob("model.*"))])


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(cfg=configs("shift-report"))
def test_shift_report_config_ends_in_an_exit_code(workdir, cfg):
    (workdir / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    code, stdout, err = _main("shift-report", workdir / "source.csv", workdir / "target.csv",
                              "--config", workdir / "cfg.json")
    _check_exit(code, err, lambda: [stdout[:stdout.index("quantity,value")]])
    assert code != cli.EXIT_OK or err == ""


def test_huge_bins_exit_usage_with_one_error_line(workdir):
    (workdir / "bins.json").write_text('{"h1": {"kind": "kl", "bins": 100000000000000000000}}')
    for argv in (["shift-report", workdir / "source.csv", workdir / "target.csv"],
                 ["train", "--source", workdir / "source.csv",
                  "--target", workdir / "target.csv", "--out", workdir / "huge"]):
        code, _, err = _main(*argv, "--config", workdir / "bins.json")
        assert code == cli.EXIT_USAGE
        assert err == ("error: DivergenceKind: bins must be an integer >= 2 and <= 1048576, "
                       "got 100000000000000000000\n")


def test_subnormal_bandwidth_exits_usage_with_one_error_line(workdir):
    # its kernel factor -1/b is -inf: shift-report named only "mul", and train said non-finite loss
    (workdir / "bw.json").write_text('{"h1": {"kind": "mmd", "bandwidths": [5e-324]}}')
    for argv in (["shift-report", workdir / "source.csv", workdir / "target.csv"],
                 ["train", "--source", workdir / "source.csv",
                  "--target", workdir / "target.csv", "--out", workdir / "subnormal"]):
        code, out, err = _main(*argv, "--config", workdir / "bw.json")
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == ("error: DivergenceKind: bandwidths[0] must be a finite number "
                       ">= 2.2250738585072014e-308, got 5e-324\n")
    assert not list(workdir.glob("subnormal*"))


@pytest.mark.parametrize("n", [MAX_N_PER_CLASS + 1, 10 ** 12])
def test_moons_gen_past_the_point_cap_exits_usage_before_generating(tmp_path, monkeypatch, n):
    def refuse(cfg):
        raise AssertionError(f"generate_moons called with {cfg}")

    monkeypatch.setattr(cli, "generate_moons", refuse)
    code, out, err = _main("moons-gen", "--n", n, "--out", tmp_path / "moons.csv")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == (f"error: MoonsConfig: n_per_class must be an integer >= 1 and "
                   f"<= {MAX_N_PER_CLASS}, got {n}\n")
    assert not (tmp_path / "moons.csv").exists()


@pytest.mark.parametrize("csv_scale, flags", [(1e300, []), (1.0, ["--tanh-a", "1e308"])])
def test_shift_report_overflow_is_silent(workdir, csv_scale, flags):
    # the copula's products overflow to inf; tanh saturates them to +-1
    rng = np.random.default_rng(1)
    path = workdir / "scaled.csv"
    rows = rng.normal(size=(24, 3)) * csv_scale
    path.write_text("a,b,c\n" + "".join(f"{r[0]!r},{r[1]!r},{r[2]!r}\n" for r in rows.tolist()),
                    encoding="utf-8")
    code, stdout, err = _main("shift-report", path, workdir / "target.csv", *flags)
    assert (code, err) == (cli.EXIT_OK, "")
    assert math.isfinite(json.loads(stdout[:stdout.index("quantity,value")])["cd"])
