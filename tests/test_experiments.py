import csv
import io
import json
import urllib.error
from pathlib import Path

import numpy as np
import pytest

import copulashift.experiments as ex
from copulashift.datasets import Dataset
from copulashift.errors import ContractViolation
from copulashift.training import mean_std

WINE_NAMES = ["fixed acidity", "volatile acidity", "citric acid",
              "residual sugar", "chlorides", "free sulfur dioxide",
              "total sulfur dioxide", "density", "pH", "sulphates", "alcohol"]


def wine_csv_bytes(n_rows: int, seed: int = 0) -> bytes:
    """A structurally valid wine-quality CSV: 11 features + quality, ';'."""
    rng = np.random.default_rng(seed)
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=";", quoting=csv.QUOTE_NONNUMERIC)
    writer.writerow(WINE_NAMES + ["quality"])
    feats = np.round(rng.uniform(0.1, 10.0, size=(n_rows, 11)), 3)
    quality = rng.integers(3, 9, size=n_rows)
    for row, q in zip(feats, quality):
        writer.writerow(list(row) + [int(q)])
    return buf.getvalue().encode("utf-8")


def small_domain(n, seed, dim=4):
    rng = np.random.default_rng(seed)
    return Dataset(features=rng.normal(size=(n, dim)),
                   labels=rng.uniform(size=n),
                   feature_names=tuple(f"f{i}" for i in range(dim)))


class TestProtocolConfigs:
    def test_moons_pair_shapes_and_domains(self):
        src, tgt = ex.moons_pair(stretch=3.0, seed=4)
        assert len(src) == 2 * ex.MOONS_N_PER_CLASS
        assert len(tgt) == 2 * ex.MOONS_N_PER_CLASS
        assert src.dim == tgt.dim == 2

    def test_moons_pair_seeding(self):
        a_src, a_tgt = ex.moons_pair(2.0, seed=1)
        b_src, b_tgt = ex.moons_pair(2.0, seed=1)
        c_src, _ = ex.moons_pair(2.0, seed=2)
        np.testing.assert_array_equal(a_src.features, b_src.features)
        np.testing.assert_array_equal(a_tgt.features, b_tgt.features)
        assert not np.array_equal(a_src.features, c_src.features)

    @pytest.mark.parametrize("stretch", ["x", None, True,
                                         pytest.param(10 ** 400, id="10**400")])
    def test_moons_pair_names_a_bad_stretch(self, stretch):
        # "x" raised a bare ValueError, None a TypeError, and True read as 1.0
        with pytest.raises(ContractViolation, match="stretch"):
            ex.moons_pair(stretch, seed=0, n_per_class=5)

    def test_integer_stretch_draws_as_float(self):
        _, a = ex.moons_pair(3, seed=0, n_per_class=20)
        _, b = ex.moons_pair(3.0, seed=0, n_per_class=20)
        assert a.features.tobytes() == b.features.tobytes()

    def test_target_stretch_widens_x(self):
        # stretch scales the clean arcs before the (unscaled) noise is
        # added, so the x spread grows almost exactly with the ratio.
        _, tgt2 = ex.moons_pair(2.0, seed=0)
        _, tgt5 = ex.moons_pair(5.0, seed=0)
        ratio = np.std(tgt5.features[:, 0]) / np.std(tgt2.features[:, 0])
        assert 2.3 < ratio < 2.6

    def test_wine_config_protocol(self):
        cfg = ex.wine_config("cdan")
        assert cfg.model.task == "regression"
        assert cfg.model.hidden == (8, 8)
        assert cfg.batch_size == 256
        assert cfg.alpha == 1.0 and cfg.beta == 1.0

    def test_moons_config_protocol(self):
        cfg = ex.moons_config("mlp")
        assert cfg.method == "mlp"
        assert cfg.model.task == "classification"


class TestExperimentTable:
    @staticmethod
    def _table():
        rows = [{"label": "A", "cells": {"c1": {"mean": 1.0, "std": 0.25}}},
                {"label": "B", "cells": {"c1": {"mean": 2.5, "std": 0.0}}}]
        return ex.ExperimentTable("thing", ["c1"], rows, meta={"digits": 2})

    def test_cell_lookup(self):
        t = self._table()
        assert t.cell("B", "c1") == {"mean": 2.5, "std": 0.0}
        with pytest.raises(KeyError, match="no row labelled"):
            t.cell("C", "c1")

    def test_render_markdown_golden(self):
        got = ex.render_markdown(self._table())
        assert got == ("| thing | c1 |\n"
                       "| --- | --- |\n"
                       "| A | 1.00 ± 0.25 |\n"
                       "| B | 2.50 ± 0.00 |")

    def test_render_digits_override(self):
        table = self._table()
        table.meta["digits"] = 1
        got = ex.render_markdown(table)
        assert "| A | 1.0 ± 0.2 |" in got

    def test_to_dict_serializes(self):
        json.dumps(self._table().to_dict())

    def test_write_table_strips_suffix(self, tmp_path):
        md, js = ex.write_table(self._table(), tmp_path / "out.md")
        assert md == tmp_path / "out.md"
        assert js == tmp_path / "out.json"
        loaded = json.loads(js.read_text())
        assert loaded == self._table().to_dict()
        assert md.read_text().startswith("| thing | c1 |")

    @pytest.mark.parametrize("out, base", [
        ("run", "run"), ("run.v2", "run.v2"), ("t.partial", "t.partial"),
        ("model.ckpt.json", "model"), ("model.trace", "model"), ("model.json", "model"),
        ("run.v2.ckpt.json", "run.v2"), ("d/x.md", "d/x.md")])
    def test_out_paths_strip_only_own_suffixes(self, out, base):
        assert ex.out_paths(out, ".ckpt.json", ".trace.json") == [
            Path(base + ".ckpt.json"), Path(base + ".trace.json")]

    def test_aggregate_helper(self):
        agg = mean_std([1.0, 2.0, 3.0])
        np.testing.assert_allclose(agg["mean"], 2.0)
        np.testing.assert_allclose(agg["std"], 1.0)
        assert mean_std([5.0])["std"] == 0.0


class TestMoonsBenchmark:
    def test_tiny_run_structure(self):
        lines = []
        table = ex.run_moons_benchmark(methods=("mlp",), stretches=(2.0,),
                                       n_seeds=2, progress=lines.append)
        assert table.columns == ["2x"]
        assert [r["label"] for r in table.rows] == ["MLP"]
        cell = table.cell("MLP", "2x")
        assert 50.0 <= cell["mean"] <= 100.0
        assert len(table.reports["MLP"]["per_seed"]["2x"]) == 2
        assert table.meta["seeds"] == [0, 1]
        assert len(lines) == 2
        json.dumps(table.to_dict())

    def test_bad_method_yields_partial_table(self):
        with pytest.raises(ex.ExperimentError, match="nosuch") as info:
            ex.run_moons_benchmark(methods=("mlp", "nosuch"),
                                   stretches=(2.0,), n_seeds=1)
        err = info.value
        assert [r["label"] for r in err.partial.rows] == ["MLP"]
        assert err.failures[0]["row"] == "nosuch"
        assert "ContractViolation" in err.failures[0]["error"]
        assert err.partial.meta["failures"] == err.failures


class TestWineLoading:
    def test_missing_file_names_the_fetch_command(self, tmp_path):
        with pytest.raises(ex.MissingDataError, match="fetch-wine"):
            ex.load_wine("red", tmp_path)

    def test_bad_color_rejected(self, tmp_path):
        with pytest.raises(ContractViolation, match="color"):
            ex.load_wine("rose", tmp_path)

    def test_structural_mismatch_detected(self, tmp_path):
        (tmp_path / "winequality-red.csv").write_bytes(wine_csv_bytes(5))
        with pytest.raises(ex.MissingDataError, match="1599"):
            ex.load_wine("red", tmp_path)

    def test_loads_structurally_valid_file(self, tmp_path, monkeypatch):
        monkeypatch.setitem(ex.WINE_FILES, "red", ("winequality-red.csv", 25))
        (tmp_path / "winequality-red.csv").write_bytes(wine_csv_bytes(25))
        ds = ex.load_wine("red", tmp_path)
        assert len(ds) == 25
        assert ds.dim == ex.WINE_FEATURES
        assert np.issubdtype(ds.labels.dtype, np.integer)

    def test_checksum_sidecar_detects_tampering(self, tmp_path, monkeypatch):
        monkeypatch.setitem(ex.WINE_FILES, "red", ("winequality-red.csv", 25))
        path = tmp_path / "winequality-red.csv"
        path.write_bytes(wine_csv_bytes(25))
        sidecar = tmp_path / "winequality-red.csv.sha256"
        sidecar.write_text(ex._sha256(path) + "  winequality-red.csv\n")
        ex.load_wine("red", tmp_path)  # verifies clean
        path.write_bytes(wine_csv_bytes(25, seed=9))
        with pytest.raises(ex.MissingDataError, match="checksum"):
            ex.load_wine("red", tmp_path)

    def test_data_dir_resolution(self, tmp_path, monkeypatch):
        monkeypatch.delenv("COPULASHIFT_DATA_DIR", raising=False)
        assert ex.wine_data_dir() == ex.Path("data")
        monkeypatch.setenv("COPULASHIFT_DATA_DIR", str(tmp_path))
        assert ex.wine_data_dir() == tmp_path
        assert ex.wine_data_dir("elsewhere") == ex.Path("elsewhere")


class TestFetchWine:
    @staticmethod
    def _fake_urlopen(calls):
        bodies = {name: wine_csv_bytes(rows, seed=hash(name) % 100)
                  for name, rows in (("winequality-red.csv", 1599),
                                     ("winequality-white.csv", 4898))}

        class Response:
            def __init__(self, body):
                self._body = body

            def read(self):
                return self._body

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        def opener(url, timeout=None):
            calls.append(url)
            return Response(bodies[url.rsplit("/", 1)[1]])

        return opener

    def test_network_failure_names_url_and_fallback(self, tmp_path, monkeypatch):
        def refuse(url, timeout=None):
            raise urllib.error.URLError("no route to host")

        monkeypatch.setattr("urllib.request.urlopen", refuse)
        with pytest.raises(ex.MissingDataError) as info:
            ex.fetch_wine(tmp_path)
        msg = str(info.value)
        assert ex.WINE_BASE_URL in msg
        assert "copy it to" in msg

    def test_download_records_checksum_and_verifies(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr("urllib.request.urlopen", self._fake_urlopen(calls))
        paths = ex.fetch_wine(tmp_path)
        assert [p.name for p in paths] == ["winequality-red.csv",
                                           "winequality-white.csv"]
        assert len(calls) == 2
        for p in paths:
            sidecar = p.with_suffix(p.suffix + ".sha256")
            recorded = sidecar.read_text().split()[0]
            assert recorded == ex._sha256(p)
        assert len(ex.load_wine("red", tmp_path)) == 1599
        assert len(ex.load_wine("white", tmp_path)) == 4898

    def test_verified_files_are_not_refetched(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr("urllib.request.urlopen", self._fake_urlopen(calls))
        ex.fetch_wine(tmp_path)
        notes = []
        ex.fetch_wine(tmp_path, progress=notes.append)
        assert len(calls) == 2  # second pass downloaded nothing
        assert all("already present" in n for n in notes)

    def test_files_placed_by_hand_get_their_checksum_offline(self, tmp_path, monkeypatch):
        def refuse(url, timeout=None):
            raise urllib.error.URLError("no route to host")

        monkeypatch.setattr("urllib.request.urlopen", refuse)
        for name, rows in ex.WINE_FILES.values():
            (tmp_path / name).write_bytes(wine_csv_bytes(rows, seed=4))
        paths = ex.fetch_wine(tmp_path)
        assert [p.name for p in paths] == ["winequality-red.csv", "winequality-white.csv"]
        for p in paths:
            assert p.with_suffix(p.suffix + ".sha256").read_text().split()[0] == ex._sha256(p)

    def test_unparsable_file_placed_by_hand_is_fetched(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr("urllib.request.urlopen", self._fake_urlopen(calls))
        (tmp_path / "winequality-red.csv").write_bytes(b"\xff\xfe not a csv")
        ex.fetch_wine(tmp_path)
        assert len(calls) == 2
        assert len(ex.load_wine("red", tmp_path)) == 1599

    def test_corrupted_file_is_refetched(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr("urllib.request.urlopen", self._fake_urlopen(calls))
        ex.fetch_wine(tmp_path)
        red = tmp_path / "winequality-red.csv"
        red.write_bytes(red.read_bytes() + b"tail")
        ex.fetch_wine(tmp_path)
        assert len(calls) == 3  # only the damaged file was downloaded again
        ex.load_wine("red", tmp_path)


class TestWineBenchmarks:
    @pytest.fixture()
    def small_wine(self, monkeypatch):
        def fake_load(color, data_dir=None):
            return small_domain(48, {"white": 10, "red": 20}[color])

        monkeypatch.setattr(ex, "load_wine", fake_load)

    def test_transfer_pairs_are_normalized_from_source(self, small_wine):
        pairs = ex.wine_transfer_pairs()
        assert set(pairs) == {"white_to_red", "red_to_white"}
        nsrc, ntgt, stats = pairs["white_to_red"]
        white = small_domain(48, 10).labels
        assert (stats.label_min, stats.label_max) == (white.min(), white.max())
        np.testing.assert_allclose(nsrc.features.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(nsrc.features.max(axis=0), 1.0, atol=1e-12)
        # target normalized with source ranges, so it may leave [0, 1]
        assert ntgt.features.min() < 0.0 or ntgt.features.max() > 1.0

    def test_benchmark_table_structure(self, small_wine):
        table = ex.run_wine_benchmark(methods=("mlp", "cdan"), n_seeds=1)
        assert table.columns == ["W->R RMSE", "W->R R2", "W->R RE",
                                 "R->W RMSE", "R->W R2", "R->W RE"]
        assert [r["label"] for r in table.rows] == ["MLP", "CDAN"]
        for col in table.columns:
            assert np.isfinite(table.cell("CDAN", col)["mean"])
        json.dumps(table.to_dict())

    def test_ablation_rows_follow_grid(self, small_wine):
        table = ex.run_wine_ablation(grid=((0.0, 0.0), (1.0, 1.0)), n_seeds=1)
        assert [r["label"] for r in table.rows] == ["alpha=0, beta=0",
                                                    "alpha=1, beta=1"]
        assert table.columns == ["W->R RMSE", "W->R R2", "R->W RMSE", "R->W R2"]
        assert table.meta["grid"] == [[0.0, 0.0], [1.0, 1.0]]

    def test_divergence_comparison_rows(self, small_wine):
        table = ex.run_wine_divergence_comparison(grid=(("w1", "chi2"),),
                                                  n_seeds=1)
        assert [r["label"] for r in table.rows] == ["H1=w1, H2=chi2"]
        rep = table.reports["H1=w1, H2=chi2"]["white_to_red"]
        assert rep["config"]["h1"]["kind"] == "w1"
        assert rep["config"]["h2"]["tag"] == "chi2"

    @pytest.mark.parametrize("n_seeds", [0, -1])
    def test_no_seeds_is_rejected_before_any_run(self, tmp_path, n_seeds):
        # no data files in tmp_path: the seed count is checked before they are read
        for runner in (ex.run_moons_benchmark, ex.run_wine_benchmark, ex.run_wine_ablation,
                       ex.run_wine_divergence_comparison):
            kwargs = {} if runner is ex.run_moons_benchmark else {"data_dir": tmp_path}
            with pytest.raises(ContractViolation, match="n_seeds"):
                runner(n_seeds=n_seeds, **kwargs)

    def test_missing_data_propagates(self, tmp_path):
        with pytest.raises(ex.MissingDataError, match="fetch-wine"):
            ex.run_wine_benchmark(methods=("mlp",), n_seeds=1,
                                  data_dir=tmp_path)
