import csv
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copulashift import datasets
from copulashift.datasets import (Dataset, MinMaxStats, MoonsConfig,
                                  batch_iterator, generate_moons,
                                  load_delimited, minmax_normalize,
                                  read_header, write_dataset)
from copulashift.errors import ContractViolation
from oracles import is_content_line


class TestDataset:
    def test_basic_properties(self):
        ds = Dataset(np.zeros((4, 3)), np.array([0, 1, 0, 1]))
        assert len(ds) == 4
        assert ds.dim == 3
        assert ds.feature_names == ["f0", "f1", "f2"]

    def test_rejects_nan_features(self):
        x = np.zeros((3, 2))
        x[1, 1] = np.nan
        with pytest.raises(ContractViolation):
            Dataset(x, None)

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ContractViolation):
            Dataset(np.zeros((3, 2)), np.array([0, 1]))

    def test_subset_keeps_alignment(self):
        x = np.arange(12, dtype=np.float64).reshape(6, 2)
        y = np.arange(6)
        part = Dataset(x, y).subset([4, 1])
        np.testing.assert_array_equal(part.features, x[[4, 1]])
        np.testing.assert_array_equal(part.labels, [4, 1])

    def test_unlabeled_drops_labels(self):
        ds = Dataset(np.zeros((3, 2)), np.array([0, 1, 0]))
        assert ds.unlabeled().labels is None


class TestGenerateMoons:
    def test_shapes_and_labels(self):
        ds = generate_moons(MoonsConfig(n_per_class=100, seed=3))
        assert ds.features.shape == (200, 2)
        assert np.sum(ds.labels == 0) == 100
        assert np.sum(ds.labels == 1) == 100

    def test_noise_free_points_lie_on_the_arcs(self):
        # Class 0: x^2 + y^2 = 1; class 1: (x-1)^2 + (0.5-y)^2 = 1.
        ds = generate_moons(MoonsConfig(n_per_class=50, noise_sigma=0.0, seed=1))
        x, y = ds.features[:, 0], ds.features[:, 1]
        top = ds.labels == 0
        np.testing.assert_allclose(x[top] ** 2 + y[top] ** 2, 1.0, atol=1e-12)
        np.testing.assert_allclose((x[~top] - 1.0) ** 2 + (0.5 - y[~top]) ** 2,
                                   1.0, atol=1e-12)

    def test_stretch_scales_x_only(self):
        # Unscaling the x axis must land back on the unit arcs.
        ds = generate_moons(MoonsConfig(n_per_class=50, stretch=4.0,
                                        noise_sigma=0.0, seed=1))
        x, y = ds.features[:, 0] / 4.0, ds.features[:, 1]
        top = ds.labels == 0
        np.testing.assert_allclose(x[top] ** 2 + y[top] ** 2, 1.0, atol=1e-12)

    def test_deterministic_per_seed(self):
        a = generate_moons(MoonsConfig(seed=9))
        b = generate_moons(MoonsConfig(seed=9))
        c = generate_moons(MoonsConfig(seed=10))
        np.testing.assert_array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_rejects_stretch_below_one(self):
        with pytest.raises(ContractViolation):
            MoonsConfig(stretch=0.5)

    @pytest.mark.parametrize("field, bad", [
        ("n_per_class", 2.7), ("n_per_class", True), ("n_per_class", "abc"),
        ("n_per_class", float("nan")), ("n_per_class", 0),
        ("stretch", "x"), ("stretch", None), ("stretch", True),
        ("stretch", float("nan")), ("stretch", float("inf")),
        pytest.param("stretch", 10 ** 400, id="stretch-10**400"),
        ("noise_sigma", "x"), ("noise_sigma", float("nan")), ("noise_sigma", -0.1),
        ("seed", 1.5), ("seed", "0"), ("seed", -1),
    ])
    def test_malformed_field_is_named(self, field, bad):
        # 2.7 used to become 2, True 1; "abc" and NaN raised a bare
        # ValueError, and "x" or None for stretch a TypeError
        with pytest.raises(ContractViolation, match=f"MoonsConfig: {field}"):
            MoonsConfig(**{field: bad})

    def test_numpy_scalars_accepted(self):
        cfg = MoonsConfig(n_per_class=np.int64(3), stretch=np.float64(2.0), seed=np.int32(1))
        assert cfg.n_per_class == 3 and type(cfg.n_per_class) is int
        assert len(generate_moons(cfg)) == 6


class TestDelimitedRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        ds = Dataset(rng.normal(size=(20, 3)), rng.integers(0, 2, 20),
                     feature_names=["a", "b", "c"], label_name="cls")
        path = tmp_path / "round.csv"
        write_dataset(ds, path, header_note={"seed": 11})
        back = load_delimited(path, label_column="cls")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.labels.dtype == np.int64
        assert back.feature_names == ["a", "b", "c"]

    def test_float_labels_stay_float(self, tmp_path):
        ds = Dataset(np.zeros((3, 1)), np.array([0.25, 0.5, 0.75]))
        path = tmp_path / "f.csv"
        write_dataset(ds, path)
        back = load_delimited(path, label_column="label")
        assert np.issubdtype(back.labels.dtype, np.floating)
        np.testing.assert_array_equal(back.labels, [0.25, 0.5, 0.75])

    @pytest.mark.parametrize("labels, dtype", [
        ("3 4 5 6 7 8 9", np.int64),
        ("-9223372036854775808 0", np.int64),  # -2**63 is the int64 minimum
        ("1e20 3", np.float64),
        ("-1e20 3", np.float64),
        ("9223372036854775808 3", np.float64),  # 2**63 is one past the maximum
    ])
    def test_labels_are_int64_only_inside_its_range(self, tmp_path, labels, dtype):
        # 1e20 used to wrap to -2**63 with only a RuntimeWarning
        values = labels.split()
        path = tmp_path / "y.csv"
        path.write_text("a,y\n" + "".join(f"{k},{v}\n" for k, v in enumerate(values)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = load_delimited(path, label_column="y")
        assert back.labels.dtype == dtype
        np.testing.assert_array_equal(back.labels, [float(v) for v in values])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_rows=st.integers(1, 30), n_feat=st.integers(1, 5),
           kind=st.sampled_from(["int", "float"]))
    def test_write_then_load_round_trips(self, data, n_rows, n_feat, kind):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        x = data.draw(st.lists(st.lists(finite, min_size=n_feat, max_size=n_feat),
                               min_size=n_rows, max_size=n_rows))
        if kind == "int":  # integers a float64 holds exactly
            y = data.draw(st.lists(st.integers(-2 ** 53, 2 ** 53),
                                   min_size=n_rows, max_size=n_rows))
        else:  # one fractional label keeps the column float
            y = data.draw(st.lists(finite, min_size=n_rows - 1, max_size=n_rows - 1))
            y.insert(0, data.draw(finite.filter(lambda v: not v.is_integer())))
        names = data.draw(st.lists(
            st.text(alphabet="abcdefgh0123 ,;-_", min_size=1).map(str.strip).filter(bool),
            min_size=n_feat, max_size=n_feat, unique=True))
        note = data.draw(st.dictionaries(st.text(max_size=4), st.integers() | st.text(max_size=4),
                                         max_size=3))
        ds = Dataset(np.array(x, dtype=np.float64).reshape(n_rows, n_feat),
                     np.array(y, dtype=np.int64 if kind == "int" else np.float64),
                     feature_names=names, label_name="quality")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "round.csv"
            write_dataset(ds, path, header_note=note)
            assert _takes_plain_path(path, ",")
            back = load_delimited(path, label_column="quality")
        assert back.features.tobytes() == ds.features.tobytes()  # -0.0 keeps its sign
        assert back.labels.dtype == ds.labels.dtype
        assert back.labels.tobytes() == ds.labels.tobytes()
        assert back.feature_names == names and back.label_name == "quality"

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(ContractViolation, match=r"line 3.*'b'"):
            load_delimited(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ContractViolation, match="label column"):
            load_delimited(path, label_column="target")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ContractViolation, match="line 3"):
            load_delimited(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# note\na,b\n1,2\n")
        ds = load_delimited(path)
        assert ds.features.shape == (1, 2)

    def test_bad_cell_in_last_row_and_column(self, tmp_path):
        path = tmp_path / "last.csv"
        path.write_text("# note\na,b,c\n1,2,3\n4,5,6\n7,8,9x\n")
        with pytest.raises(ContractViolation) as info:
            load_delimited(path)
        assert str(info.value) == ("load_delimited: line 5, column 'c': "
                                   "cannot parse '9x' as a number")

    def test_errors_name_the_file_line_past_comments_and_blanks(self, tmp_path):
        path = tmp_path / "lines.csv"
        body = '# {"generator": "moons"}\na,b\n\n1,2\n# note\n\n3,CELL\n'
        path.write_text(body.replace("CELL", "4x"))
        with pytest.raises(ContractViolation, match=r"line 7, column 'b': cannot parse '4x'"):
            load_delimited(path)
        path.write_text(body.replace("CELL", "4,5"))
        with pytest.raises(ContractViolation, match="line 7 has 3 cells"):
            load_delimited(path)
        # a quoted cell spanning lines is named by the line it starts on
        path.write_text('a,b\n\n1,"2\n3"\n')
        with pytest.raises(ContractViolation, match="line 3, column 'b'"):
            load_delimited(path)

    def test_first_bad_cell_in_row_major_order_is_named(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("a,b\n1,\n,2\n")
        with pytest.raises(ContractViolation, match=r"line 2, column 'b': cannot parse ''"):
            load_delimited(path)

    def test_header_only_file_loads_empty(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a;b;quality\n")
        ds = load_delimited(path, delimiter=";")
        assert ds.features.shape == (0, 3) and ds.feature_names == ["a", "b", "quality"]
        ds = load_delimited(path, delimiter=";", label_column="quality")
        assert ds.features.shape == (0, 2) and ds.labels.shape == (0,)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n_rows=st.integers(0, 8), n_cols=st.integers(1, 4))
    def test_cells_load_as_float_parses_them(self, data, n_rows, n_cols):
        value = st.floats(allow_nan=False, allow_infinity=False)
        form = st.sampled_from([repr, lambda v: "%.6g" % v, lambda v: "%.17g" % v])
        pad = st.sampled_from(["", " ", "  ", "\t", " \t"])
        rows = [[data.draw(pad) + data.draw(form)(data.draw(value)) + data.draw(pad)
                 for _ in range(n_cols)] for _ in range(n_rows)]
        header = [f"c{k}" for k in range(n_cols)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cells.csv"
            path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n",
                            encoding="utf-8")
            got = load_delimited(path).features
        want = np.array([[float(c) for c in r] for r in rows],
                        dtype=np.float64).reshape(n_rows, n_cols)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bit for bit, -0.0 included


class TestDelimitedBoundary:
    @pytest.mark.parametrize("delimiter", [";;", "", None])
    def test_bad_delimiter_named(self, tmp_path, delimiter):
        path = tmp_path / "d.csv"
        path.write_text("a;b\n1;2\n")
        with pytest.raises(ContractViolation, match="delimiter"):
            load_delimited(path, delimiter=delimiter)
        with pytest.raises(ContractViolation, match="delimiter"):
            read_header(path, delimiter=delimiter)

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("a,b\n1,2\n3,caf\u00e9\n".encode("latin-1"))
        with pytest.raises(ContractViolation, match="latin1.csv is not UTF-8"):
            load_delimited(path)

    def test_csv_reader_error_named(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text('a\n"' + "1" * 200_000 + '"\n')  # past the csv field limit
        with pytest.raises(ContractViolation, match="huge.csv"):
            load_delimited(path)

    # a comment fills the first 8 KB, so a lazy read meets the fault in a later chunk
    _LATE = "# " + "x" * 9000 + "\n"

    @pytest.mark.parametrize("content, message", [
        ((_LATE + "a,b").encode() + b"\xe9,c\n1,2,3\n",
         f"is not UTF-8 text: .* byte 0xe9 in position {len(_LATE) + 3}: "),
        ((_LATE + "a," + "b" * (csv.field_size_limit() + 1) + "\n1,2\n").encode(),
         r"late.csv: field larger than field limit"),
    ], ids=["non-utf8-byte", "header-field-past-the-csv-limit"])
    def test_read_header_and_loader_name_a_fault_alike(self, tmp_path, content, message):
        path = tmp_path / "late.csv"
        path.write_bytes(content)
        with pytest.raises(ContractViolation, match=message) as from_header:
            read_header(path)
        with pytest.raises(ContractViolation) as from_loader:
            load_delimited(path)
        assert str(from_header.value) == str(from_loader.value)

    def test_read_header_matches_loader(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text('# note\n\n "a" ;b;quality\n1;2;3\n')
        assert read_header(path, ";") == ["a", "b", "quality"]
        assert load_delimited(path, ";").feature_names == ["a", "b", "quality"]
        empty = tmp_path / "empty.csv"
        empty.write_text("# only a note\n")
        with pytest.raises(ContractViolation, match="no header row"):
            read_header(empty)


def _takes_plain_path(path, delimiter) -> bool:
    """Whether load_delimited reads the file's body with the C reader."""
    lines = datasets._content_lines(path)
    rows = csv.reader(lines, delimiter=delimiter)
    width = len(next(rows))
    return datasets._plain_table(lines[rows.line_num:], delimiter, width) is not None


def _load_outcome(path, delimiter, label_column):
    """What load_delimited returns, as comparable values, or the error it raises."""
    try:
        ds = load_delimited(path, delimiter, label_column)
    except Exception as err:  # the two paths must raise alike, whatever they raise
        return type(err), str(err)
    labels = None if ds.labels is None else (ds.labels.dtype, ds.labels.tobytes())
    return (ds.features.shape, ds.features.tobytes(), ds.feature_names,
            labels, ds.label_name)


# the pieces hostile cells are made of: what float() alone accepts ('_',
# non-ASCII digits, odd whitespace), csv syntax, and number spellings
_TOKENS = ["0", "1", "7", ".", "e", "+", "-", " ", "\t", "_", '"', "#", "nan", "inf",
           "\u0661", "\x0b", "\x1c"]


class TestPlainReader:
    @pytest.mark.parametrize("text, delimiter, plain", [
        ('"a";"b"\n1.5;-2e3\n\n# note\n nan ; inf\t\n', ";", True),
        ("a,b\n1,2\n", ",", True),
        ("a,b\n1,2\r\n3,4\r\n", ",", True),
        ("a,b\n", ",", False),  # header only
        ('a,b\n"1",2\n', ",", False),  # a quote
        ("a,b\n1_0,2\n", ",", False),  # float() reads 1_0 as 10
        ("a,b\n\u0661,2\n", ",", False),  # float() reads non-ASCII digits
        ("a,b\n1\x0b,2\n", ",", False),  # whitespace only float() strips
        ("a\tb\n1\t2\n", "\t", False),  # whitespace delimiters
        ("a b\n1 2\n", " ", False),
        ("a,b\n1,2\n3\n", ",", False),  # ragged
        ("a,b\n1,2,3\n", ",", False),  # one cell too many on every row
        ("a,b\n1,x\n", ",", False),  # not a number
        pytest.param("a\n" + "1" * (csv.field_size_limit() + 1) + "\n", ",", False,
                     id="field-past-the-csv-limit"),
    ])
    def test_reader_takes_only_plain_bodies(self, tmp_path, text, delimiter, plain):
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _takes_plain_path(path, delimiter) == plain

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_cols=st.integers(1, 4), n_rows=st.integers(0, 5),
           delimiter=st.sampled_from([",", ";", "|", "\t", " "]),
           clean=st.booleans(), newline=st.sampled_from(["\n", "\r\n"]))
    def test_reader_path_matches_csv_path(self, data, n_cols, n_rows, delimiter,
                                          clean, newline):
        number = (st.floats().map(repr) | st.floats().map(lambda v: "%.6g" % v)
                  | st.integers(-99, 99).map(str))
        pad = st.sampled_from(["", " ", "\t"])
        cell = st.builds(lambda a, v, b: a + v + b, pad, number, pad)
        if not clean:
            cell = cell | st.lists(st.sampled_from(_TOKENS), max_size=5).map("".join)
        widths = st.sampled_from([n_cols, n_cols, max(n_cols - 1, 1), n_cols + 1])
        width = data.draw(widths)  # every row of a clean file has this many cells
        rows = [delimiter.join(data.draw(cell) for _ in range(width if clean else data.draw(widths)))
                for _ in range(n_rows)]
        if rows and data.draw(st.integers(0, 3)) == 0:  # one field past the csv limit
            rows[-1] += "1" * (csv.field_size_limit() + 1)
        header = [f"c{k}" for k in range(n_cols)]
        if data.draw(st.booleans()):
            header = [f'"{h}"' for h in header]
        lines = [delimiter.join(header), *rows]
        for _ in range(data.draw(st.integers(0, 3))):  # blank and comment lines
            at = data.draw(st.integers(0, len(lines)))
            lines.insert(at, data.draw(st.sampled_from(["", " \t", "# note", "  #1,2"])))
        label = data.draw(st.sampled_from([None, "c0", f"c{n_cols - 1}", "missing"]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cells.csv"
            path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode())
            got = _load_outcome(path, delimiter, label)
            # the csv path alone, as for a file the C reader declines
            with mock.patch.object(datasets, "_plain_table", return_value=None):
                want = _load_outcome(path, delimiter, label)
        assert got == want


# line ends, every character str.strip() drops, '#', and a few ordinary ones
_LINE_PIECES = ["\n", "\r", "\r\n", "#", "a", "1", ",", "\ufeff", "\u200b",
                *(chr(c) for c in range(0x110000) if chr(c).isspace())]


class TestContentLines:
    @settings(max_examples=300, deadline=None)
    @given(pieces=st.lists(st.sampled_from(_LINE_PIECES)
                           | st.characters(blacklist_categories=("Cs",)), max_size=40))
    def test_single_pass_keeps_the_lines_is_content_keeps(self, pieces):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "lines.csv"
            path.write_bytes("".join(pieces).encode("utf-8"))
            with open(path, "r", encoding="utf-8") as fh:
                want = [line for line in fh if is_content_line(line)]
            assert datasets._content_lines(path) == want


class TestMinMaxNormalize:
    def test_hand_computed_ranges(self):
        train = Dataset(np.array([[0.0, 10.0], [2.0, 30.0], [1.0, 20.0]]), None)
        other = Dataset(np.array([[4.0, 10.0]]), None)
        (n_train, n_other), stats = minmax_normalize(train, train, other)
        np.testing.assert_allclose(n_train.features,
                                   [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
        # Values outside the fitted range extrapolate rather than clip.
        np.testing.assert_allclose(n_other.features, [[2.0, 0.0]])
        assert stats == MinMaxStats()  # no float labels: no label range

    def test_constant_column_maps_to_zero(self):
        ds = Dataset(np.array([[5.0, 1.0], [5.0, 2.0]]), None)
        (norm,), _ = minmax_normalize(ds, ds)
        np.testing.assert_array_equal(norm.features[:, 0], [0.0, 0.0])

    def test_label_scaling_and_inverse(self):
        ds = Dataset(np.zeros((3, 1)), np.array([3.0, 5.0, 9.0]))
        (norm,), stats = minmax_normalize(ds, ds, scale_labels=True)
        np.testing.assert_allclose(norm.labels, [0.0, 1.0 / 3.0, 1.0])
        np.testing.assert_allclose(stats.denormalize_labels(norm.labels),
                                   [3.0, 5.0, 9.0])

    def test_integer_labels_pass_through_by_default(self):
        ds = Dataset(np.zeros((3, 1)), np.array([3, 5, 9]))
        (norm,), stats = minmax_normalize(ds, ds)
        np.testing.assert_array_equal(norm.labels, [3, 5, 9])
        assert stats.label_min is None

    def test_dimension_mismatch(self):
        a = Dataset(np.zeros((2, 2)), None)
        b = Dataset(np.zeros((2, 3)), None)
        with pytest.raises(ContractViolation):
            minmax_normalize(a, b)


class TestBatchIterator:
    @staticmethod
    def _sizes(n, batch_size, seed=0, epoch=0):
        ds = Dataset(np.zeros((n, 1)), None)
        return [len(b) for b in batch_iterator(ds, batch_size, seed, epoch)]

    def test_even_remainder_kept(self):
        assert self._sizes(10, 4) == [4, 4, 2]

    def test_odd_remainder_trimmed(self):
        assert self._sizes(9, 4) == [4, 4]
        assert self._sizes(11, 4) == [4, 4, 2]

    def test_full_batch_with_odd_population(self):
        # batch_size beyond the sample count keeps all rows but one.
        assert self._sizes(461, 1024) == [460]

    def test_single_row_yields_nothing(self):
        assert self._sizes(1, 4) == []

    def test_indices_cover_without_duplicates(self):
        ds = Dataset(np.zeros((10, 1)), None)
        idx = np.concatenate(list(batch_iterator(ds, 4, seed=5, epoch=2)))
        assert len(np.unique(idx)) == len(idx) == 10

    def test_deterministic_per_seed_epoch(self):
        ds = Dataset(np.zeros((12, 1)), None)
        a = list(batch_iterator(ds, 4, seed=1, epoch=3))
        b = list(batch_iterator(ds, 4, seed=1, epoch=3))
        c = list(batch_iterator(ds, 4, seed=1, epoch=4))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_rejects_odd_batch_size(self):
        ds = Dataset(np.zeros((6, 1)), None)
        with pytest.raises(ContractViolation):
            list(batch_iterator(ds, 3, 0, 0))


class TestMinMaxStats:
    def test_identity_when_no_label_range(self):
        stats = MinMaxStats()
        np.testing.assert_array_equal(stats.denormalize_labels([1.5, 2.0]),
                                      [1.5, 2.0])
        with pytest.raises(TypeError):  # keywords only: no range filled by position
            MinMaxStats(0.0, 1.0)
