"""Data generation and ingestion: stretched two-moons, delimited loading,
min-max normalization, and deterministic epoch batching.

Loaders never reorder rows; all shuffling happens in the batch iterator,
keyed by (seed, epoch). Dataset dumps are comma-separated with a single
'#'-prefixed JSON header line recording how the file was produced, which
the loader skips.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractViolation, DomainError, check_int, check_real


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray | None = None
    feature_names: list[str] = field(default_factory=list)
    label_name: str | None = None

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        if f.ndim != 2 or f.shape[1] < 1:
            raise ContractViolation(f"Dataset: features must be N x d with d >= 1, got {f.shape}")
        if not np.all(np.isfinite(f)):
            raise DomainError("Dataset: features contain non-finite values")
        self.features = f
        if self.labels is not None:
            y = np.asarray(self.labels)
            if y.ndim != 1 or y.shape[0] != f.shape[0]:
                raise ContractViolation(
                    f"Dataset: {y.shape} labels for {f.shape[0]} rows")
            self.labels = y
        if not self.feature_names:
            self.feature_names = [f"f{i}" for i in range(f.shape[1])]
        if len(self.feature_names) != f.shape[1]:
            raise ContractViolation("Dataset: one name per feature column required")

    def __len__(self):
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return replace(self, features=self.features[idx],
                       labels=None if self.labels is None else self.labels[idx])

    def unlabeled(self) -> "Dataset":
        return replace(self, labels=None)


# points per moon: generate_moons' arrays then take 8 MB each at most
MAX_N_PER_CLASS = 2 ** 18


@dataclass(frozen=True)
class MoonsConfig:
    """Stretched two-moons generator settings."""

    n_per_class: int = 512
    stretch: float = 1.0
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name, check, *bounds in (("n_per_class", check_int, 1, MAX_N_PER_CLASS),
                                     ("stretch", check_real, 1.0),
                                     ("noise_sigma", check_real, 0.0), ("seed", check_int, 0)):
            value = check("MoonsConfig", name, getattr(self, name), *bounds)
            object.__setattr__(self, name, value)


def generate_moons(config: MoonsConfig) -> Dataset:
    """Two inter-twinning moons with the x axis stretched.

    Class 0 lies on y = sqrt(1 - x^2) for x in [-1, 1]; class 1 on
    y = 0.5 - sqrt(1 - (1-x)^2) for x in [0, 2]. The x coordinate is then
    multiplied by ``stretch`` and isotropic Gaussian noise of scale
    ``noise_sigma`` is added to both coordinates.
    """
    n = config.n_per_class
    rng = np.random.default_rng(config.seed)
    x0 = rng.uniform(-1.0, 1.0, size=n)
    y0 = np.sqrt(1.0 - x0 * x0)
    x1 = rng.uniform(0.0, 2.0, size=n)
    y1 = 0.5 - np.sqrt(1.0 - (1.0 - x1) ** 2)
    pts = np.column_stack([np.concatenate([x0, x1]) * config.stretch,
                           np.concatenate([y0, y1])])
    pts = pts + rng.normal(0.0, config.noise_sigma, size=pts.shape)
    labels = np.repeat(np.array([0, 1], dtype=np.int64), n)
    return Dataset(pts, labels, feature_names=["x", "y"], label_name="label")


def _check_delimiter(delimiter) -> None:
    try:
        csv.reader((), delimiter=delimiter)
    except TypeError as err:
        raise ContractViolation(f"load_delimited: bad delimiter {delimiter!r}: {err}") from None


# A line, newline kept, whose first non-whitespace character is not '#': a
# line that is neither blank nor a comment. re's \s on str and str.strip()
# drop the same characters, and a text-mode read leaves '\n' as the only line end.
_CONTENT_LINE = re.compile(r"^[^\S\n]*[^\s#].*(?:\n|\Z)", re.M)


# UTF-8, with a leading byte-order mark (Excel's "CSV UTF-8" writes one) dropped
_ENCODING = "utf-8-sig"


def _row_lines(text: str, delimiter: str) -> list[int]:
    """The 1-based file line each csv row of the content lines starts on, header first.

    Only error messages need these, so the text is split a second time, on
    '\n' as iterating the file splits it, rather than slowing every load
    with per-row bookkeeping.
    """
    kept = [(n, line) for n, line in enumerate(text.split("\n"), start=1)
            if _CONTENT_LINE.match(line)]
    reader = csv.reader((line for _, line in kept), delimiter=delimiter)
    starts, start = [], 0
    for _ in reader:  # a quoted cell may span lines
        starts.append(kept[start][0])
        start = reader.line_num
    return starts


def _header(rows, path) -> list[str]:
    first = next(rows, None)
    if first is None:
        raise ContractViolation(f"load_delimited: {path} has no header row")
    return [h.strip().strip('"') for h in first]


# Printable ASCII, tab and newline, without '"' or '_'. On a body of these
# alone numpy's C reader splits and parses cells exactly as the csv module
# and float() do. Outside it they part: float() accepts '1_0', non-ASCII
# digits and Unicode spaces, and quotes are csv syntax.
_PLAIN_BYTES = bytes(c for c in range(0x20, 0x7F) if chr(c) not in '"_') + b"\t\n"


def _plain_table(body: list[str], delimiter: str, width: int):
    """The float64 table of a file's body lines, parsed by ``np.loadtxt``.

    None when the body is not plain (see ``_PLAIN_BYTES``; the delimiter must
    not be whitespace and no line may be longer than the csv field limit),
    has no row, or does not parse into ``width`` numbers per row. The csv
    path then reads the lines and names the fault.
    """
    if delimiter.isspace() or not body or max(map(len, body)) > csv.field_size_limit():
        return None
    text = "".join(body)
    if not text.isascii() or text.encode("ascii").translate(None, _PLAIN_BYTES):
        return None
    try:
        data = np.loadtxt(body, delimiter=delimiter, comments=None,
                          dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    return data if data.shape == (len(body), width) else None


def load_delimited(path, delimiter: str = ",", label_column: str | None = None) -> Dataset:
    """Read a delimited text file with a header row into a Dataset.

    The file must be UTF-8 (a leading byte-order mark is dropped) and the
    delimiter one character. Blank and '#' lines are skipped. Every cell must
    parse as a real number (what ``float()`` accepts); failures report the
    1-based file line and the column name. The designated label column,
    when given, is separated out by ``split_label``.
    """
    return split_label(*read_table(path, delimiter, label_column), label_column)


def read_table(path, delimiter: str = ",", label_column: str | None = None):
    """A delimited text file's column names and its float64 body, in one read.

    It reads files as ``load_delimited`` describes. A ``label_column`` the
    header lacks is reported after the file's csv faults and before its
    cell faults.
    """
    _check_delimiter(delimiter)
    try:
        with open(path, "r", encoding=_ENCODING) as fh:
            text = fh.read()
        lines = _CONTENT_LINE.findall(text)
        rows = csv.reader(lines, delimiter=delimiter)
        header = _header(rows, path)
        data = _plain_table(lines[rows.line_num:], delimiter, len(header))
        body = None if data is not None else list(rows)
    except UnicodeDecodeError as err:
        raise ContractViolation(f"load_delimited: {path} is not UTF-8 text: {err}") from None
    except csv.Error as err:
        raise ContractViolation(f"load_delimited: {path}: {err}") from None
    if label_column is not None and label_column not in header:
        raise ContractViolation(
            f"load_delimited: label column {label_column!r} not in header {header}")
    if body is not None:
        data = _parse_body(body, header, text, delimiter)
    return header, data


def split_label(header: list[str], data: np.ndarray, label_column: str | None) -> Dataset:
    """The table as a Dataset, with column ``label_column``, if given, as its labels.

    The labels are int64 when all values are integers inside the int64 range.
    """
    if label_column is None:
        return Dataset(data, None, feature_names=header)
    li = header.index(label_column)
    labels = data[:, li]
    if (np.all(labels == np.round(labels))
            and np.all((labels >= -2.0 ** 63) & (labels < 2.0 ** 63))):
        labels = labels.astype(np.int64)
    features = np.delete(data, li, axis=1)
    names = [h for k, h in enumerate(header) if k != li]
    return Dataset(features, labels, feature_names=names, label_name=label_column)


def _parse_body(body, header, text: str, delimiter: str) -> np.ndarray:
    """The csv rows of a file body as a float64 array, or the first fault named."""
    for r, row in enumerate(body, start=1):
        if len(row) != len(header):
            raise ContractViolation(
                f"load_delimited: line {_row_lines(text, delimiter)[r]} has {len(row)} cells, "
                f"header has {len(header)}")
    try:
        # numpy's str -> float64 cast accepts and rejects what float() does
        return np.array(body, dtype=np.float64).reshape(len(body), len(header))
    except ValueError:
        lines = _row_lines(text, delimiter)
        for r, row in enumerate(body, start=1):  # the first cell float() rejects, row-major
            for c, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    raise ContractViolation(
                        f"load_delimited: line {lines[r]}, column {header[c]!r}: "
                        f"cannot parse {cell!r} as a number") from None
        raise


def write_dataset(ds: Dataset, path, header_note: dict | None = None) -> None:
    """Dump a Dataset as comma-separated text, labels in the final column."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header_note is not None:
            fh.write("# " + json.dumps(header_note, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        cols = list(ds.feature_names)
        if ds.labels is not None:
            cols.append(ds.label_name or "label")
        writer.writerow(cols)
        for k in range(len(ds)):
            row = [repr(float(v)) for v in ds.features[k]]
            if ds.labels is not None:
                v = ds.labels[k]
                row.append(str(int(v)) if np.issubdtype(ds.labels.dtype, np.integer)
                           else repr(float(v)))
            writer.writerow(row)


@dataclass(frozen=True, kw_only=True)
class MinMaxStats:
    """The label range minmax_normalize scaled by; none for identity scaling."""

    label_min: float | None = None
    label_max: float | None = None

    def denormalize_labels(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if self.label_min is None:
            return y
        return y * (self.label_max - self.label_min) + self.label_min


def _scale(values, lo, hi):
    span = hi - lo
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(span > 0, (values - lo) / np.where(span > 0, span, 1.0), 0.0)
    return out


def minmax_normalize(stats_from: Dataset, *apply_to: Dataset,
                     scale_labels: bool | None = None):
    """Column-wise (x - min)/(max - min) with ranges taken from one dataset.

    Returns (normalized datasets in apply_to order, MinMaxStats). Constant
    columns map to zero; values outside the fitted range are not clipped.
    ``scale_labels=None`` scales labels only when the fitting dataset has
    float labels (regression targets); class indices pass through.
    """
    lo = stats_from.features.min(axis=0)
    hi = stats_from.features.max(axis=0)
    if scale_labels is None:
        scale_labels = (stats_from.labels is not None
                        and np.issubdtype(stats_from.labels.dtype, np.floating))
    if scale_labels and stats_from.labels is None:
        raise ContractViolation("minmax_normalize: no labels on the stats dataset")
    ymin = ymax = None
    if scale_labels:
        y = stats_from.labels.astype(np.float64)
        ymin, ymax = float(y.min()), float(y.max())
    stats = MinMaxStats(label_min=ymin, label_max=ymax)

    out = []
    for ds in apply_to:
        if ds.dim != stats_from.dim:
            raise ContractViolation(
                f"minmax_normalize: dataset has d={ds.dim}, stats have d={stats_from.dim}")
        labels = ds.labels
        if scale_labels and labels is not None:
            span = ymax - ymin
            labels = (labels.astype(np.float64) - ymin) / (span if span > 0 else 1.0)
        out.append(replace(ds, features=_scale(ds.features, lo, hi), labels=labels))
    return out, stats


def batch_iterator(ds: Dataset, batch_size: int, seed: int, epoch: int):
    """Deterministic shuffled row-index batches for one epoch.

    The permutation is keyed by (seed, epoch). Even batch sizes only (the
    copula estimator consumes row pairs); an odd final batch loses its
    last row, and disappears entirely if nothing remains.
    """
    batch_size = int(batch_size)
    if batch_size < 2 or batch_size % 2 != 0:
        raise ContractViolation(
            f"batch_iterator: batch_size must be even and >= 2, got {batch_size}")
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, int(epoch)])
    perm = rng.permutation(len(ds))
    for start in range(0, len(perm), batch_size):
        batch = perm[start:start + batch_size]
        if len(batch) % 2 != 0:
            batch = batch[:-1]
        if len(batch) == 0:
            break
        yield batch
