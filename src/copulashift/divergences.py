"""Marginal (per-feature) divergence estimators between two samples.

Three estimators cover the marginal-shift term of the training objective
and the shift diagnostics: a Gaussian-kernel MMD V-statistic summed over a
small bandwidth set, the 1-D Wasserstein-1 distance, and a smoothed
histogram KL divergence. The MMD is built on the graph so the trainer can
differentiate through it; the plain function evaluates the same graph and
returns its value. The CORAL covariance-alignment penalty is graph-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractViolation, DomainError, ShapeError, check_int, check_real

H1_TAGS = ("mmd", "w1", "kl")

MAX_BINS = 2 ** 20  # the histogram KL's count, edge and smoothed arrays: 8 MB each at most


@dataclass(frozen=True)
class DivergenceKind:
    """Which marginal divergence (H1) to use, plus its parameters.

    ``kind`` is one of ``H1_TAGS``. ``bandwidths`` applies to MMD only;
    ``None`` means the median heuristic (median pairwise squared distance
    of the pooled sample and twice it). ``bins`` applies to the histogram
    KL only.
    """

    kind: str
    bandwidths: tuple[float, ...] | None = None
    bins: int = 32

    def __post_init__(self):
        if self.kind not in H1_TAGS:
            raise ContractViolation(
                f"DivergenceKind: h1 must be one of {H1_TAGS}, got {self.kind!r}")
        if self.bandwidths is not None:
            if self.kind != "mmd":
                raise ContractViolation("DivergenceKind: bandwidths apply to 'mmd' only")
            if not isinstance(self.bandwidths, (tuple, list)) or not self.bandwidths:
                raise ContractViolation(
                    f"DivergenceKind: bandwidths must be a nonempty list of numbers, "
                    f"got {self.bandwidths!r}")
            object.__setattr__(self, "bandwidths", tuple(
                check_real("DivergenceKind", f"bandwidths[{k}]", b, 0.0, strict=True)
                for k, b in enumerate(self.bandwidths)))
        object.__setattr__(self, "bins",
                           check_int("DivergenceKind", "bins", self.bins, 2, MAX_BINS))


def _column(x, name: str) -> np.ndarray:
    """A 1-D float sample from an array-like with at most one axis longer than 1."""
    try:
        arr = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError):
        raise ContractViolation(f"{name}: sample must be numeric") from None
    if sum(d > 1 for d in arr.shape) > 1:
        raise ShapeError(name, arr.shape, (arr.size,))
    arr = arr.ravel()
    if arr.size == 0:
        raise ContractViolation(f"{name}: sample is empty")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name}: sample contains non-finite values")
    return arr


def _bandwidths_from_blocks(sq_xx, sq_yy, sq_xy) -> tuple[float, float]:
    # within-sample pairs (i < j) plus every cross pair is exactly the set of
    # pooled-sample pairs, so the median here equals the pooled median
    vals = np.concatenate([*(row[i + 1:] for i, row in enumerate(sq_xx)),
                           *(row[i + 1:] for i, row in enumerate(sq_yy)),
                           sq_xy.ravel()])
    base = float(np.median(vals))
    if base <= 0.0:
        base = float(np.mean(vals))
    if base <= 0.0:
        base = 1.0
    return (base, 2.0 * base)


def _feature_column(f: ad.Node, c: int) -> ad.Node:
    return f if f.shape[1] == 1 else ad.take_cols(f, [c])  # one column: no gather node


def _squared_distances(a: ad.Node, b: ad.Node) -> ad.Node:
    """(n, n') squared Euclidean distances, summed one feature column at a time."""
    acc = None
    for c in range(a.shape[1]):
        d = ad.pairwise_diff(_feature_column(a, c), _feature_column(b, c))
        acc = d * d if acc is None else acc + d * d
    return acc


def mmd_squared_graph(xs: ad.Node, ys: ad.Node, bandwidths=None) -> ad.Node:
    """Squared-MMD V-statistic between (n, m) and (n', m) sample nodes.

    Gaussian kernel exp(-||x - y||^2 / b) on the rows, summed over ``bandwidths``
    of ``sum k(x,x')/n^2 + sum k(y,y')/n'^2 - 2 sum k(x,y)/(n n')``,
    clamped at zero against floating-point undershoot. ``bandwidths=None``
    applies the median heuristic to the current values.
    """
    if xs.shape[1] != ys.shape[1]:
        raise ShapeError("mmd_squared", xs.shape, ys.shape)
    n, m = xs.shape[0], ys.shape[0]
    sq_xx = _squared_distances(xs, xs)
    sq_yy = _squared_distances(ys, ys)
    sq_xy = _squared_distances(xs, ys)
    if bandwidths is None:
        bandwidths = _bandwidths_from_blocks(sq_xx.value, sq_yy.value, sq_xy.value)
    bw = tuple(float(b) for b in bandwidths)
    if not bw or any(b <= 0.0 for b in bw):
        raise ContractViolation("mmd_squared: bandwidths must be positive")
    acc = None
    for b in bw:
        k_xx = ad.total(ad.exp(sq_xx * (-1.0 / b))) * (1.0 / (n * n))
        k_yy = ad.total(ad.exp(sq_yy * (-1.0 / b))) * (1.0 / (m * m))
        k_xy = ad.total(ad.exp(sq_xy * (-1.0 / b))) * (-2.0 / (n * m))
        term = k_xx + k_yy + k_xy
        acc = term if acc is None else acc + term
    return ad.clamp(acc, lo=0.0)


def mmd_squared(x, y, bandwidths=None) -> float:
    """Plain squared-MMD between two 1-D samples (see mmd_squared_graph)."""
    xa = _column(x, "mmd_squared")
    ya = _column(y, "mmd_squared")
    return mmd_squared_graph(ad.constant(xa), ad.constant(ya), bandwidths).item()


def wasserstein1_1d(x, y) -> float:
    """Wasserstein-1 distance between two 1-D empirical distributions.

    Equal sizes reduce to the mean absolute difference of sorted samples.
    Unequal sizes compare linearly interpolated empirical quantiles on the
    grid k/(L+1), k = 1..L with L = max(n, m).
    """
    xa = np.sort(_column(x, "wasserstein1_1d"))
    ya = np.sort(_column(y, "wasserstein1_1d"))
    if xa.size == ya.size:
        return float(np.mean(np.abs(xa - ya)))
    L = max(xa.size, ya.size)
    qx = _sorted_quantiles(xa, L)
    qy = _sorted_quantiles(ya, L)
    return float(np.mean(np.abs(qx - qy)))


@functools.lru_cache(maxsize=8)
def _quantile_plan(n: int, L: int):
    """Where ``_sorted_quantiles`` reads the grid k/(L+1), k = 1..L, of n values.

    Hyndman & Fan's type 7 (numpy's ``method="linear"``) puts quantile p at
    h = (n-1) p: the lower and upper neighbour indices of h, the weight
    t = h - floor(h), 1 - t, and where t >= 0.5 (numpy's lerp blends from
    the upper neighbour there). Cached and shared, so read-only.
    """
    h = (n - 1) * (np.arange(1, L + 1) / (L + 1.0))
    lo = np.floor(h)
    t = h - lo
    lo = lo.astype(np.intp)
    plan = (lo, np.minimum(lo + 1, n - 1), t, 1 - t, t >= 0.5)
    for arr in plan:
        arr.setflags(write=False)
    return plan


def _sorted_quantiles(s: np.ndarray, L: int) -> np.ndarray:
    """Quantiles k/(L+1), k = 1..L, of the ascending 1-D array ``s``, read off by index.

    Blended between the two neighbours with numpy's own lerp, so the result
    is ``np.quantile(s, grid)`` without partitioning ``s`` again.
    """
    lo, hi, t, one_minus_t, upper = _quantile_plan(s.size, L)
    a = s[lo]
    b = s[hi]
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * one_minus_t, out=out, where=upper)
    return out


def kl_histogram_1d(x, y, bins: int = 32) -> float:
    """Histogram KL divergence KL(p_x || p_y) over a shared binning.

    Bin edges span the pooled range. Counts are smoothed additively with
    1/(bins*N) per bin for a sample of size N, so the estimate stays finite
    on disjoint supports and is exactly zero for identical samples.
    """
    bins = check_int("kl_histogram_1d", "bins", bins, 2, MAX_BINS)
    xa = _column(x, "kl_histogram_1d")
    ya = _column(y, "kl_histogram_1d")
    lo = min(xa.min(), ya.min())
    hi = max(xa.max(), ya.max())
    if hi <= lo:
        return 0.0
    cx, _ = np.histogram(xa, bins=bins, range=(lo, hi))
    cy, _ = np.histogram(ya, bins=bins, range=(lo, hi))
    p = _smooth(cx)
    q = _smooth(cy)
    return float(np.sum(p * np.log(p / q)))


def _smooth(counts: np.ndarray) -> np.ndarray:
    n = counts.sum()
    s = 1.0 / (counts.size * n)
    return (counts + s) / (n + counts.size * s)


def coral_penalty_graph(fs: ad.Node, ft: ad.Node) -> ad.Node:
    """||Cov(fs) - Cov(ft)||_F^2 / (4 m^2) on the graph (ddof-1 covariance).

    One node that replays the graph composite (centre, transpose, matmul,
    subtract, square, total, scale) op for op, so its bits are the same.
    """
    if fs.shape[1] != ft.shape[1]:
        raise ShapeError("coral_penalty_graph", fs.shape, ft.shape)
    if fs.shape[0] < 2 or ft.shape[0] < 2:
        raise ContractViolation("coral_penalty_graph: needs at least 2 rows per domain")
    m = fs.shape[1]
    scale = 1.0 / (4.0 * m * m)

    def cov(f):
        centered = f.value - f.value.mean(axis=0, keepdims=True)
        c_t = np.ascontiguousarray(centered.T)
        return centered, c_t, c_t @ centered * (1.0 / (f.shape[0] - 1))

    (cs, cs_t, cov_s), (ct, ct_t, cov_t) = cov(fs), cov(ft)
    diff = cov_s - cov_t
    out = np.array([[(diff * diff).sum()]]) * scale

    def cov_back(centered, c_t, g_cov):
        # the composite's order: matmul side, transpose side, then the mean
        g_prod = g_cov * (1.0 / (centered.shape[0] - 1))
        g_c = c_t.T @ g_prod + np.ascontiguousarray((g_prod @ centered.T).T)
        return g_c - ad._column_sums(g_c) / centered.shape[0]

    def back(g):
        g_sq = np.full((m, m), (g * scale)[0, 0]) * diff
        g_diff = g_sq + g_sq
        return cov_back(cs, cs_t, g_diff), cov_back(ct, ct_t, -g_diff)

    return ad.Node(out, "coral", (fs, ft), back)


def w1_columns_graph(fs: ad.Node, ft: ad.Node) -> ad.Node:
    """Sum over columns of W1 between two (n, m) samples of equal size, as one node.

    Each column's W1 is the mean absolute difference of the sorted samples.
    The node replays the graph composite (sort of each column, sub, abs,
    column means, total) op for op, so its bits are the same. The sort is
    numpy's default, not a stable one: tied values (dead ReLU zeros) give
    the same value either way, but may route their gradients to one another.
    """
    if fs.shape != ft.shape:
        raise ShapeError("w1_columns_graph", fs.shape, ft.shape)
    n, m = fs.shape

    def sort_cols(f):
        # flat index into f of each column's ascending order; the sort runs
        # on the contiguous transposed copy
        order = np.argsort(np.ascontiguousarray(f.value.T), axis=1)
        flat = order.T * m + np.arange(m)
        return flat, np.take(f.value, flat)

    (flat_s, sorted_s), (flat_t, sorted_t) = sort_cols(fs), sort_cols(ft)
    diff = sorted_s - sorted_t
    out = np.array([[(ad._column_sums(np.abs(diff)) / n).sum()]])

    def back(g):
        g_diff = np.full((1, m), g[0, 0]) / n * np.sign(diff)
        gs, gt = np.empty(n * m), np.empty(n * m)  # each column is a permutation
        gs[flat_s] = g_diff
        gt[flat_t] = -g_diff
        return gs.reshape(n, m), gt.reshape(n, m)

    return ad.Node(out, "w1_columns", (fs, ft), back)


def marginal_divergence(x, y, kind: DivergenceKind) -> float:
    """Dispatch a 1-D marginal divergence by kind.

    MMD is reported as the distance (square root of the V-statistic),
    matching how it enters the training objective.
    """
    if kind.kind == "mmd":
        return float(np.sqrt(mmd_squared(x, y, kind.bandwidths)))
    if kind.kind == "w1":
        return wasserstein1_1d(x, y)
    return kl_histogram_1d(x, y, kind.bins)
