"""Marginal (per-feature) divergence estimators between two samples.

Three estimators cover the marginal-shift term of the training objective
and the shift diagnostics: a Gaussian-kernel MMD V-statistic summed over a
small bandwidth set, the 1-D Wasserstein-1 distance, and a smoothed
histogram KL divergence. The MMD additionally has a graph form so it can
be differentiated through by the trainer; the plain function evaluates the
same graph and returns its value.

Analytic KL divergences between Gaussians are included as references for
the population-level shift tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractViolation, DomainError, ShapeError

_VALID_KINDS = ("mmd", "w1", "kl")


@dataclass(frozen=True)
class DivergenceKind:
    """Which marginal divergence to use, plus its parameters.

    ``bandwidths`` applies to MMD only; ``None`` means the median heuristic
    (median pairwise squared distance of the pooled sample and twice it).
    ``bins`` applies to the histogram KL only.
    """

    kind: str
    bandwidths: tuple[float, ...] | None = None
    bins: int = 32

    def __post_init__(self):
        if self.kind not in _VALID_KINDS:
            raise ContractViolation(
                f"DivergenceKind: kind must be one of {_VALID_KINDS}, got {self.kind!r}")
        if self.bandwidths is not None:
            if self.kind != "mmd":
                raise ContractViolation("DivergenceKind: bandwidths apply to 'mmd' only")
            bw = tuple(float(b) for b in self.bandwidths)
            if not bw or any(not np.isfinite(b) or b <= 0.0 for b in bw):
                raise ContractViolation("DivergenceKind: bandwidths must be positive")
            object.__setattr__(self, "bandwidths", bw)
        if int(self.bins) < 2:
            raise ContractViolation(f"DivergenceKind: bins must be >= 2, got {self.bins}")
        object.__setattr__(self, "bins", int(self.bins))

    @classmethod
    def mmd(cls, bandwidths=None):
        return cls("mmd", bandwidths=None if bandwidths is None else tuple(bandwidths))

    @classmethod
    def wasserstein1(cls):
        return cls("w1")

    @classmethod
    def kl_histogram(cls, bins: int = 32):
        return cls("kl", bins=bins)


def _column(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ContractViolation(f"{name}: sample is empty")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name}: sample contains non-finite values")
    return arr


def gaussian_kernel(x, y, bandwidth: float):
    """k(x, y) = exp(-(x - y)^2 / bandwidth), elementwise."""
    if not np.isfinite(bandwidth) or bandwidth <= 0.0:
        raise DomainError(f"gaussian_kernel: bandwidth must be positive, got {bandwidth}")
    d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return np.exp(-(d * d) / bandwidth)


def _triu_indices(n: int):
    cached = _TRIU_CACHE.get(n)
    if cached is None:
        cached = _TRIU_CACHE[n] = np.triu_indices(n, k=1)
    return cached


_TRIU_CACHE: dict = {}


def _bandwidths_from_blocks(sq_xx, sq_yy, sq_xy) -> tuple[float, float]:
    # within-sample pairs (i < j) plus every cross pair is exactly the set of
    # pooled-sample pairs, so the median here equals the pooled median
    vals = np.concatenate([sq_xx[_triu_indices(sq_xx.shape[0])],
                           sq_yy[_triu_indices(sq_yy.shape[0])],
                           sq_xy.ravel()])
    base = float(np.median(vals))
    if base <= 0.0:
        base = float(np.mean(vals))
    if base <= 0.0:
        base = 1.0
    return (base, 2.0 * base)


def median_heuristic_bandwidths(x, y) -> tuple[float, float]:
    """Median pairwise squared distance of the pooled sample, and twice it.

    Falls back to the mean (then 1.0) when the median degenerates to zero,
    e.g. when more than half the pooled values are identical.
    """
    xa = _column(x, "median_heuristic")
    ya = _column(y, "median_heuristic")
    d_xx = xa[:, None] - xa[None, :]
    d_yy = ya[:, None] - ya[None, :]
    d_xy = xa[:, None] - ya[None, :]
    return _bandwidths_from_blocks(d_xx * d_xx, d_yy * d_yy, d_xy * d_xy)


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
    grid = np.arange(1, L + 1) / (L + 1.0)
    qx = np.quantile(xa, grid, method="linear")
    qy = np.quantile(ya, grid, method="linear")
    return float(np.mean(np.abs(qx - qy)))


def kl_histogram_1d(x, y, bins: int = 32) -> float:
    """Histogram KL divergence KL(p_x || p_y) over a shared binning.

    Bin edges span the pooled range. Counts are smoothed additively with
    1/(bins*N) per bin for a sample of size N, so the estimate stays finite
    on disjoint supports and is exactly zero for identical samples.
    """
    if int(bins) < 2:
        raise ContractViolation(f"kl_histogram_1d: bins must be >= 2, got {bins}")
    bins = int(bins)
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
    """||Cov(fs) - Cov(ft)||_F^2 / (4 m^2) on the graph (ddof-1 covariance)."""
    if fs.shape[1] != ft.shape[1]:
        raise ShapeError("coral_penalty", fs.shape, ft.shape)
    if fs.shape[0] < 2 or ft.shape[0] < 2:
        raise ContractViolation("coral_penalty: needs at least 2 rows per domain")
    m = fs.shape[1]

    def cov(f):
        n = f.shape[0]
        centered = f - ad.take_rows(ad.mean_rows(f), [0] * n)
        return ad.matmul(ad.transpose(centered), centered) * (1.0 / (n - 1))

    diff = cov(fs) - cov(ft)
    return ad.total(diff * diff) * (1.0 / (4.0 * m * m))


def coral_penalty(fs, ft) -> float:
    """Plain CORAL penalty between two (n, m) feature matrices."""

    def as_matrix(f):
        arr = np.asarray(f, dtype=np.float64)
        return ad.tensor(arr.reshape(-1, 1) if arr.ndim == 1 else arr)

    return coral_penalty_graph(ad.constant(as_matrix(fs)),
                               ad.constant(as_matrix(ft))).item()


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


# -- analytic Gaussian references ------------------------------------------------

def gaussian_kl_univariate(mean0, var0, mean1, var1) -> float:
    """KL(N(mean0, var0) || N(mean1, var1))."""
    if var0 <= 0.0 or var1 <= 0.0:
        raise DomainError("gaussian_kl_univariate: variances must be positive")
    return float(0.5 * (var0 / var1 + (mean1 - mean0) ** 2 / var1 - 1.0
                        + np.log(var1 / var0)))


def gaussian_kl_multivariate(mean0, cov0, mean1, cov1) -> float:
    """KL(N(mean0, cov0) || N(mean1, cov1)) for full-rank covariances."""
    mean0 = np.asarray(mean0, dtype=np.float64).ravel()
    mean1 = np.asarray(mean1, dtype=np.float64).ravel()
    cov0 = np.atleast_2d(np.asarray(cov0, dtype=np.float64))
    cov1 = np.atleast_2d(np.asarray(cov1, dtype=np.float64))
    k = mean0.size
    if mean1.size != k or cov0.shape != (k, k) or cov1.shape != (k, k):
        raise ShapeError("gaussian_kl_multivariate", cov0.shape, cov1.shape)
    sign0, logdet0 = np.linalg.slogdet(cov0)
    sign1, logdet1 = np.linalg.slogdet(cov1)
    if sign0 <= 0 or sign1 <= 0:
        raise DomainError("gaussian_kl_multivariate: covariances must be positive definite")
    inv1 = np.linalg.inv(cov1)
    delta = mean1 - mean0
    val = 0.5 * (np.trace(inv1 @ cov0) + delta @ inv1 @ delta - k
                 + logdet1 - logdet0)
    return float(val)
