"""Dependence estimation and the copula distance.

The pairwise dependence of a feature matrix is summarized by a Gaussian
copula parameter rho per column pair, estimated through Kendall's tau via
the moment identity rho = sin(pi*tau/2). The copula distance between two
feature matrices is beta times the sum over pairs of absolute differences
in a closed-form dependence divergence driven entirely by the pair
determinant |Sigma| = 1 - rho^2.

Tau is the O(N) tanh-smoothed paired estimator. The distance is one graph
node on both feature matrices, differentiable end to end. Only live
columns, in which some row pair differs, enter its tanh products: a dead
column gives each of its pairs tau = 0, so rho = 0, det = 1 and a zero
gradient, and skipping those pairs changes no bit. The plain entry points
(``kendall_tau_smooth``, ``pair_dependence_divergence``,
``copula_distance``) share its arithmetic and return plain numbers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractViolation, DomainError, ShapeError, check_real, is_real

EPS_CLIP = 1e-6

H2_TAGS = ("kl", "chi2", "w2", "mmd")

_HALF_PI = np.pi / 2.0


@dataclass(frozen=True)
class DependenceKind:
    """Closed-form divergence (H2) used for pairwise dependence comparison.

    ``tag`` is one of ``H2_TAGS``: ``kl``, ``chi2``, ``w2``, ``mmd``
    (unit-bandwidth Gaussian kernel).
    """

    tag: str

    def __post_init__(self):
        if self.tag not in H2_TAGS:
            raise ContractViolation(
                f"DependenceKind: h2 must be one of {H2_TAGS}, got {self.tag!r}")


# -- Kendall's tau ------------------------------------------------------------

def _as_pairs(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ContractViolation(f"expected an N x 2 sample matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("sample matrix contains non-finite values")
    return arr


def kendall_tau_smooth(pairs, a: float) -> float:
    """O(N) tanh-smoothed tau over consecutive disjoint row pairs.

    (2/N) sum_{n=1}^{N/2} tanh(a * (x_{2n-1,1}-x_{2n,1}) * (x_{2n-1,2}-x_{2n,2})).
    Rows are consumed in order; shuffle beforehand for a randomized pairing.
    """
    arr = _as_pairs(pairs)
    n = arr.shape[0]
    if n < 2 or n % 2 != 0:
        raise ContractViolation(
            f"kendall_tau_smooth: N must be even and >= 2, got {n} (caller drops one row)")
    return float(_tanh_products(_paired_diffs(arr), _check_sharpness(a)).mean(axis=1)[0])


def _check_sharpness(a) -> float:
    return check_real("copula", "smoothing sharpness a", a, 0, strict=True)


def _paired_diffs(f: np.ndarray) -> np.ndarray:
    """(m, k) differences of the row pairs (0, 1), (2, 3), ... of (N, m) ``f``, a column a row.

    k = N // 2; an odd final row is left out.
    """
    k = f.shape[0] // 2
    return np.ascontiguousarray((f[0:2 * k:2] - f[1:2 * k:2]).T)


def _tanh_products(dT: np.ndarray, a: float) -> np.ndarray:
    """(P, k) tanh(a d_i d_j) of every pair (i < j) of the rows of ``dT``, in ``_pair_index`` order.

    Worked in place. Pairs (i, i+1..m-1) are consecutive, so each first row
    writes its block with one product and no gathered copies of ``dT``.
    """
    m, k = dT.shape
    t = np.empty((m * (m - 1) // 2, k))
    start = 0
    for i in range(m - 1):
        stop = start + m - 1 - i
        np.multiply(dT[i + 1:], dT[i], out=t[start:stop])
        start = stop
    t *= a
    np.tanh(t, out=t)
    return t


@functools.lru_cache(maxsize=8)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every pair (i < j) of ``range(n)``, row-major; cached, so read-only."""
    first, second = np.triu_indices(n, k=1)
    first.setflags(write=False)
    second.setflags(write=False)
    return first, second


# -- closed-form pairwise divergences ------------------------------------------

def _clamped_root(sq: np.ndarray, back):
    """sqrt(max(sq, 0)), and ``back`` composed with its gradient."""
    root = np.sqrt(np.clip(sq, 0.0, None))
    return root, lambda g: back(g * ad._dsqrt(root) * (sq > 0.0))


def _divergence_from_det(det: np.ndarray, tag: str):
    """Closed-form H(P_12, P_1 P_2) of determinants |Sigma| = 1 - rho^2, and dH -> d det.

    W2 and MMD forms are squared distances; their square root is returned.
    Each form computes its value and gradient op for op as the autodiff
    ops (log, div, sqrt, clamp, scalar add and scale) it was written with.
    """
    if tag == "kl":
        return np.log(det) * -0.5, lambda g: g * -0.5 / det
    if tag == "chi2":
        return 1.0 / det - 1.0, lambda g: -g / (det * det)
    if tag == "w2":
        r1 = np.sqrt(det)
        r2 = np.sqrt(r1 * 2.0 + 2.0)
        return _clamped_root(4.0 - r2 * 2.0,
                             lambda g: -g * 2.0 * ad._dsqrt(r2) * 2.0 * ad._dsqrt(r1))
    # tag == "mmd"
    s1 = np.sqrt(det * 16.0 + 9.0)
    s2 = np.sqrt(det * 4.0 + 21.0)
    return _clamped_root(
        (1.0 / s1 + 0.2) - 2.0 / s2,
        lambda g: g * 2.0 / (s2 * s2) * ad._dsqrt(s2) * 4.0
        + -g / (s1 * s1) * ad._dsqrt(s1) * 16.0)


def pair_dependence_divergence(rho: float, kind: DependenceKind) -> float:
    """Closed-form dependence divergence of a Gaussian copula with parameter rho."""
    if not is_real(rho) or not abs(rho) <= 1.0 - EPS_CLIP:
        raise ContractViolation(
            f"pair_dependence_divergence: rho must be a number with |rho| <= {1.0 - EPS_CLIP}, "
            f"got {rho!r}")
    det = np.array([[1.0 - rho * rho]])
    return float(_divergence_from_det(det, kind.tag)[0][0, 0])


def _pair_divergences(f: np.ndarray, a: float, tag: str):
    """(1, P) divergences H of every column pair of (N, m) ``f``, and dH -> d f.

    Per pair: tau -> rho = clip(sin(pi tau / 2), +-(1 - EPS_CLIP)) ->
    det = 1 - rho^2 -> H. The tanh products run over live columns only and
    a dead pair's tau is 0; the rest runs over all P pairs.
    """
    n, m = f.shape
    k = n // 2
    dT = _paired_diffs(f)
    live = (dT != 0.0).any(axis=1)
    # einsum sums the kernel in order from +0.0, so dropping +-0 terms moves
    # no bit; at k = 1 it sums in unrolled blocks instead, so keep them all
    if k == 1:
        live[:] = True
    first, second = _pair_index(m)
    pairs = live[first] & live[second]
    dT = dT[live]
    t = _tanh_products(dT, a)
    tau = np.zeros((1, pairs.size))
    tau[0, pairs] = t.mean(axis=1)
    s = tau * _HALF_PI
    sn = np.sin(s)
    lo, hi = -1.0 + EPS_CLIP, 1.0 - EPS_CLIP
    rho = np.clip(sn, lo, hi)
    h, h_back = _divergence_from_det(1.0 - rho * rho, tag)

    def back(g):
        g_rr = -h_back(g)
        g_rho = g_rr * rho + g_rr * rho  # mul(rho, rho) hands each factor its term
        g_tau = g_rho * ((sn > lo) & (sn < hi)) * np.cos(s) * _HALF_PI
        # d tau_ij / d d_i = a (1 - t^2) d_j / k: a symmetric (m_l, m_l, k)
        # kernel with a zero diagonal, whose packed weights w fill its first rows
        ml = dT.shape[0]
        kernel = np.empty((ml, ml, k))
        rows = kernel.reshape(ml * ml, k)
        w = np.multiply(t, t, out=rows[:t.shape[0]])
        np.subtract(1.0, w, out=w)
        w *= a
        w *= g_tau[:, pairs].T / k
        # unpacked last block first: block i writes at or after row i*ml + i + 1,
        # past the unread blocks before it; its row copy may overlap its own
        # source, which numpy's overlapping assignment copies correctly
        stop = w.shape[0]
        for i in range(ml - 2, -1, -1):
            start = stop - (ml - 1 - i)
            kernel[i + 1:, i] = w[start:stop]
            kernel[i, i + 1:] = w[start:stop]
            stop = start
        rows[::ml + 1] = 0.0  # the diagonal, once every block is read
        grad = np.zeros((n, m))
        grad[0:2 * k:2, live] = np.einsum("ijr,jr->ri", kernel, dT)
        grad[1:2 * k:2] = -grad[0:2 * k:2]  # a dead column's odd rows read -0.0
        return grad

    return h, back


# -- the Eq. 2 aggregate ---------------------------------------------------------

def copula_distance_graph(fs: ad.Node, ft: ad.Node, beta: float,
                          kind: DependenceKind, a: float) -> ad.Node:
    """Copula distance between two (N, m) feature nodes, as one node on (fs, ft).

    Per pair (i < j) and per domain: smoothed tau over consecutive row
    pairs -> rho = sin(pi tau/2) -> closed-form divergence; the aggregate
    is beta * sum_{i<j} |H_s - H_t|, one weight for every pair. Odd row
    counts drop the final row. Only live columns (some row pair differs)
    enter the tanh products; a dead column's pairs get tau = 0, which is
    what the products would give. Value and gradients have the bits of the
    graph composite of autodiff ops.
    """
    beta = check_real("copula_distance", "beta", beta, 0)
    a = _check_sharpness(a)
    if fs.shape[1] != ft.shape[1]:
        raise ShapeError("copula_distance", fs.shape, ft.shape)
    m = fs.shape[1]
    if m < 2:
        raise ContractViolation(f"copula_distance: m must be >= 2, got {m}")
    n = min(fs.shape[0], ft.shape[0])
    if n < 2:
        raise ContractViolation(f"copula_distance: needs >= 2 rows, got {n}")
    (hs, back_s), (ht, back_t) = (_pair_divergences(f.value, a, kind.tag) for f in (fs, ft))
    gap = hs - ht
    out = np.array([[(np.abs(gap) * beta).sum()]])

    def back(g):
        g_gap = np.full(gap.shape, g[0, 0]) * beta * np.sign(gap)
        return back_s(g_gap), back_t(-g_gap)

    return ad.Node(out, "copula_distance", (fs, ft), back)


def copula_distance(fs, ft, beta: float, kind: DependenceKind,
                    a: float = 100.0) -> float:
    """Plain copula distance between two (N, m) sample matrices."""
    fs = np.asarray(fs, dtype=np.float64)
    ft = np.asarray(ft, dtype=np.float64)
    if fs.ndim != 2 or ft.ndim != 2:
        raise ContractViolation("copula_distance: inputs must be 2-D sample matrices")
    node = copula_distance_graph(ad.constant(fs), ad.constant(ft), beta, kind, a)
    return node.item()
