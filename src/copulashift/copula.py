"""Dependence estimation and the copula distance.

The pairwise dependence of a feature matrix is summarized by a Gaussian
copula parameter rho per column pair, estimated through Kendall's tau via
the moment identity rho = sin(pi*tau/2). The copula distance between two
feature matrices is beta times the sum over pairs of absolute differences
in a closed-form dependence divergence driven entirely by the pair
determinant |Sigma| = 1 - rho^2.

Tau is the O(N) tanh-smoothed paired estimator, computed for all column
pairs in one graph node, so the distance is differentiable end to end.
The plain entry points (``kendall_tau_smooth``,
``pair_dependence_divergence``, ``copula_distance``) evaluate the same
graph and return its value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .divergences import _pair_index
from .errors import ContractViolation, DomainError, ShapeError, is_finite_real, is_real

EPS_CLIP = 1e-6

H2_TAGS = ("kl", "chi2", "w2", "mmd")


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
    return _smooth_taus(ad.constant(arr), _check_sharpness(a)).item()


def _check_sharpness(a) -> float:
    if not is_finite_real(a) or a <= 0:
        raise ContractViolation(f"smoothing sharpness a must be a positive number, got {a!r}")
    return float(a)


def _smooth_taus(f: ad.Node, a: float) -> ad.Node:
    """(1, P) tanh-smoothed taus of every column pair (i < j) of an (N, m) node.

    Rows (0, 1), (2, 3), ... form the k = N // 2 disjoint pairs; an odd final
    row is left out. One node: with d = f[0::2] - f[1::2], the gradient of
    d[:, i] is sum_j W[i, j] d[:, j], W symmetric with w = g a (1 - t^2) / k.
    """
    n, m = f.shape
    k = n // 2
    first, second = _pair_index(m)
    dT = np.ascontiguousarray((f.value[0:2 * k:2] - f.value[1:2 * k:2]).T)
    # (P, k), worked in place to spare fresh arrays. Pairs (i, i+1..m-1) are
    # consecutive rows in ``_pair_index`` order, so each first column writes
    # its block with one product and no gathered copies of dT.
    t = np.empty((first.size, k))
    start = 0
    for i in range(m - 1):
        stop = start + m - 1 - i
        np.multiply(dT[i + 1:], dT[i], out=t[start:stop])
        start = stop
    t *= a
    np.tanh(t, out=t)
    tau = t.mean(axis=1).reshape(1, -1)
    tau.setflags(write=False)

    def back(g):
        w = t * t
        np.subtract(1.0, w, out=w)
        w *= a
        w *= g.T / k
        big_w = np.zeros((m, m, k))
        big_w[first, second] = w
        big_w[second, first] = w
        gd = np.einsum("ijr,jr->ri", big_w, dT)
        grad = np.zeros((n, m))
        grad[0:2 * k:2] = gd
        grad[1:2 * k:2] = -gd
        return (grad,)

    return ad.Node(tau, "smooth_taus", (f,), back)


def copula_param_from_tau(tau: ad.Node) -> ad.Node:
    """Moment matching rho = sin(pi * tau / 2) on a tau node, clipped away from +-1.

    The smoothed estimator keeps |tau| <= 1, so the range is not re-checked.
    """
    return ad.clamp(ad.sin(tau * (np.pi / 2.0)), lo=-1.0 + EPS_CLIP, hi=1.0 - EPS_CLIP)


# -- closed-form pairwise divergences ------------------------------------------

def _divergence_from_det(det: ad.Node, tag: str) -> ad.Node:
    """Closed-form H(P_12, P_1 P_2) of a node of determinants |Sigma| = 1 - rho^2.

    W2 and MMD forms are squared distances; their square root is returned.
    ``tag`` is one of the closed-form tags DependenceKind admits.
    """
    if tag == "kl":
        return ad.log(det) * -0.5
    if tag == "chi2":
        return ad.div(1.0, det) - 1.0
    if tag == "w2":
        sq = 4.0 - 2.0 * ad.sqrt(2.0 + 2.0 * ad.sqrt(det))
        return ad.sqrt(ad.clamp(sq, lo=0.0))
    # tag == "mmd"
    sq = (1.0 / ad.sqrt(9.0 + 16.0 * det) + 0.2
          - 2.0 / ad.sqrt(21.0 + 4.0 * det))
    return ad.sqrt(ad.clamp(sq, lo=0.0))


def pair_dependence_divergence(rho: float, kind: DependenceKind) -> float:
    """Closed-form dependence divergence of a Gaussian copula with parameter rho."""
    if not is_real(rho) or not abs(rho) <= 1.0 - EPS_CLIP:
        raise ContractViolation(
            f"pair_dependence_divergence: rho must be a number with |rho| <= {1.0 - EPS_CLIP}, "
            f"got {rho!r}")
    det = 1.0 - rho * rho
    return _divergence_from_det(ad.constant(det), kind.tag).item()


# -- the Eq. 2 aggregate ---------------------------------------------------------

def copula_distance_graph(fs: ad.Node, ft: ad.Node, beta: float,
                          kind: DependenceKind, a: float) -> ad.Node:
    """Copula distance between two (N, m) feature nodes, differentiable.

    Per pair (i < j) and per domain: smoothed tau over consecutive row
    pairs -> rho = sin(pi tau/2) -> closed-form divergence; the aggregate
    is beta * sum_{i<j} |H_s - H_t|, one weight for every pair. Odd row
    counts drop the final row.
    """
    if not is_finite_real(beta) or beta < 0:
        raise ContractViolation(
            f"copula_distance: beta must be a finite number >= 0, got {beta!r}")
    beta = float(beta)
    a = _check_sharpness(a)
    if fs.shape[1] != ft.shape[1]:
        raise ShapeError("copula_distance", fs.shape, ft.shape)
    m = fs.shape[1]
    if m < 2:
        raise ContractViolation(f"copula_distance: m must be >= 2, got {m}")
    n = min(fs.shape[0], ft.shape[0])
    if n < 2:
        raise ContractViolation(f"copula_distance: needs >= 2 rows, got {n}")

    def pair_divergences(f):
        rhos = copula_param_from_tau(_smooth_taus(f, a))
        det = 1.0 - rhos * rhos
        return _divergence_from_det(det, kind.tag)

    gap = ad.absolute(pair_divergences(fs) - pair_divergences(ft))
    return ad.total(gap * beta)


def copula_distance(fs, ft, beta: float, kind: DependenceKind,
                    a: float = 100.0) -> float:
    """Plain copula distance between two (N, m) sample matrices."""
    fs = np.asarray(fs, dtype=np.float64)
    ft = np.asarray(ft, dtype=np.float64)
    if fs.ndim != 2 or ft.ndim != 2:
        raise ContractViolation("copula_distance: inputs must be 2-D sample matrices")
    node = copula_distance_graph(ad.constant(fs), ad.constant(ft), beta, kind, a)
    return node.item()
