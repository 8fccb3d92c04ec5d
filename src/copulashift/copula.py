"""Dependence estimation and the copula distance.

The pairwise dependence of a feature matrix is summarized by a Gaussian
copula parameter rho per column pair, estimated through Kendall's tau via
the moment identity rho = sin(pi*tau/2). The copula distance between two
feature matrices is the weighted sum over pairs of absolute differences in
a closed-form dependence divergence driven entirely by the pair
determinant |Sigma| = 1 - rho^2.

Tau is the O(N) tanh-smoothed paired estimator, computed for all column
pairs in one graph node, so the distance is differentiable end to end.
The plain entry points (``kendall_tau_smooth``,
``pair_dependence_divergence``, ``copula_distance``) evaluate the same
graph and return its value.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import autodiff as ad
from .errors import ContractViolation, DomainError, ShapeError, is_int, is_real

EPS_CLIP = 1e-6

_CLOSED_FORM_TAGS = ("kl", "chi2", "w2", "mmd")


@dataclass(frozen=True)
class DependenceKind:
    """Closed-form divergence used for pairwise dependence comparison.

    Tags: ``kl``, ``chi2``, ``w2``, ``mmd`` (unit-bandwidth Gaussian kernel).
    """

    tag: str

    def __post_init__(self):
        if self.tag not in _CLOSED_FORM_TAGS:
            raise ContractViolation(f"DependenceKind: unknown tag {self.tag!r}")

    @classmethod
    def kl(cls):
        return cls("kl")

    @classmethod
    def chi2(cls):
        return cls("chi2")

    @classmethod
    def wasserstein2(cls):
        return cls("w2")

    @classmethod
    def mmd_unit(cls):
        return cls("mmd")


# The pair tables are cached, and every caller shares the cached object, so
# they are a tuple and read-only arrays. A run uses one or two widths; the
# bound keeps a process that sees many wide inputs from holding them all.
@functools.lru_cache(maxsize=8)
def _pairs(m: int) -> tuple[tuple[int, int], ...]:
    """Feature pairs (i < j) of an m-dim representation in ascending order."""
    return tuple((i, j) for i in range(m) for j in range(i + 1, m))


@functools.lru_cache(maxsize=8)
def _pair_index(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The first and second columns of ``_pairs(m)`` as read-only intp arrays."""
    first, second = np.triu_indices(m, k=1)  # row-major, the order of _pairs
    first.setflags(write=False)
    second.setflags(write=False)
    return first, second


def _check_width(m) -> int:
    if not is_int(m) or m < 2:
        raise ContractViolation(f"PairWeights: m must be an integer >= 2, got {m!r}")
    return int(m)


@dataclass(frozen=True)
class PairWeights:
    """Nonnegative weight per feature pair (i < j); frozen once validated."""

    m: int
    weights: Mapping = field(default_factory=dict)
    _row: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "m", _check_width(self.m))
        if not isinstance(self.weights, Mapping):
            raise ContractViolation(
                f"PairWeights: weights must be a mapping, got {type(self.weights).__name__}")
        pairs = _pairs(self.m)
        expected = set(pairs)
        got = set(self.weights)
        if got != expected:
            raise ContractViolation(
                f"PairWeights: keys must cover exactly the {len(expected)} pairs "
                f"of m={self.m}; missing {sorted(expected - got)[:3]}, "
                f"extra {sorted(got - expected)[:3]}")
        values = [self.weights[p] for p in pairs]
        # a value that is not a real number reads as NaN, so one check finds it
        row = np.array([v if is_real(v) else np.nan for v in values], dtype=np.float64)
        bad = ~(np.isfinite(row) & (row >= 0.0))
        if bad.any():
            k = int(np.argmax(bad))
            raise ContractViolation(f"PairWeights: weight for {pairs[k]} must be a finite "
                                    f"number >= 0, got {values[k]!r}")
        object.__setattr__(self, "weights", MappingProxyType(dict(zip(pairs, row.tolist()))))
        object.__setattr__(self, "_row", ad.tensor(row[None, :]))

    @classmethod
    def uniform(cls, m: int, value: float = 1.0):
        m = _check_width(m)
        return cls(m, dict.fromkeys(_pairs(m), value))

    def as_row(self) -> np.ndarray:
        """Weights in ascending (i, j) order as a read-only (1, P) array."""
        return self._row


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
    if not is_real(a) or not np.isfinite(a) or a <= 0:
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
    t = dT[first] * dT[second]  # (P, k); worked in place to spare fresh arrays
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

def copula_distance_graph(fs: ad.Node, ft: ad.Node, beta: PairWeights,
                          kind: DependenceKind, a: float) -> ad.Node:
    """Copula distance between two (N, m) feature nodes, differentiable.

    Per pair (i < j) and per domain: smoothed tau over consecutive row
    pairs -> rho = sin(pi tau/2) -> closed-form divergence; the aggregate
    is sum_{i<j} beta_ij |H_s - H_t|. Odd row counts drop the final row.
    """
    a = _check_sharpness(a)
    if fs.shape[1] != ft.shape[1]:
        raise ShapeError("copula_distance", fs.shape, ft.shape)
    m = fs.shape[1]
    if m < 2:
        raise ContractViolation(f"copula_distance: m must be >= 2, got {m}")
    if beta.m != m:
        raise ContractViolation(
            f"copula_distance: weights are for m={beta.m}, features have m={m}")
    n = min(fs.shape[0], ft.shape[0])
    if n < 2:
        raise ContractViolation(f"copula_distance: needs >= 2 rows, got {n}")

    def pair_divergences(f):
        rhos = copula_param_from_tau(_smooth_taus(f, a))
        det = 1.0 - rhos * rhos
        return _divergence_from_det(det, kind.tag)

    gap = ad.absolute(pair_divergences(fs) - pair_divergences(ft))
    # the row was validated and frozen when the weights were built
    return ad.total(gap * ad.Node(beta.as_row(), "constant"))


def copula_distance(fs, ft, beta: PairWeights, kind: DependenceKind,
                    a: float = 100.0) -> float:
    """Plain copula distance between two (N, m) sample matrices."""
    fs = np.asarray(fs, dtype=np.float64)
    ft = np.asarray(ft, dtype=np.float64)
    if fs.ndim != 2 or ft.ndim != 2:
        raise ContractViolation("copula_distance: inputs must be 2-D sample matrices")
    node = copula_distance_graph(ad.constant(fs), ad.constant(ft), beta, kind, a)
    return node.item()
