"""Dependence estimation and the copula distance.

The pairwise dependence of a feature matrix is summarized by a Gaussian
copula parameter rho per column pair, estimated through Kendall's tau via
the moment identity rho = sin(pi*tau/2). The copula distance between two
feature matrices is the weighted sum over pairs of absolute differences in
a closed-form dependence divergence driven entirely by the pair
determinant |Sigma| = 1 - rho^2.

Two tau estimators are provided: the O(N^2) sign statistic (test oracle)
and the O(N) tanh-smoothed paired estimator used during training, which is
differentiable through the graph engine. A Monte-Carlo integrator over the
unit square serves as the independent oracle for the closed forms.
"""

from __future__ import annotations

import functools
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import autodiff as ad
from .errors import ContractViolation, DomainError, ShapeError

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
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 2:
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
        row = np.array([v if isinstance(v, numbers.Real) and not isinstance(v, bool)
                        else np.nan for v in values], dtype=np.float64)
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


@dataclass(frozen=True)
class CopulaEstimate:
    """Pairwise Gaussian-copula parameter matrix with per-pair determinants."""

    sigma: np.ndarray
    pair_determinants: dict

    def __post_init__(self):
        s = self.sigma
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ContractViolation("CopulaEstimate: sigma must be square")
        if not np.array_equal(s, s.T):
            raise ContractViolation("CopulaEstimate: sigma must be exactly symmetric")
        if not np.all(np.diag(s) == 1.0):
            raise ContractViolation("CopulaEstimate: sigma diagonal must be exactly 1")
        off = s[~np.eye(s.shape[0], dtype=bool)]
        if off.size and np.max(np.abs(off)) > 1.0 - EPS_CLIP:
            raise ContractViolation("CopulaEstimate: off-diagonal entries exceed the clip bound")


# -- Kendall's tau ------------------------------------------------------------

def _as_pairs(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ContractViolation(f"expected an N x 2 sample matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("sample matrix contains non-finite values")
    return arr


def kendall_tau_exact(pairs) -> float:
    """Sign-based Kendall's tau over all sample pairs; O(N^2), test oracle."""
    arr = _as_pairs(pairs)
    n = arr.shape[0]
    if n < 2:
        raise ContractViolation(f"kendall_tau_exact: need N >= 2, got {n}")
    x, y = arr[:, 0], arr[:, 1]
    total = 0.0
    chunk = 512
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        dx = x[sl, None] - x[None, :]
        dy = y[sl, None] - y[None, :]
        total += float(np.sum(np.sign(dx) * np.sign(dy)))
    # the double loop counted each unordered pair twice and the zero diagonal
    return total / (n * (n - 1))


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


def _check_sharpness(a: float) -> float:
    if not np.isfinite(a) or a <= 0:
        raise ContractViolation(f"smoothing sharpness a must be positive, got {a}")
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


def copula_param_from_tau(tau):
    """Moment matching rho = sin(pi * tau / 2), clipped away from +-1.

    Accepts floats, arrays, or graph nodes; the plain path validates
    |tau| <= 1 while the graph path relies on the estimator's range.
    """
    if not isinstance(tau, ad.Node):
        t = np.asarray(tau, dtype=np.float64)
        if np.any(np.abs(t) > 1.0):
            raise ContractViolation("copula_param_from_tau: |tau| must be <= 1")
    return ad.clamp(ad.sin(tau * (np.pi / 2.0)), lo=-1.0 + EPS_CLIP, hi=1.0 - EPS_CLIP)


def estimate_copula(samples, a: float | None = None) -> CopulaEstimate:
    """Pairwise copula parameters of an (N, m) sample, smooth or exact tau.

    ``a`` selects the tanh-smoothed O(N) estimator; ``None`` uses the exact
    sign statistic. Odd N drops the final row on the smooth path.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ContractViolation(
            f"estimate_copula: need an N x m sample with N, m >= 2, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("estimate_copula: sample contains non-finite values")
    m = arr.shape[1]
    pair_list = _pairs(m)
    if a is None:
        taus = [kendall_tau_exact(arr[:, [i, j]]) for i, j in pair_list]
    else:
        taus = _smooth_taus(ad.constant(arr), _check_sharpness(a)).value.ravel()
    sigma = np.eye(m)
    dets = {}
    for (i, j), tau in zip(pair_list, taus):
        rho = float(copula_param_from_tau(tau))
        sigma[i, j] = rho
        sigma[j, i] = rho
        dets[(i, j)] = 1.0 - rho * rho
    return CopulaEstimate(sigma=sigma, pair_determinants=dets)


# -- closed-form pairwise divergences ------------------------------------------

def _divergence_from_det(det, tag: str):
    """Closed-form H(P_12, P_1 P_2) as a function of |Sigma| = 1 - rho^2.

    Works on floats, arrays, and graph nodes via the dispatching helpers.
    W2 and MMD forms are squared distances; their square root is returned.
    ``tag`` is one of the closed-form tags DependenceKind admits.
    """
    if tag == "kl":
        return ad.log(det) * -0.5
    if tag == "chi2":
        return 1.0 / det - 1.0 if not isinstance(det, ad.Node) else ad.div(1.0, det) - 1.0
    if tag == "w2":
        sq = 4.0 - 2.0 * ad.sqrt(2.0 + 2.0 * ad.sqrt(det))
        return ad.sqrt(ad.clamp(sq, lo=0.0))
    # tag == "mmd"
    sq = (1.0 / ad.sqrt(9.0 + 16.0 * det) + 0.2
          - 2.0 / ad.sqrt(21.0 + 4.0 * det))
    return ad.sqrt(ad.clamp(sq, lo=0.0))


def pair_dependence_divergence(rho: float, kind: DependenceKind) -> float:
    """Closed-form dependence divergence of a Gaussian copula with parameter rho."""
    if abs(rho) > 1.0 - EPS_CLIP:
        raise ContractViolation(
            f"pair_dependence_divergence: |rho| must be <= {1.0 - EPS_CLIP}, got {rho}")
    det = 1.0 - rho * rho
    return float(_divergence_from_det(det, kind.tag))


# -- Monte-Carlo oracle ---------------------------------------------------------

# Acklam rational approximation coefficients for the inverse standard
# normal CDF (central region plus two tail branches).
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02,
             -2.759285104469687e+02, 1.383577518672690e+02,
             -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02,
             -1.556989798598866e+02, 6.680131188771972e+01,
             -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01,
             -2.400758277161838e+00, -2.549732539343734e+00,
             4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01,
             2.445134137142996e+00, 3.754408661907416e+00)
_ACKLAM_SPLIT = 0.02425


def inverse_normal_cdf(p):
    """Inverse standard normal CDF via Acklam's rational approximation."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DomainError("inverse_normal_cdf: p must lie strictly in (0, 1)")
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    out = np.empty_like(p)

    low = p < _ACKLAM_SPLIT
    high = p > 1.0 - _ACKLAM_SPLIT
    mid = ~(low | high)

    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        out[mid] = num * q / den
    if np.any(low):
        q = np.sqrt(-2.0 * np.log(p[low]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        out[low] = num / den
    if np.any(high):
        q = np.sqrt(-2.0 * np.log(1.0 - p[high]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        out[high] = -num / den
    return out if out.ndim else float(out)


def gaussian_copula_density(u1, u2, rho: float):
    """Bivariate Gaussian copula density c(u1, u2) at parameter rho."""
    if abs(rho) > 1.0 - EPS_CLIP:
        raise ContractViolation(f"gaussian_copula_density: |rho| too close to 1: {rho}")
    x1 = inverse_normal_cdf(u1)
    x2 = inverse_normal_cdf(u2)
    det = 1.0 - rho * rho
    quad = (rho * rho * (x1 * x1 + x2 * x2) - 2.0 * rho * x1 * x2) / (2.0 * det)
    return np.exp(-quad) / np.sqrt(det)


def _phi(tag: str):
    if tag == "kl":
        return lambda c: c * np.log(c)
    if tag == "chi2":
        return lambda c: c * c - 1.0
    raise ContractViolation(
        f"pair_dependence_divergence_mc: kind {tag!r} is not a phi-divergence")


def pair_dependence_divergence_mc(rho: float, kind: DependenceKind, seed: int,
                                  mc_samples: int = 1_000_000) -> tuple[float, float]:
    """Monte-Carlo estimate of the dependence divergence, with standard error.

    Integrates phi(c(u1, u2)) over the unit square by uniform sampling;
    the independent oracle for the closed forms.
    """
    if int(mc_samples) < 10_000:
        raise ContractViolation("pair_dependence_divergence_mc: mc_samples must be >= 10^4")
    phi = _phi(kind.tag)
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(mc_samples, 2))
    vals = phi(gaussian_copula_density(u[:, 0], u[:, 1], rho))
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(mc_samples))
    return mean, se


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


def cd_kl_gradient_analytic(fs, ft, beta: PairWeights, a: float = 100.0) -> np.ndarray:
    """Hand-derived gradient of the KL copula distance w.r.t. the fs entries.

    Chain: CD = sum beta_ij |h_s - h_t| with h = -log(1 - rho^2)/2,
    rho = clip(sin(pi tau / 2)), tau the tanh-paired estimator. Matches the
    graph engine's subgradient conventions (0 at the |.| kink, 0 where the
    clip is active, final odd row ignored). Verification-only.
    """
    a = _check_sharpness(a)
    fs = np.asarray(fs, dtype=np.float64)
    ft = np.asarray(ft, dtype=np.float64)
    if fs.ndim != 2 or ft.ndim != 2 or fs.shape[1] != ft.shape[1]:
        raise ShapeError("cd_kl_gradient_analytic", fs.shape, ft.shape)
    m = fs.shape[1]
    if beta.m != m:
        raise ContractViolation("cd_kl_gradient_analytic: weight dimension mismatch")

    def stats(f):
        n2 = f.shape[0] - (f.shape[0] % 2)
        d = f[0:n2:2] - f[1:n2:2]
        out = {}
        for i, j in _pairs(m):
            t = np.tanh(a * d[:, i] * d[:, j])
            tau = float(np.mean(t))
            rho_raw = np.sin(np.pi * tau / 2.0)
            rho = float(np.clip(rho_raw, -1.0 + EPS_CLIP, 1.0 - EPS_CLIP))
            h = -0.5 * np.log(1.0 - rho * rho)
            out[(i, j)] = (d, t, tau, rho_raw, rho, h)
        return out

    s_stats = stats(fs)
    t_stats = stats(ft)
    grad = np.zeros_like(fs)
    n2 = fs.shape[0] - (fs.shape[0] % 2)
    k = n2 // 2
    for (i, j), (d, t, tau, rho_raw, rho, h_s) in s_stats.items():
        h_t = t_stats[(i, j)][5]
        sgn = np.sign(h_s - h_t)
        if sgn == 0.0:
            continue
        clipped = abs(rho_raw) >= 1.0 - EPS_CLIP
        if clipped:
            continue
        dh_drho = rho / (1.0 - rho * rho)
        drho_dtau = (np.pi / 2.0) * np.cos(np.pi * tau / 2.0)
        coef = beta.weights[(i, j)] * sgn * dh_drho * drho_dtau / k
        dt = a * (1.0 - t * t)
        gi = coef * dt * d[:, j]
        gj = coef * dt * d[:, i]
        grad[0:n2:2, i] += gi
        grad[1:n2:2, i] -= gi
        grad[0:n2:2, j] += gj
        grad[1:n2:2, j] -= gj
    return grad
