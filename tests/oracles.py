"""Reference implementations the tests compare the package against.

None of this runs in training or in a CLI verb: the finite-difference
checker, the O(N^2) Kendall tau, the Monte-Carlo integrator for the closed
forms (with Acklam's inverse normal CDF), the hand-derived gradient of the
KL copula distance, the analytic Gaussian KLs, the graph composites the
fused nodes replaced (copula distance with its tau node and closed forms,
sorted W1 term, smoothed tau, dense layer, softmax cross-entropy, squared
error, CORAL) with the ``sub``, ``mean``, ``div``, ``log``, ``sin``,
``absolute``, ``mean_rows``, ``sort_cols``, ``neg``, ``transpose`` and
``softmax_rows`` ops only they build with, the per-array Adam step the
flat one replaced, the row reductions and the CORAL centering that the
column-at-a-time forms replaced, the ``np.triu_indices`` gather of the MMD
median bandwidth, the tie loop of the Mann-Whitney AUC, and the per-line
test the loader's content-line regex replaced.
"""

from typing import Callable, Sequence

import numpy as np

import copulashift.autodiff as ad
from copulashift.copula import (EPS_CLIP, DependenceKind, _as_pairs, _check_sharpness,
                                _pair_index, _paired_diffs, _tanh_products)
from copulashift.errors import ContractViolation, DomainError, ShapeError


# -- the autodiff ops that only the composites below build with ----------------

def sub(a, b) -> ad.Node:
    a, b = ad._pair("sub", a, b)
    out = ad._seal(a.value - b.value)
    return ad.Node(out, "sub", (a, b),
                   lambda g: (ad._unbroadcast(g, a.shape), ad._unbroadcast(-g, b.shape)))


def mean(a) -> ad.Node:
    """Mean of all entries, as a (1, 1) node."""
    a = ad.constant(a)
    out = ad._seal(np.array([[a.value.mean()]]))
    shape, size = a.shape, a.value.size
    return ad.Node(out, "mean", (a,),
                   lambda g: (np.full(shape, g[0, 0] / size),))


def div(a, b) -> ad.Node:
    a, b = ad._pair("div", a, b)
    if np.any(b.value == 0.0):
        raise DomainError("div: denominator contains zero")
    out = ad._seal(a.value / b.value)
    return ad.Node(out, "div", (a, b),
                   lambda g: (ad._unbroadcast(g / b.value, a.shape),
                              ad._unbroadcast(-g * a.value / (b.value * b.value), b.shape)))


def log(a) -> ad.Node:
    a = ad.constant(a)
    if np.any(a.value <= 0.0):
        raise DomainError("log: operand must be strictly positive")
    out = ad._seal(np.log(a.value))
    return ad.Node(out, "log", (a,), lambda g: (g / a.value,))


def sin(a) -> ad.Node:
    a = ad.constant(a)
    out = ad._seal(np.sin(a.value))
    return ad.Node(out, "sin", (a,), lambda g: (g * np.cos(a.value),))


def absolute(a) -> ad.Node:
    """|a|, with subgradient 0 at the kink."""
    a = ad.constant(a)
    out = ad._seal(np.abs(a.value))
    return ad.Node(out, "abs", (a,), lambda g: (g * np.sign(a.value),))


def mean_rows(a) -> ad.Node:
    """Column means: (n, m) -> (1, m)."""
    a = ad.constant(a)
    out = ad._seal(a.value.mean(axis=0, keepdims=True))
    n = a.shape[0]
    return ad.Node(out, "mean_rows", (a,),
                   lambda g: (np.repeat(g / n, n, axis=0),))


def sort_cols(a, kind=None) -> ad.Node:
    """Sort every column ascending; the backward un-permutes.

    ``kind`` is numpy's sort kind; the default is the one
    ``divergences.w1_columns_graph`` sorts with. Each column's order is a
    permutation, so the backward is a plain write of the output gradient
    back to the source rows: nothing is summed.
    """
    a = ad.constant(a)
    order = np.argsort(a.value, axis=0, kind=kind)
    out = ad._seal(np.take_along_axis(a.value, order, axis=0))

    def back(g):
        z = np.empty_like(g)  # every entry is written: each column is a permutation
        np.put_along_axis(z, order, g, axis=0)
        return (z,)

    return ad.Node(out, "sort_cols", (a,), back)


# -- the copula distance and the W1 term as graph composites -------------------

def smooth_taus(f: ad.Node, a: float) -> ad.Node:
    """(1, P) tanh-smoothed taus of every column pair (i < j) of an (N, m) node.

    The one tau node the copula distance was built with before it became
    one node itself: the package's tau forward, and a backward that runs the
    (m, m, k) kernel over every pair, dead columns included. With
    d = f[0::2] - f[1::2], the gradient of d[:, i] is sum_j W[i, j] d[:, j],
    W symmetric with w = g a (1 - t^2) / k.
    """
    n, m = f.shape
    k = n // 2
    first, second = _pair_index(m)
    dT = _paired_diffs(f.value)
    t = _tanh_products(dT, a)
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
    """Moment matching rho = sin(pi * tau / 2) on a tau node, clipped away from +-1."""
    return ad.clamp(sin(tau * (np.pi / 2.0)), lo=-1.0 + EPS_CLIP, hi=1.0 - EPS_CLIP)


def divergence_from_det(det: ad.Node, tag: str) -> ad.Node:
    """Closed-form H(P_12, P_1 P_2) of a node of determinants |Sigma| = 1 - rho^2.

    W2 and MMD forms are squared distances; their square root is returned.
    """
    if tag == "kl":
        return log(det) * -0.5
    if tag == "chi2":
        return sub(div(1.0, det), 1.0)
    if tag == "w2":
        sq = sub(4.0, 2.0 * ad.sqrt(2.0 + 2.0 * ad.sqrt(det)))
        return ad.sqrt(ad.clamp(sq, lo=0.0))
    # tag == "mmd"
    sq = sub(div(1.0, ad.sqrt(9.0 + 16.0 * det)) + 0.2,
             div(2.0, ad.sqrt(21.0 + 4.0 * det)))
    return ad.sqrt(ad.clamp(sq, lo=0.0))


def copula_distance_composite(fs: ad.Node, ft: ad.Node, beta: float,
                              kind: DependenceKind, a: float, taus=smooth_taus) -> ad.Node:
    """The graph-composite form of ``copula.copula_distance_graph``.

    Per domain: ``taus`` (the tau node by default, or ``smooth_taus_composite``),
    sin, clamp, 1 - rho * rho and the closed form; then sub, abs, scale and
    total. Validates nothing.
    """
    def pair_divergences(f):
        rhos = copula_param_from_tau(taus(f, a))
        det = sub(1.0, rhos * rhos)
        return divergence_from_det(det, kind.tag)

    gap = absolute(sub(pair_divergences(fs), pair_divergences(ft)))
    return ad.total(gap * float(beta))


def w1_columns_composite(fs: ad.Node, ft: ad.Node, kind=None) -> ad.Node:
    """The graph-composite form of ``divergences.w1_columns_graph``.

    mean_rows, not total * (1/n): its backward divides by n, which keeps the
    gradient bit-identical to a per-column mean. ``kind`` is ``sort_cols``'s.
    """
    return ad.total(mean_rows(absolute(sub(sort_cols(fs, kind), sort_cols(ft, kind)))))


def smooth_taus_composite(f: ad.Node, a: float) -> ad.Node:
    """The graph-composite form of ``smooth_taus``.

    Gathers the even prefix and the two rows of each disjoint pair with
    ``take_rows``, the two columns of each feature pair with ``take_cols``,
    then ``mul``, ``scale``, ``tanh`` and ``mean_rows``.
    """
    n = f.shape[0] - f.shape[0] % 2
    if n != f.shape[0]:
        f = ad.take_rows(f, np.arange(n))
    first, second = _pair_index(f.shape[1])
    diff = sub(ad.take_rows(f, np.arange(0, n, 2)), ad.take_rows(f, np.arange(1, n, 2)))
    prod = ad.take_cols(diff, first) * ad.take_cols(diff, second)
    return mean_rows(ad.tanh(prod * a))


def neg(a) -> ad.Node:
    """Elementwise negation as its own op."""
    a = ad.constant(a)
    return ad.Node(-a.value, "neg", (a,), lambda g: (-g,))


def transpose(a) -> ad.Node:
    a = ad.constant(a)
    return ad.Node(np.ascontiguousarray(a.value.T), "transpose", (a,),
                   lambda g: (np.ascontiguousarray(g.T),))


def softmax_rows(a) -> ad.Node:
    """Row-wise softmax as a graph op."""
    a = ad.constant(a)
    out = ad.softmax(a.value)
    return ad.Node(out, "softmax_rows", (a,),
                   lambda g: (out * (g - ad._row_sums(g * out)),))


_ACTIVATION_OPS = {None: lambda node: node, "relu": ad.relu, "tanh": ad.tanh}


def dense_composite(x, w, b, activation=None) -> ad.Node:
    """The graph-composite form of ``autodiff.dense``: matmul, add_bias, activation."""
    return _ACTIVATION_OPS[activation](ad.add_bias(ad.matmul(x, w), b))


def cross_entropy_composite(logits: ad.Node, onehot: np.ndarray) -> ad.Node:
    """The graph-composite form of ``models._softmax_cross_entropy``.

    softmax_rows, clamp at 1e-12, log, the one-hot product, total and scale.
    """
    probs = softmax_rows(logits)
    picked = ad.total(log(ad.clamp(probs, lo=1e-12)) * ad.constant(onehot))
    return picked * (-1.0 / onehot.shape[0])


def squared_error_composite(pred: ad.Node, targets: np.ndarray) -> ad.Node:
    """The graph-composite form of ``models._squared_error_loss``: sub, mul and mean."""
    resid = sub(pred, ad.constant(targets))
    return mean(resid * resid)


def coral_penalty_composite(fs: ad.Node, ft: ad.Node) -> ad.Node:
    """The graph-composite form of ``coral_penalty_graph``, centred by add_bias."""
    m = fs.shape[1]

    def cov(f):
        n = f.shape[0]
        centered = ad.add_bias(f, neg(mean_rows(f)))
        return ad.matmul(transpose(centered), centered) * (1.0 / (n - 1))

    diff = sub(cov(fs), cov(ft))
    return ad.total(diff * diff) * (1.0 / (4.0 * m * m))


class AdamPerArray:
    """``training.Adam`` stepping each parameter array with its own moments.

    Each array is the segment of the buffer that its gradient's shape covers,
    in order; the moments are made at the first step, from those shapes.
    """

    def __init__(self, flat, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = self.v = None
        self.t = 0

    def step(self, flat, grads):
        if self.m is None:
            self.m = [np.zeros(g.shape) for g in grads]
            self.v = [np.zeros(g.shape) for g in grads]
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        start = 0
        for g, m, v in zip(grads, self.m, self.v, strict=True):
            a = flat[start:start + g.size].reshape(g.shape)  # a view: writes reach flat
            start += g.size
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            a -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def add_bias_summed(x, b) -> ad.Node:
    """``add_bias`` with the bias gradient from numpy's ``sum`` over axis 0."""
    x, b = ad.constant(x), ad.constant(b)
    return ad.Node(x.value + b.value, "add_bias", (x, b),
                   lambda g: (g, g.sum(axis=0, keepdims=True)))


def softmax_rows_reduced(a) -> ad.Node:
    """``softmax_rows`` with numpy's reductions along each row."""
    a = ad.constant(a)
    e = np.exp(a.value - a.value.max(axis=1, keepdims=True))
    out = e / e.sum(axis=1, keepdims=True)

    def back(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return ad.Node(out, "softmax_rows", (a,), back)


def coral_penalty_gathered(fs: ad.Node, ft: ad.Node) -> ad.Node:
    """``coral_penalty_graph`` with the row mean broadcast by ``take_rows``."""
    m = fs.shape[1]

    def cov(f):
        n = f.shape[0]
        centered = sub(f, ad.take_rows(mean_rows(f), [0] * n))
        return ad.matmul(transpose(centered), centered) * (1.0 / (n - 1))

    diff = sub(cov(fs), cov(ft))
    return ad.total(diff * diff) * (1.0 / (4.0 * m * m))


def bandwidths_triu_gathered(sq_xx, sq_yy, sq_xy) -> tuple[float, float]:
    """``divergences._bandwidths_from_blocks`` gathering each triangle by ``np.triu_indices``."""
    vals = np.concatenate([sq_xx[np.triu_indices(sq_xx.shape[0], k=1)],
                           sq_yy[np.triu_indices(sq_yy.shape[0], k=1)],
                           sq_xy.ravel()])
    base = float(np.median(vals))
    if base <= 0.0:
        base = float(np.mean(vals))
    if base <= 0.0:
        base = 1.0
    return (base, 2.0 * base)


def auc_tie_loop(scores, labels) -> float:
    """Mann-Whitney AUC whose tie groups are walked by a Python loop."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    order = np.argsort(np.concatenate([pos, neg]), kind="stable")
    all_scores = np.concatenate([pos, neg])[order]
    n = all_scores.size
    base = np.arange(1, n + 1, dtype=np.float64)
    ranks = base.copy()
    i = 0
    while i < n:
        j = i
        while j + 1 < n and all_scores[j + 1] == all_scores[i]:
            j += 1
        if j > i:
            ranks[i:j + 1] = 0.5 * (base[i] + base[j])
        i = j + 1
    pos_rank_sum = ranks[order.argsort()[:pos.size]].sum()
    u = pos_rank_sum - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def is_content_line(line: str) -> bool:
    """Whether the loader keeps a line: neither blank nor a '#' comment."""
    return bool(line.strip()) and not line.lstrip().startswith("#")


def finite_difference_check(loss_builder: Callable[..., ad.Node],
                            leaves: Sequence, step: float = 1e-6) -> float:
    """Compare engine gradients with central finite differences.

    Parameters
    ----------
    loss_builder : callable mapping fresh leaf Nodes (one per entry of
        ``leaves``) to a scalar Node. It is re-invoked for every perturbed
        evaluation, so it must be a pure function of its inputs.
    leaves : the base values to differentiate at.
    step : finite-difference step, must be positive.

    Returns
    -------
    float, the maximum over all leaf entries of
    ``|auto - central| / (|central| + 1e-12)``.
    """
    if not np.isfinite(step) or step <= 0.0:
        raise ContractViolation(f"finite_difference_check: step must be positive, got {step}")
    bases = [ad.tensor(x) for x in leaves]
    if not bases:
        raise ContractViolation("finite_difference_check: at least one leaf is required")

    inputs = [ad.leaf(b) for b in bases]
    out = loss_builder(*inputs)
    if not isinstance(out, ad.Node) or out.shape != (1, 1):
        raise ContractViolation("finite_difference_check: loss_builder must return a scalar Node")
    ad.backward(out)
    autos = [node.grad.copy() for node in inputs]

    def eval_at(k, pos, delta):
        probe = [b.copy() for b in bases]
        probe[k][pos] += delta
        val = loss_builder(*[ad.leaf(p) for p in probe]).item()
        if not np.isfinite(val):
            raise DomainError(
                f"finite_difference_check: loss non-finite at leaf {k} entry {pos}")
        return val

    worst = 0.0
    for k, base in enumerate(bases):
        for pos in np.ndindex(base.shape):
            fp = eval_at(k, pos, step)
            fm = eval_at(k, pos, -step)
            central = (fp - fm) / (2.0 * step)
            rel = abs(autos[k][pos] - central) / (abs(central) + 1e-12)
            worst = max(worst, rel)
    return worst


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


def cd_kl_gradient_analytic(fs, ft, beta: float, a: float = 100.0) -> np.ndarray:
    """Hand-derived gradient of the KL copula distance w.r.t. the fs entries.

    Chain: CD = beta sum_{i<j} |h_s - h_t| with h = -log(1 - rho^2)/2,
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

    def stats(f):
        n2 = f.shape[0] - (f.shape[0] % 2)
        d = f[0:n2:2] - f[1:n2:2]
        out = {}
        for i, j in zip(*_pair_index(m)):
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
        coef = beta * sgn * dh_drho * drho_dtau / k
        dt = a * (1.0 - t * t)
        gi = coef * dt * d[:, j]
        gj = coef * dt * d[:, i]
        grad[0:n2:2, i] += gi
        grad[1:n2:2, i] -= gi
        grad[0:n2:2, j] += gj
        grad[1:n2:2, j] -= gj
    return grad


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
