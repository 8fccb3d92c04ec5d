import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import copulashift.autodiff as ad
import copulashift.copula as cop
from copulashift.copula import (H2_TAGS, DependenceKind, copula_distance,
                                copula_distance_graph, kendall_tau_smooth,
                                pair_dependence_divergence)
from copulashift.divergences import _pair_index
from copulashift.errors import ContractViolation, DomainError
from oracles import (cd_kl_gradient_analytic, copula_distance_composite,
                     copula_param_from_tau, finite_difference_check,
                     gaussian_copula_density, inverse_normal_cdf,
                     kendall_tau_exact, pair_dependence_divergence_mc,
                     smooth_taus, smooth_taus_composite)


def correlated_sample(rho: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 2))
    x = z[:, 0]
    y = rho * z[:, 0] + np.sqrt(1.0 - rho * rho) * z[:, 1]
    return np.column_stack([x, y])


class TestKendallTau:
    def test_exact_hand_cases(self):
        assert kendall_tau_exact([[0, 0], [1, 1], [2, 2]]) == 1.0
        assert kendall_tau_exact([[0, 2], [1, 1], [2, 0]]) == -1.0
        # Pairs (0,1) and (0,2) concordant, (1,2) discordant: (2-1)/3.
        got = kendall_tau_exact([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        np.testing.assert_allclose(got, 1.0 / 3.0, rtol=1e-14)

    def test_exact_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(99)
        pairs = rng.normal(size=(201, 2))  # continuous, ties impossible
        ours = kendall_tau_exact(pairs)
        ref = stats.kendalltau(pairs[:, 0], pairs[:, 1]).statistic
        np.testing.assert_allclose(ours, ref, rtol=1e-12)

    def test_smooth_tends_to_exact_on_disjoint_pairs(self):
        # The smooth statistic averages tanh(a dx dy) over disjoint pairs;
        # with a huge sharpness it must agree with the sign average.
        rng = np.random.default_rng(7)
        pairs = rng.normal(size=(400, 2))
        d = (pairs[0::2] - pairs[1::2])
        sign_avg = np.mean(np.sign(d[:, 0] * d[:, 1]))
        got = kendall_tau_smooth(pairs, a=1e6)
        np.testing.assert_allclose(got, sign_avg, atol=1e-8)

    def test_smooth_is_deterministic_and_bounded(self):
        pairs = correlated_sample(0.8, 500, seed=3)[:500]
        a = kendall_tau_smooth(pairs, a=100.0)
        b = kendall_tau_smooth(pairs, a=100.0)
        assert a == b
        assert -1.0 <= a <= 1.0

    def test_smooth_rejects_odd_rows_and_bad_sharpness(self):
        with pytest.raises(ContractViolation):
            kendall_tau_smooth(np.zeros((3, 2)), a=10.0)
        with pytest.raises(ContractViolation):
            kendall_tau_smooth(np.zeros((4, 2)), a=0.0)

    def test_all_pairs_node_matches_per_pair_tau(self):
        # one pass over all pairs == kendall_tau_smooth on each column pair
        sample = np.random.default_rng(4).normal(size=(301, 5))
        sample[:, 3] += 0.6 * sample[:, 0]
        taus = smooth_taus(ad.constant(sample), 50.0).value.ravel()
        for tau, i, j in zip(taus, *cop._pair_index(5)):
            assert tau == kendall_tau_smooth(sample[:300, [i, j]], a=50.0)

    def test_smooth_rejects_nonfinite_input(self):
        sample = np.ones((8, 2))
        sample[2, 1] = np.nan
        with pytest.raises(DomainError):
            kendall_tau_smooth(sample, a=10.0)
        with pytest.raises(DomainError):
            copula_distance(sample, np.ones((8, 2)), 1.0,
                            DependenceKind("kl"), 10.0)

    def test_smooth_graph_backpropagates(self):
        rng = np.random.default_rng(11)
        x = ad.leaf(np.hstack([rng.normal(size=(10, 1)), rng.normal(size=(10, 1))]))
        node = smooth_taus(x, a=5.0)
        ad.backward(node)
        assert np.any(x.grad[:, 0] != 0.0)


def rho_of(tau: float) -> float:
    return copula_param_from_tau(ad.constant(tau)).item()


class TestCopulaParam:
    def test_sin_mapping_hand_values(self):
        np.testing.assert_allclose(rho_of(1.0 / 3.0), 0.5, rtol=1e-12)
        assert rho_of(0.0) == 0.0

    def test_clip_keeps_rho_inside_open_interval(self):
        hi = rho_of(1.0)
        lo = rho_of(-1.0)
        assert hi == 1.0 - 1e-6
        assert lo == -1.0 + 1e-6


class TestInverseNormalCdf:
    def test_matches_scipy_to_stated_precision(self):
        special = pytest.importorskip("scipy.special")
        p = np.linspace(1e-10, 1.0 - 1e-10, 20_001)
        ours = inverse_normal_cdf(p)
        ref = special.ndtri(p)
        rel = np.max(np.abs(ours - ref) / (np.abs(ref) + 1e-300))
        assert rel < 1.2e-9

    def test_symmetry_and_median(self):
        assert inverse_normal_cdf(0.5) == 0.0
        np.testing.assert_allclose(inverse_normal_cdf(0.975),
                                   -inverse_normal_cdf(0.025), rtol=1e-12)

    def test_rejects_endpoints(self):
        with pytest.raises(ContractViolation):
            inverse_normal_cdf(0.0)
        with pytest.raises(ContractViolation):
            inverse_normal_cdf(1.0)


class TestPairDependenceDivergence:
    KINDS = [DependenceKind("kl"), DependenceKind("chi2"),
             DependenceKind("w2"), DependenceKind("mmd")]

    def test_zero_at_independence(self):
        for kind in self.KINDS:
            assert pair_dependence_divergence(0.0, kind) == pytest.approx(0.0,
                                                                          abs=1e-12)

    def test_kl_and_chi2_hand_values(self):
        # KL = -log(1 - rho^2)/2 and chi2 = 1/(1 - rho^2) - 1 at rho = 0.6.
        np.testing.assert_allclose(
            pair_dependence_divergence(0.6, DependenceKind("kl")),
            -0.5 * np.log(0.64), rtol=1e-14)
        np.testing.assert_allclose(
            pair_dependence_divergence(0.6, DependenceKind("chi2")),
            1.0 / 0.64 - 1.0, rtol=1e-14)

    def test_closed_forms_match_numerical_integration(self):
        # Independent oracle: adaptive quadrature of the exact integrals,
        # written in z-space where the integrands are smooth Gaussians.
        # KL = E_{z ~ N(0, Sigma)}[log c], chi2 = E[c] - 1 with
        # log c = log phi_Sigma(z) - log phi(z1) - log phi(z2).
        integrate = pytest.importorskip("scipy.integrate")
        rho = 0.5
        det = 1.0 - rho * rho
        inv = np.array([[1.0, -rho], [-rho, 1.0]]) / det

        def log_c(z1, z2):
            q = inv[0, 0] * z1 * z1 + 2 * inv[0, 1] * z1 * z2 + inv[1, 1] * z2 * z2
            return -0.5 * np.log(det) - 0.5 * q + 0.5 * (z1 * z1 + z2 * z2)

        def density(z1, z2):
            q = inv[0, 0] * z1 * z1 + 2 * inv[0, 1] * z1 * z2 + inv[1, 1] * z2 * z2
            return np.exp(-0.5 * q) / (2.0 * np.pi * np.sqrt(det))

        span = 9.0
        kl, _ = integrate.dblquad(lambda z2, z1: density(z1, z2) * log_c(z1, z2),
                                  -span, span, -span, span,
                                  epsabs=1e-12, epsrel=1e-12)
        chi2, _ = integrate.dblquad(
            lambda z2, z1: density(z1, z2) * np.exp(log_c(z1, z2)),
            -span, span, -span, span, epsabs=1e-12, epsrel=1e-12)
        np.testing.assert_allclose(
            pair_dependence_divergence(rho, DependenceKind("kl")), kl, atol=1e-9)
        np.testing.assert_allclose(
            pair_dependence_divergence(rho, DependenceKind("chi2")),
            chi2 - 1.0, atol=1e-9)

    def test_even_in_rho(self):
        for kind in self.KINDS:
            np.testing.assert_allclose(
                pair_dependence_divergence(0.45, kind),
                pair_dependence_divergence(-0.45, kind), rtol=1e-14)

    def test_monotone_in_absolute_correlation(self):
        grid = np.linspace(0.0, 0.95, 20)
        for kind in self.KINDS:
            vals = [pair_dependence_divergence(r, kind) for r in grid]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_w2_and_mmd_respect_their_upper_bounds(self):
        # Both stay bounded as |rho| -> 1 (determinant -> 0).
        w2_cap = np.sqrt(4.0 - 2.0 * np.sqrt(2.0))
        mmd_cap = np.sqrt(1.0 / 3.0 + 0.2 - 2.0 / np.sqrt(21.0))
        for rho in (0.9, 0.99, 0.999, 1.0 - 2e-6):
            assert pair_dependence_divergence(rho, DependenceKind("w2")) <= w2_cap + 1e-12
            assert pair_dependence_divergence(rho, DependenceKind("mmd")) <= mmd_cap + 1e-12

    def test_copula_density_hand_values(self):
        # rho = 0 factorizes, so the density is 1 everywhere; otherwise
        # symmetric in its arguments and positive.
        for u1, u2 in [(0.1, 0.9), (0.5, 0.5), (0.01, 0.2)]:
            np.testing.assert_allclose(gaussian_copula_density(u1, u2, 0.0),
                                       1.0, rtol=1e-12)
        a = gaussian_copula_density(0.3, 0.8, 0.6)
        b = gaussian_copula_density(0.8, 0.3, 0.6)
        np.testing.assert_allclose(a, b, rtol=1e-12)
        assert a > 0.0

    def test_mc_route_brackets_closed_form(self):
        est, se = pair_dependence_divergence_mc(0.4, DependenceKind("kl"), seed=17,
                                                mc_samples=200_000)
        closed = pair_dependence_divergence(0.4, DependenceKind("kl"))
        assert abs(est - closed) < 4.0 * se

    def test_rejects_rho_at_one(self):
        with pytest.raises(ContractViolation):
            pair_dependence_divergence(1.0, DependenceKind("kl"))

    @pytest.mark.parametrize("rho", ["x", None, True, float("nan"), [0.5],
                                     pytest.param(10 ** 400, id="10**400")])
    def test_malformed_rho_is_named(self, rho):
        # "x" and None used to raise TypeError and NaN returned NaN
        with pytest.raises(ContractViolation, match="rho must be a number"):
            pair_dependence_divergence(rho, DependenceKind("kl"))


class TestDependenceKindValidation:
    def test_unknown_tag(self):
        with pytest.raises(ContractViolation):
            DependenceKind(tag="js")

    def test_alpha_rules(self):
        # the Monte-Carlo-only tags and their alpha parameter are gone
        for tag in ("alpha_mc", "hellinger_mc"):
            with pytest.raises(ContractViolation):
                DependenceKind(tag=tag)
        with pytest.raises(TypeError):
            DependenceKind(tag="kl", alpha=0.5)


def _gathered_taus(x: np.ndarray, a: float) -> np.ndarray:
    """The smoothed taus with each pair's columns gathered by ``_pair_index``."""
    k = x.shape[0] // 2
    d = (x[0:2 * k:2] - x[1:2 * k:2]).T
    first, second = _pair_index(x.shape[1])
    return np.tanh(d[first] * d[second] * a).mean(axis=1).reshape(1, -1)


class TestCopulaDistance:
    @staticmethod
    def _features(seed, n=600, shuffle_rho=0.0):
        return correlated_sample(shuffle_rho, n, seed)

    def test_self_distance_zero(self):
        f = self._features(1, shuffle_rho=0.6)
        assert copula_distance(f, f, 1.0, DependenceKind("kl"), 100.0) == 0.0

    def test_symmetry_and_nonnegativity(self):
        fa = self._features(2, shuffle_rho=0.7)
        fb = self._features(3, shuffle_rho=0.1)
        for kind in (DependenceKind("kl"), DependenceKind("w2")):
            d_ab = copula_distance(fa, fb, 1.0, kind, 100.0)
            d_ba = copula_distance(fb, fa, 1.0, kind, 100.0)
            assert d_ab >= 0.0
            np.testing.assert_allclose(d_ab, d_ba, rtol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(n_a=st.integers(2, 40), n_b=st.integers(2, 40), m=st.integers(2, 9),
           tag=st.sampled_from(H2_TAGS), ties=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_axioms_on_random_shapes(self, n_a, n_b, m, tag, ties, seed):
        rng = np.random.default_rng(seed)
        mix = np.eye(m) + rng.normal(size=(m, m))
        if ties:  # tied and constant columns give zero row-pair differences
            fa = rng.integers(-2, 3, size=(n_a, m)) * 0.5
            fb = rng.integers(-1, 2, size=(n_b, m)) * 1.0
        else:
            fa = rng.normal(size=(n_a, m))
            fb = rng.normal(size=(n_b, m)) @ mix
        kind = DependenceKind(tag)
        assert copula_distance(fa, fa, 1.0, kind) == 0.0
        d_ab = copula_distance(fa, fb, 1.0, kind)
        assert d_ab == copula_distance(fb, fa, 1.0, kind)
        assert math.isfinite(d_ab) and d_ab >= 0.0
        for f in (fa, fb):
            np.testing.assert_array_equal(smooth_taus(ad.constant(f), 100.0).value,
                                          _gathered_taus(f, 100.0))

    def test_linear_in_the_weights(self):
        fa = self._features(4, shuffle_rho=0.8)
        fb = self._features(5, shuffle_rho=0.0)
        base = copula_distance(fa, fb, 1.0, DependenceKind("kl"), 100.0)
        tripled = copula_distance(fa, fb, 3.0, DependenceKind("kl"), 100.0)
        np.testing.assert_allclose(tripled, 3.0 * base, rtol=1e-12)

    def test_detects_dependence_gap(self):
        strong = self._features(6, shuffle_rho=0.85)
        weak = self._features(7, shuffle_rho=0.0)
        d = copula_distance(strong, weak, 1.0, DependenceKind("kl"), 100.0)
        assert d > 0.1

    def test_graph_value_matches_plain(self):
        fa = self._features(8, shuffle_rho=0.5)[:200]
        fb = self._features(9, shuffle_rho=0.2)[:200]
        node = copula_distance_graph(ad.constant(fa), ad.constant(fb), 0.7,
                                     DependenceKind("kl"), 100.0)
        np.testing.assert_allclose(
            node.item(), copula_distance(fa, fb, 0.7, DependenceKind("kl"), 100.0),
            rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            copula_distance(np.zeros((10, 2)), np.zeros((10, 3)),
                            1.0, DependenceKind("kl"), 100.0)

    @pytest.mark.parametrize("a", ["x", None, [1.0], True, 0.0, -1.0, float("nan"),
                                   pytest.param(10 ** 400, id="10**400")])
    def test_malformed_sharpness_is_named(self, a):
        # "x", None and [1.0] used to raise TypeError, as did 10**400 (too
        # large for a float); True was read as 1.0
        f = self._features(10, n=8)
        with pytest.raises(ContractViolation, match="sharpness a"):
            copula_distance(f, f, 1.0, DependenceKind("kl"), a)
        with pytest.raises(ContractViolation, match="sharpness a"):
            kendall_tau_smooth(f, a)

    @pytest.mark.parametrize("beta", [-1.0, float("nan"), float("inf"), True, False,
                                      "x", "3", None, pytest.param([1.0], id="list"),
                                      pytest.param(10 ** 400, id="10**400")])
    def test_malformed_beta_is_named(self, beta):
        f = self._features(11, n=8)
        with pytest.raises(ContractViolation, match="beta"):
            copula_distance(f, f, beta, DependenceKind("kl"), 100.0)
        with pytest.raises(ContractViolation, match="beta"):
            copula_distance_graph(ad.constant(f), ad.constant(f), beta,
                                  DependenceKind("kl"), 100.0)

    def test_numpy_scalar_beta_accepted(self):
        fa = self._features(12, n=64, shuffle_rho=0.7)
        fb = self._features(13, n=64)
        half = copula_distance(fa, fb, 0.5, DependenceKind("kl"), 100.0)
        for beta in (np.float32(0.5), np.float64(0.5)):
            assert copula_distance(fa, fb, beta, DependenceKind("kl"), 100.0) == half
        assert copula_distance(fa, fb, np.int64(0), DependenceKind("kl"), 100.0) == 0.0


class TestAnalyticGradient:
    def test_matches_autodiff_away_from_kinks(self):
        rng = np.random.default_rng(23)
        fs = rng.normal(size=(64, 3))
        ft = rng.normal(size=(64, 3)) @ np.diag([1.0, 0.5, 2.0])
        analytic = cd_kl_gradient_analytic(fs, ft, 0.8, a=100.0)
        leaf = ad.leaf(fs)
        node = copula_distance_graph(leaf, ad.constant(ft), 0.8,
                                     DependenceKind("kl"), 100.0)
        ad.backward(node)
        auto = leaf.grad
        denom = np.abs(auto).max() + 1e-300
        assert np.max(np.abs(analytic - auto)) / denom < 1e-6


def _leaf_grads(build, *values):
    leaves = [ad.leaf(v) for v in values]
    out = build(*leaves)
    ad.backward(out)
    return out.value, [x.grad.copy() for x in leaves]


def _assert_same_bits(got, ref):
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _assert_close(got, ref):
    # relative to the largest reference entry, so near-zero entries count too
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


class TestFusedSmoothTaus:
    """The tau node and the one-node copula distance against their oracles."""

    @pytest.mark.parametrize("shape", [(256, 64), (1024, 64), (64, 5), (10, 2),
                                       (6, 3), (7, 3)])
    def test_forward_is_bit_identical(self, shape):
        x = np.random.default_rng(shape[0] * shape[1]).normal(size=shape)
        fused = smooth_taus(ad.constant(x), 100.0).value
        np.testing.assert_array_equal(fused, smooth_taus_composite(ad.constant(x), 100.0).value)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_composite(self, data):
        n = data.draw(st.integers(2, 13), label="rows")  # odd n included
        m = data.draw(st.integers(2, 6), label="cols")
        a = data.draw(st.sampled_from([0.5, 3.0, 100.0]), label="a")
        tag = data.draw(st.sampled_from(cop.H2_TAGS), label="kind")
        zero_pairs = data.draw(st.integers(0, n // 2), label="zero row pairs")
        clip = data.draw(st.booleans(), label="clipped rho")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        fs = rng.normal(size=(n, m))
        ft = rng.normal(size=(n, m))
        fs[1:2 * zero_pairs:2] = fs[0:2 * zero_pairs:2]  # rows with zero differences
        if clip:
            # every row pair differs by 20 in columns 0 and 1: tau = 1 for
            # pair (0, 1), so its rho sits on the clip
            fs[:, :2] = np.where(np.arange(n) % 2 == 0, 10.0, -10.0)[:, None]
        p = m * (m - 1) // 2
        g = ad.constant(rng.normal(size=(1, p)))

        taus = [_leaf_grads(lambda x: ad.total(fn(x, a) * g), fs)
                for fn in (smooth_taus, smooth_taus_composite)]
        _assert_close(taus[0][0], taus[1][0])
        if clip:
            assert smooth_taus(ad.constant(fs), a).value[0, 0] == 1.0
        _assert_close(taus[0][1][0], taus[1][1][0])
        assert np.all(taus[0][1][0][2 * (n // 2):] == 0.0)  # the dropped odd row

        beta = rng.uniform(0.1, 2.0)
        kind = DependenceKind(tag)

        def cd(x, y):
            return copula_distance_graph(x, y, beta, kind, a)

        fused = _leaf_grads(cd, fs, ft)
        for taus, check in ((smooth_taus, _assert_same_bits),
                            (smooth_taus_composite, _assert_close)):
            ref = _leaf_grads(
                lambda x, y: copula_distance_composite(x, y, beta, kind, a, taus), fs, ft)
            check(fused[0], ref[0])
            for got, want in zip(fused[1], ref[1], strict=True):
                check(got, want)

    def test_finite_differences(self):
        # a soft tanh keeps the check away from saturation; odd N, m = 4
        rng = np.random.default_rng(31)
        x = rng.normal(size=(9, 4))
        g = ad.constant(rng.normal(size=(1, 6)))
        err = finite_difference_check(
            lambda f: ad.total(smooth_taus(f, 0.7) * g), [x])
        assert err < 1e-6

    def test_kendall_tau_smooth_keeps_even_contract(self):
        with pytest.raises(ContractViolation):
            kendall_tau_smooth(np.zeros((5, 2)), a=10.0)
        with pytest.raises(ContractViolation, match=">= 2 rows"):
            copula_distance(np.zeros((1, 2)), np.zeros((4, 2)),
                            1.0, DependenceKind("kl"), 10.0)

    def test_builds_one_node(self):
        rng = np.random.default_rng(2)
        x, y = ad.leaf(rng.normal(size=(8, 3))), ad.leaf(rng.normal(size=(6, 3)))
        node = copula_distance_graph(x, y, 1.0, DependenceKind("kl"), 5.0)
        assert node.op == "copula_distance" and node.parents == (x, y)
