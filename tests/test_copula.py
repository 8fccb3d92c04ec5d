import numpy as np
import pytest

import copulashift.autodiff as ad
from copulashift.copula import (CopulaEstimate, DependenceKind, PairWeights,
                                cd_kl_gradient_analytic, copula_distance,
                                copula_distance_graph, copula_param_from_tau,
                                estimate_copula, gaussian_copula_density,
                                inverse_normal_cdf, kendall_tau_exact,
                                kendall_tau_smooth, _smooth_taus,
                                pair_dependence_divergence,
                                pair_dependence_divergence_mc)
from copulashift.errors import ContractViolation, DomainError


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

    def test_smooth_graph_backpropagates(self):
        rng = np.random.default_rng(11)
        x = ad.leaf(np.hstack([rng.normal(size=(10, 1)), rng.normal(size=(10, 1))]))
        node = _smooth_taus(x, a=5.0)
        ad.backward(node)
        assert np.any(x.grad[:, 0] != 0.0)


class TestCopulaParam:
    def test_sin_mapping_hand_values(self):
        np.testing.assert_allclose(float(copula_param_from_tau(1.0 / 3.0)),
                                   0.5, rtol=1e-12)
        assert float(copula_param_from_tau(0.0)) == 0.0

    def test_clip_keeps_rho_inside_open_interval(self):
        hi = float(copula_param_from_tau(1.0))
        lo = float(copula_param_from_tau(-1.0))
        assert hi == 1.0 - 1e-6
        assert lo == -1.0 + 1e-6

    def test_rejects_tau_outside_range(self):
        with pytest.raises(ContractViolation):
            copula_param_from_tau(1.5)


class TestEstimateCopula:
    def test_recovers_known_correlation(self):
        rho = 0.7
        sample = correlated_sample(rho, 6000, seed=5)
        est = estimate_copula(sample)
        assert abs(est.sigma[0, 1] - rho) < 0.02
        np.testing.assert_allclose(est.pair_determinants[(0, 1)],
                                   1.0 - est.sigma[0, 1] ** 2, rtol=1e-12)

    def test_smooth_route_close_to_exact(self):
        sample = correlated_sample(0.5, 4000, seed=8)
        exact = estimate_copula(sample)
        smooth = estimate_copula(sample, a=1000.0)
        assert abs(exact.sigma[0, 1] - smooth.sigma[0, 1]) < 0.03

    def test_independent_columns_near_zero(self):
        sample = correlated_sample(0.0, 6000, seed=13)
        est = estimate_copula(sample)
        assert abs(est.sigma[0, 1]) < 0.03

    def test_sigma_is_valid(self):
        est = estimate_copula(correlated_sample(0.3, 1000, seed=2))
        np.testing.assert_array_equal(np.diag(est.sigma), 1.0)
        np.testing.assert_array_equal(est.sigma, est.sigma.T)

    def test_rejects_univariate_input(self):
        with pytest.raises(ContractViolation):
            estimate_copula(np.zeros((10, 1)))

    def test_smooth_route_matches_per_pair_tau(self):
        # one pass over all pairs == kendall_tau_smooth on each column pair
        sample = np.random.default_rng(4).normal(size=(301, 5))
        sample[:, 3] += 0.6 * sample[:, 0]
        est = estimate_copula(sample, a=50.0)
        for i in range(5):
            for j in range(i + 1, 5):
                tau = kendall_tau_smooth(sample[:300, [i, j]], a=50.0)
                np.testing.assert_allclose(est.sigma[i, j],
                                           float(copula_param_from_tau(tau)),
                                           rtol=1e-12, atol=1e-15)

    def test_rejects_nonfinite_input(self):
        sample = np.ones((8, 3))
        sample[2, 1] = np.nan
        for a in (None, 10.0):
            with pytest.raises(DomainError):
                estimate_copula(sample, a=a)


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
    KINDS = [DependenceKind.kl(), DependenceKind.chi2(),
             DependenceKind.wasserstein2(), DependenceKind.mmd_unit()]

    def test_zero_at_independence(self):
        for kind in self.KINDS:
            assert pair_dependence_divergence(0.0, kind) == pytest.approx(0.0,
                                                                          abs=1e-12)

    def test_kl_and_chi2_hand_values(self):
        # KL = -log(1 - rho^2)/2 and chi2 = 1/(1 - rho^2) - 1 at rho = 0.6.
        np.testing.assert_allclose(
            pair_dependence_divergence(0.6, DependenceKind.kl()),
            -0.5 * np.log(0.64), rtol=1e-14)
        np.testing.assert_allclose(
            pair_dependence_divergence(0.6, DependenceKind.chi2()),
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
            pair_dependence_divergence(rho, DependenceKind.kl()), kl, atol=1e-9)
        np.testing.assert_allclose(
            pair_dependence_divergence(rho, DependenceKind.chi2()),
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
            assert pair_dependence_divergence(rho, DependenceKind.wasserstein2()) <= w2_cap + 1e-12
            assert pair_dependence_divergence(rho, DependenceKind.mmd_unit()) <= mmd_cap + 1e-12

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
        est, se = pair_dependence_divergence_mc(0.4, DependenceKind.kl(), seed=17,
                                                mc_samples=200_000)
        closed = pair_dependence_divergence(0.4, DependenceKind.kl())
        assert abs(est - closed) < 4.0 * se

    def test_rejects_rho_at_one(self):
        with pytest.raises(ContractViolation):
            pair_dependence_divergence(1.0, DependenceKind.kl())


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


class TestPairWeights:
    def test_uniform_covers_all_pairs(self):
        w = PairWeights.uniform(4, 0.5)
        assert len(w.weights) == 6
        np.testing.assert_array_equal(w.as_row(), 0.5 * np.ones((1, 6)))

    def test_rejects_negative_or_missing(self):
        with pytest.raises(ContractViolation):
            PairWeights(2, {(0, 1): -1.0})
        with pytest.raises(ContractViolation):
            PairWeights(3, {(0, 1): 1.0})


class TestCopulaDistance:
    @staticmethod
    def _features(seed, n=600, shuffle_rho=0.0):
        return correlated_sample(shuffle_rho, n, seed)

    def test_self_distance_zero(self):
        f = self._features(1, shuffle_rho=0.6)
        w = PairWeights.uniform(2)
        assert copula_distance(f, f, w, DependenceKind.kl(), 100.0) == 0.0

    def test_symmetry_and_nonnegativity(self):
        fa = self._features(2, shuffle_rho=0.7)
        fb = self._features(3, shuffle_rho=0.1)
        w = PairWeights.uniform(2)
        for kind in (DependenceKind.kl(), DependenceKind.wasserstein2()):
            d_ab = copula_distance(fa, fb, w, kind, 100.0)
            d_ba = copula_distance(fb, fa, w, kind, 100.0)
            assert d_ab >= 0.0
            np.testing.assert_allclose(d_ab, d_ba, rtol=1e-12)

    def test_linear_in_the_weights(self):
        fa = self._features(4, shuffle_rho=0.8)
        fb = self._features(5, shuffle_rho=0.0)
        base = copula_distance(fa, fb, PairWeights.uniform(2, 1.0),
                               DependenceKind.kl(), 100.0)
        tripled = copula_distance(fa, fb, PairWeights.uniform(2, 3.0),
                                  DependenceKind.kl(), 100.0)
        np.testing.assert_allclose(tripled, 3.0 * base, rtol=1e-12)

    def test_detects_dependence_gap(self):
        strong = self._features(6, shuffle_rho=0.85)
        weak = self._features(7, shuffle_rho=0.0)
        d = copula_distance(strong, weak, PairWeights.uniform(2),
                            DependenceKind.kl(), 100.0)
        assert d > 0.1

    def test_graph_value_matches_plain(self):
        fa = self._features(8, shuffle_rho=0.5)[:200]
        fb = self._features(9, shuffle_rho=0.2)[:200]
        w = PairWeights.uniform(2, 0.7)
        node = copula_distance_graph(ad.constant(fa), ad.constant(fb), w,
                                     DependenceKind.kl(), 100.0)
        np.testing.assert_allclose(
            node.item(), copula_distance(fa, fb, w, DependenceKind.kl(), 100.0),
            rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            copula_distance(np.zeros((10, 2)), np.zeros((10, 3)),
                            PairWeights.uniform(2), DependenceKind.kl(), 100.0)


class TestAnalyticGradient:
    def test_matches_autodiff_away_from_kinks(self):
        rng = np.random.default_rng(23)
        fs = rng.normal(size=(64, 3))
        ft = rng.normal(size=(64, 3)) @ np.diag([1.0, 0.5, 2.0])
        w = PairWeights.uniform(3, 0.8)
        analytic = cd_kl_gradient_analytic(fs, ft, w, a=100.0)
        leaf = ad.leaf(fs)
        node = copula_distance_graph(leaf, ad.constant(ft), w,
                                     DependenceKind.kl(), 100.0)
        ad.backward(node)
        auto = leaf.grad
        denom = np.abs(auto).max() + 1e-300
        assert np.max(np.abs(analytic - auto)) / denom < 1e-6
