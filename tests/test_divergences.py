import numpy as np
import pytest

import copulashift.autodiff as ad
from copulashift.divergences import (DivergenceKind, coral_penalty,
                                     coral_penalty_graph, gaussian_kernel,
                                     gaussian_kl_multivariate,
                                     gaussian_kl_univariate, kl_histogram_1d,
                                     marginal_divergence,
                                     median_heuristic_bandwidths, mmd_squared,
                                     mmd_squared_graph, wasserstein1_1d)
from copulashift.errors import ContractViolation, DomainError, ShapeError

# Shared tiny samples for the frozen MMD oracle values below.
MMD_X = np.array([0.0, 1.0, 2.0])
MMD_Y = np.array([0.5, 1.5])


class TestGaussianKernel:
    def test_hand_values(self):
        k = gaussian_kernel(np.array([0.0, 1.0]), np.array([0.0, 0.0]), 2.0)
        np.testing.assert_allclose(k, [1.0, np.exp(-0.5)])

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(DomainError):
            gaussian_kernel(np.zeros(2), np.zeros(2), 0.0)


class TestMMDSquared:
    # Oracle: explicit double loops over k(a,b) = exp(-(a-b)^2 / bw),
    # V-statistic mean(K_xx) + mean(K_yy) - 2 mean(K_xy).
    def test_single_bandwidth_oracle(self):
        got = mmd_squared(MMD_X, MMD_Y, bandwidths=(1.0,))
        np.testing.assert_allclose(got, 0.076177975945187049, rtol=1e-14)

    def test_multi_bandwidth_sums(self):
        got = mmd_squared(MMD_X, MMD_Y, bandwidths=(0.5, 1.0))
        np.testing.assert_allclose(got, 0.22128896894362693, rtol=1e-14)

    def test_identical_samples_give_zero(self):
        z = np.array([0.3, -1.2, 0.8, 2.0])
        assert mmd_squared(z, z, bandwidths=(1.0,)) == 0.0

    def test_symmetry(self):
        a = mmd_squared(MMD_X, MMD_Y, bandwidths=(0.7,))
        b = mmd_squared(MMD_Y, MMD_X, bandwidths=(0.7,))
        np.testing.assert_allclose(a, b, rtol=1e-14)

    def test_nonnegative_on_random_data(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            x = rng.normal(size=rng.integers(2, 30))
            y = rng.normal(loc=rng.normal(), size=rng.integers(2, 30))
            assert mmd_squared(x, y) >= 0.0

    def test_median_heuristic_oracle(self):
        # Pooled pairwise squared distances of MMD_X/MMD_Y have median 1,
        # so the default bandwidths are (median, 2*median) = (1, 2).
        bw = median_heuristic_bandwidths(MMD_X, MMD_Y)
        np.testing.assert_allclose(bw, (1.0, 2.0))

    def test_graph_matches_numpy_value(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 1))
        y = rng.normal(0.5, size=(8, 1))
        node = mmd_squared_graph(ad.constant(x), ad.constant(y),
                                 bandwidths=(0.5, 1.0))
        np.testing.assert_allclose(node.item(),
                                   mmd_squared(x.ravel(), y.ravel(),
                                               bandwidths=(0.5, 1.0)),
                                   rtol=1e-12)

    def test_joint_graph_matches_numpy_v_statistic(self):
        # Oracle: Gaussian kernel on squared Euclidean row distances.
        rng = np.random.default_rng(21)
        x = rng.normal(size=(9, 3))
        y = rng.normal(0.4, 1.3, size=(7, 3))

        def v_stat(bws):
            def k(a, b, bw):
                return np.exp(-((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2) / bw)
            return sum(k(x, x, bw).mean() + k(y, y, bw).mean() - 2.0 * k(x, y, bw).mean()
                       for bw in bws)

        node = mmd_squared_graph(ad.constant(x), ad.constant(y), bandwidths=(0.8, 2.5))
        np.testing.assert_allclose(node.item(), v_stat((0.8, 2.5)), rtol=1e-12)
        sq = ((np.vstack([x, y])[:, None, :] - np.vstack([x, y])[None, :, :]) ** 2).sum(axis=2)
        base = np.median(sq[np.triu_indices(16, k=1)])
        np.testing.assert_allclose(mmd_squared_graph(ad.constant(x), ad.constant(y)).item(),
                                   v_stat((base, 2.0 * base)), rtol=1e-12)
        err = ad.finite_difference_check(
            lambda a, b: mmd_squared_graph(a, b, bandwidths=(0.8, 2.5)), [x, y])
        assert err < 1e-5

    def test_graph_rejects_mismatched_widths(self):
        with pytest.raises(ShapeError):
            mmd_squared_graph(ad.constant(np.zeros((4, 2))), ad.constant(np.zeros((4, 3))))


class TestWasserstein1:
    def test_equal_sizes_hand_value(self):
        # Sorted pairs (0,0.5), (1,1.5), (2,2.5): mean gap 0.5.
        got = wasserstein1_1d(np.array([0.0, 2.0, 1.0]),
                              np.array([2.5, 0.5, 1.5]))
        np.testing.assert_allclose(got, 0.5, rtol=1e-14)

    def test_unequal_sizes_match_quantile_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=23)
        y = rng.normal(1.0, size=40)
        grid = np.arange(1, 41) / 41.0
        oracle = np.mean(np.abs(np.quantile(x, grid) - np.quantile(y, grid)))
        np.testing.assert_allclose(wasserstein1_1d(x, y), oracle, rtol=1e-12)

    def test_identity_and_symmetry(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=17)
        y = rng.normal(size=17)
        assert wasserstein1_1d(x, x) == 0.0
        np.testing.assert_allclose(wasserstein1_1d(x, y),
                                   wasserstein1_1d(y, x), rtol=1e-14)

    def test_pure_shift_equals_shift(self):
        x = np.linspace(-1.0, 1.0, 50)
        np.testing.assert_allclose(wasserstein1_1d(x, x + 0.75), 0.75,
                                   rtol=1e-12)


class TestKLHistogram:
    def test_identical_samples_exactly_zero(self):
        z = np.random.default_rng(0).normal(size=200)
        assert kl_histogram_1d(z, z) == 0.0

    def test_matches_histogram_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=300)
        y = rng.normal(0.8, 1.3, size=300)
        lo = min(x.min(), y.min())
        hi = max(x.max(), y.max())
        cx, _ = np.histogram(x, bins=16, range=(lo, hi))
        cy, _ = np.histogram(y, bins=16, range=(lo, hi))

        def smooth(c):
            s = 1.0 / (c.size * c.sum())
            return (c + s) / (c.sum() + c.size * s)

        p, q = smooth(cx), smooth(cy)
        oracle = np.sum(p * np.log(p / q))
        np.testing.assert_allclose(kl_histogram_1d(x, y, bins=16), oracle,
                                   rtol=1e-12)

    def test_disjoint_supports_stay_finite(self):
        x = np.zeros(50) + np.arange(50) * 0.01
        y = x + 100.0
        val = kl_histogram_1d(x, y)
        assert np.isfinite(val) and val > 0.0

    def test_rejects_single_bin(self):
        with pytest.raises(ContractViolation):
            kl_histogram_1d(np.zeros(3), np.ones(3), bins=1)


class TestCoral:
    XS = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 0.5], [3.0, 3.0]])
    YS = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.5], [3.0, 1.0]])

    def test_hand_oracle(self):
        # ||cov(x) - cov(y)||_F^2 / (4 d^2) with sample covariance (ddof=1).
        np.testing.assert_allclose(coral_penalty(self.XS, self.YS),
                                   0.13020833333333334, rtol=1e-14)

    def test_matches_numpy_cov_oracle(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(40, 3))
        y = rng.normal(0.3, 1.4, size=(30, 3))
        diff = np.cov(x, rowvar=False, ddof=1) - np.cov(y, rowvar=False, ddof=1)
        oracle = np.sum(diff ** 2) / (4 * 9)
        np.testing.assert_allclose(coral_penalty(x, y), oracle, rtol=1e-12)

    def test_identical_gives_zero(self):
        assert coral_penalty(self.XS, self.XS) == 0.0

    def test_graph_matches_numpy_value(self):
        node = coral_penalty_graph(ad.constant(self.XS), ad.constant(self.YS))
        np.testing.assert_allclose(node.item(),
                                   coral_penalty(self.XS, self.YS), rtol=1e-12)


class TestGaussianKL:
    def test_univariate_hand_value(self):
        # KL(N(1,2) || N(0,1)) = 0.5 (2 + 1 - 1 + ln(1/2)).
        np.testing.assert_allclose(gaussian_kl_univariate(1.0, 2.0, 0.0, 1.0),
                                   0.6534264097200273, rtol=1e-14)

    def test_self_divergence_zero(self):
        assert gaussian_kl_univariate(0.3, 1.7, 0.3, 1.7) == 0.0

    def test_multivariate_reduces_to_univariate(self):
        uni = gaussian_kl_univariate(1.0, 2.0, 0.0, 1.0)
        multi = gaussian_kl_multivariate([1.0], [[2.0]], [0.0], [[1.0]])
        np.testing.assert_allclose(multi, uni, rtol=1e-12)

    def test_multivariate_factorizes_for_diagonal(self):
        # Independent coordinates: KL adds across dimensions.
        m = gaussian_kl_multivariate([1.0, -0.5], np.diag([2.0, 0.5]),
                                     [0.0, 0.0], np.eye(2))
        expected = (gaussian_kl_univariate(1.0, 2.0, 0.0, 1.0)
                    + gaussian_kl_univariate(-0.5, 0.5, 0.0, 1.0))
        np.testing.assert_allclose(m, expected, rtol=1e-12)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(DomainError):
            gaussian_kl_multivariate([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]],
                                     [0.0, 0.0], np.eye(2))


class TestMarginalDivergence:
    def test_dispatch_matches_underlying_estimators(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=64)
        y = rng.normal(0.5, size=64)
        np.testing.assert_allclose(
            marginal_divergence(x, y, DivergenceKind.wasserstein1()),
            wasserstein1_1d(x, y))
        np.testing.assert_allclose(
            marginal_divergence(x, y, DivergenceKind.kl_histogram(bins=16)),
            kl_histogram_1d(x, y, bins=16))
        # The mmd kind reports the distance, i.e. sqrt of the squared stat.
        np.testing.assert_allclose(
            marginal_divergence(x, y, DivergenceKind.mmd(bandwidths=(1.0,))),
            np.sqrt(mmd_squared(x, y, bandwidths=(1.0,))))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractViolation):
            DivergenceKind(kind="total-variation")
