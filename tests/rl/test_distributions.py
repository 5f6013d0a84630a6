"""Unit tests for the action distributions (values and analytic gradients)."""

import numpy as np
import pytest
from scipy import stats

from repro.rl.distributions import DiagGaussian


class TestDiagGaussian:
    def test_log_prob_matches_scipy(self, rng):
        mean = rng.standard_normal((6, 3))
        log_std = np.array([0.1, -0.5, 0.3])
        dist = DiagGaussian(mean, log_std)
        actions = rng.standard_normal((6, 3))
        expected = stats.norm.logpdf(actions, loc=mean, scale=np.exp(log_std)).sum(axis=1)
        assert np.allclose(dist.log_prob(actions), expected)

    def test_entropy_matches_closed_form(self):
        log_std = np.array([0.0, 0.5, -1.0])
        dist = DiagGaussian(np.zeros((2, 3)), log_std)
        expected = np.sum(log_std + 0.5 * np.log(2 * np.pi * np.e))
        assert np.allclose(dist.entropy(), expected)

    def test_unit_gaussian_entropy_is_about_7_for_5_dims(self):
        # The paper's Fig. 5 entropy loss starts near -7: that is exactly the
        # (negative) entropy of a 5-dim unit Gaussian policy at initialisation.
        dist = DiagGaussian(np.zeros((1, 5)), np.zeros(5))
        assert np.isclose(dist.entropy()[0], 7.0947, atol=1e-3)

    def test_sampling_statistics(self, rng):
        mean = np.tile(np.array([1.0, -2.0]), (20000, 1))
        dist = DiagGaussian(mean, np.log([0.5, 2.0]))
        samples = dist.sample(rng)
        assert np.allclose(samples.mean(axis=0), [1.0, -2.0], atol=0.05)
        assert np.allclose(samples.std(axis=0), [0.5, 2.0], atol=0.05)

    def test_mode_is_mean(self):
        mean = np.array([[3.0, 4.0]])
        dist = DiagGaussian(mean, np.zeros(2))
        assert np.allclose(dist.mode(), mean)

    def test_log_prob_grads_match_finite_differences(self, rng):
        mean = rng.standard_normal((4, 3))
        log_std = rng.standard_normal(3) * 0.3
        actions = rng.standard_normal((4, 3))
        dist = DiagGaussian(mean, log_std)
        d_mean, d_log_std = dist.log_prob_grads(actions)

        eps = 1e-6
        for i in range(4):
            for j in range(3):
                mp, mm = mean.copy(), mean.copy()
                mp[i, j] += eps
                mm[i, j] -= eps
                fp = DiagGaussian(mp, log_std).log_prob(actions)[i]
                fm = DiagGaussian(mm, log_std).log_prob(actions)[i]
                assert np.isclose(d_mean[i, j], (fp - fm) / (2 * eps), rtol=1e-4, atol=1e-6)

        for j in range(3):
            lp, lm = log_std.copy(), log_std.copy()
            lp[j] += eps
            lm[j] -= eps
            fp = DiagGaussian(mean, lp).log_prob(actions)
            fm = DiagGaussian(mean, lm).log_prob(actions)
            numeric = (fp - fm) / (2 * eps)
            assert np.allclose(d_log_std[:, j], numeric, rtol=1e-4, atol=1e-6)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            DiagGaussian(np.zeros((2, 3)), np.zeros(2))

    def test_sample_shape_and_seeded_reproducibility(self):
        dist = DiagGaussian(np.zeros((4, 5)), np.zeros(5))
        first = dist.sample(np.random.default_rng(3))
        second = dist.sample(np.random.default_rng(3))
        assert first.shape == (4, 5)
        assert np.array_equal(first, second)

    def test_log_prob_is_maximal_at_the_mean(self, rng):
        mean = rng.standard_normal((3, 4))
        dist = DiagGaussian(mean, np.array([0.2, -0.3, 0.0, 0.5]))
        at_mean = dist.log_prob(mean)
        for _ in range(10):
            assert np.all(dist.log_prob(mean + rng.normal(scale=0.1, size=mean.shape)) < at_mean)

    def test_entropy_does_not_depend_on_the_mean(self, rng):
        log_std = np.array([0.3, -0.7])
        a = DiagGaussian(rng.standard_normal((5, 2)), log_std)
        b = DiagGaussian(rng.standard_normal((5, 2)) * 10.0, log_std)
        assert np.allclose(a.entropy(), b.entropy())

    def test_entropy_grad_matches_finite_differences(self):
        log_std = np.array([0.1, -0.4, 0.25])
        grad = DiagGaussian(np.zeros((1, 3)), log_std).entropy_grad_log_std()
        eps = 1e-6
        for j in range(3):
            lp, lm = log_std.copy(), log_std.copy()
            lp[j] += eps
            lm[j] -= eps
            numeric = (
                DiagGaussian(np.zeros((1, 3)), lp).entropy()[0]
                - DiagGaussian(np.zeros((1, 3)), lm).entropy()[0]
            ) / (2 * eps)
            assert np.isclose(grad[j], numeric, rtol=1e-6)

    def test_one_dimensional_mean_is_a_batch_of_one(self):
        dist = DiagGaussian(np.array([1.0, 2.0]), np.zeros(2))
        assert dist.mean.shape == (1, 2)
        assert dist.dim == 2
        assert dist.log_prob(np.array([1.0, 2.0])).shape == (1,)
