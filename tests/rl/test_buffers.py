"""Unit tests for the rollout buffer and GAE computation.

Buffers built without ``n_envs`` hold one environment: every array has a
``(buffer_size, 1, ...)`` layout, and the single-env checks read column 0.
"""

import numpy as np
import pytest

from repro.rl.buffers import RolloutBuffer


def reference_gae(rewards, values, episode_starts, last_value, done, gamma, lam):
    """Brute-force GAE reference implementation."""
    n = len(rewards)
    advantages = np.zeros(n)
    last_gae = 0.0
    for t in reversed(range(n)):
        if t == n - 1:
            non_terminal = 1.0 - float(done)
            next_value = last_value
        else:
            non_terminal = 1.0 - episode_starts[t + 1]
            next_value = values[t + 1]
        delta = rewards[t] + gamma * next_value * non_terminal - values[t]
        last_gae = delta + gamma * lam * non_terminal * last_gae
        advantages[t] = last_gae
    return advantages


def fill_buffer(buffer, rng, episode_length=None):
    for i in range(buffer.buffer_size):
        episode_start = (i % episode_length == 0) if episode_length else (i == 0)
        buffer.add(
            obs=rng.standard_normal((1, buffer.obs_dim)),
            action=rng.standard_normal((1, buffer.action_dim)),
            reward=rng.normal(size=1),
            episode_start=np.array([episode_start]),
            value=rng.normal(size=1),
            log_prob=rng.normal(size=1),
        )


class TestValidation:
    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            RolloutBuffer(0, 2, 1)
        with pytest.raises(ValueError):
            RolloutBuffer(4, 2, 1, gamma=1.5)
        with pytest.raises(ValueError):
            RolloutBuffer(4, 2, 1, gae_lambda=-0.1)

    def test_add_beyond_capacity_raises(self, rng):
        buffer = RolloutBuffer(2, 3, 1)
        fill_buffer(buffer, rng)
        with pytest.raises(RuntimeError):
            buffer.add(np.zeros((1, 3)), np.zeros((1, 1)), [0.0], [False], [0.0], [0.0])

    def test_get_before_full_raises(self):
        buffer = RolloutBuffer(4, 2, 1)
        with pytest.raises(RuntimeError):
            list(buffer.get(2))
        with pytest.raises(RuntimeError):
            buffer.compute_returns_and_advantage([0.0], [False])


class TestGAE:
    @pytest.mark.parametrize("gamma,lam", [(0.99, 0.95), (0.9, 1.0), (1.0, 0.5), (0.5, 0.0)])
    def test_matches_reference(self, gamma, lam, rng):
        buffer = RolloutBuffer(32, 4, 2, gamma=gamma, gae_lambda=lam)
        fill_buffer(buffer, rng, episode_length=8)
        last_value, done = 0.37, False
        buffer.compute_returns_and_advantage([last_value], [done])
        expected = reference_gae(
            buffer.rewards[:, 0], buffer.values[:, 0], buffer.episode_starts[:, 0],
            last_value, done, gamma, lam,
        )
        assert np.allclose(buffer.advantages[:, 0], expected)
        assert np.allclose(buffer.returns[:, 0], expected + buffer.values[:, 0])

    def test_single_step_episodes_are_montecarlo(self, rng):
        # With every step starting a new episode (the paper's single-step MDP),
        # the advantage reduces to reward - value and the return to the reward.
        buffer = RolloutBuffer(16, 3, 2, gamma=0.99, gae_lambda=0.95)
        for i in range(16):
            buffer.add(
                obs=rng.standard_normal((1, 3)),
                action=rng.standard_normal((1, 2)),
                reward=[float(i)],
                episode_start=[True],
                value=[0.5],
                log_prob=[0.0],
            )
        buffer.compute_returns_and_advantage(last_value=[10.0], done=[True])
        assert np.allclose(buffer.returns[:, 0], np.arange(16, dtype=float))
        assert np.allclose(buffer.advantages[:, 0], np.arange(16, dtype=float) - 0.5)

    def test_gae_lambda_zero_is_td_error(self, rng):
        buffer = RolloutBuffer(8, 2, 1, gamma=0.9, gae_lambda=0.0)
        fill_buffer(buffer, rng)
        buffer.compute_returns_and_advantage([0.2], [False])
        rewards, values = buffer.rewards[:, 0], buffer.values[:, 0]
        next_values = np.append(values[1:], 0.2)
        deltas = rewards + 0.9 * next_values - values
        assert np.allclose(buffer.advantages[:, 0], deltas)


class TestMinibatches:
    def test_batches_cover_everything_once(self, rng):
        buffer = RolloutBuffer(64, 3, 2)
        fill_buffer(buffer, rng)
        buffer.compute_returns_and_advantage([0.0], [True])
        seen = []
        for batch in buffer.get(16, rng=np.random.default_rng(0)):
            assert batch["observations"].shape == (16, 3)
            seen.append(batch["observations"])
        stacked = np.concatenate(seen)
        assert stacked.shape == (64, 3)
        # Every original observation appears exactly once.
        original = buffer.observations[:, 0][np.lexsort(buffer.observations[:, 0].T)]
        shuffled = stacked[np.lexsort(stacked.T)]
        assert np.allclose(original, shuffled)

    def test_batch_size_larger_than_buffer(self, rng):
        buffer = RolloutBuffer(8, 2, 1)
        fill_buffer(buffer, rng)
        buffer.compute_returns_and_advantage([0.0], [True])
        batches = list(buffer.get(1000))
        assert len(batches) == 1
        assert batches[0]["observations"].shape == (8, 2)

    def test_reset_clears_position(self, rng):
        buffer = RolloutBuffer(4, 2, 1)
        fill_buffer(buffer, rng)
        assert len(buffer) == 4
        buffer.reset()
        assert len(buffer) == 0
        assert not buffer.full


class TestExplainedVariance:
    def test_perfect_predictions(self, rng):
        buffer = RolloutBuffer(8, 2, 1, gamma=0.0, gae_lambda=0.0)
        for i in range(8):
            buffer.add(np.zeros((1, 2)), np.zeros((1, 1)), [float(i)], [True], [float(i)], [0.0])
        buffer.compute_returns_and_advantage([0.0], [True])
        assert np.isclose(buffer.explained_variance(), 1.0)

    def test_constant_returns_gives_nan(self, rng):
        buffer = RolloutBuffer(4, 2, 1, gamma=0.0)
        for _ in range(4):
            buffer.add(np.zeros((1, 2)), np.zeros((1, 1)), [1.0], [True], [0.3], [0.0])
        buffer.compute_returns_and_advantage([0.0], [True])
        assert np.isnan(buffer.explained_variance())


class TestMultiEnvBuffer:
    """Batch-axis (n_envs > 1) storage, GAE and flattening."""

    def fill_vec(self, buffer, rng):
        for _ in range(buffer.buffer_size):
            buffer.add(
                obs=rng.standard_normal((buffer.n_envs, buffer.obs_dim)),
                action=rng.standard_normal((buffer.n_envs, buffer.action_dim)),
                reward=rng.normal(size=buffer.n_envs),
                episode_start=rng.random(buffer.n_envs) < 0.5,
                value=rng.normal(size=buffer.n_envs),
                log_prob=rng.normal(size=buffer.n_envs),
            )

    def test_invalid_n_envs(self):
        with pytest.raises(ValueError):
            RolloutBuffer(4, 2, 1, n_envs=0)

    def test_shapes_grow_batch_axis(self, rng):
        buffer = RolloutBuffer(8, 3, 2, n_envs=4)
        assert buffer.observations.shape == (8, 4, 3)
        assert buffer.rewards.shape == (8, 4)
        assert buffer.total_transitions == 32
        self.fill_vec(buffer, rng)
        assert len(buffer) == 32

    def test_gae_matches_per_env_reference(self, rng):
        n_envs, n = 3, 16
        buffer = RolloutBuffer(n, 2, 1, gamma=0.99, gae_lambda=0.95, n_envs=n_envs)
        self.fill_vec(buffer, rng)
        last_values = rng.normal(size=n_envs)
        dones = np.array([True, False, True])
        buffer.compute_returns_and_advantage(last_values, dones)
        for e in range(n_envs):
            expected = reference_gae(
                buffer.rewards[:, e], buffer.values[:, e], buffer.episode_starts[:, e],
                last_values[e], dones[e], 0.99, 0.95,
            )
            assert np.allclose(buffer.advantages[:, e], expected)

    def test_vec_gae_matches_single_env_buffers(self, rng):
        """A (n, B) buffer computes the same GAE as B separate (n,) buffers."""
        n, n_envs = 8, 4
        vec = RolloutBuffer(n, 2, 1, n_envs=n_envs)
        singles = [RolloutBuffer(n, 2, 1) for _ in range(n_envs)]
        data = rng.standard_normal((n, n_envs, 6))
        starts = rng.random((n, n_envs)) < 0.3
        for t in range(n):
            vec.add(data[t, :, :2], data[t, :, 2:3], data[t, :, 3], starts[t],
                    data[t, :, 4], data[t, :, 5])
            for e in range(n_envs):
                singles[e].add(data[t, e:e + 1, :2], data[t, e:e + 1, 2:3], data[t, e:e + 1, 3],
                               starts[t, e:e + 1], data[t, e:e + 1, 4], data[t, e:e + 1, 5])
        last_values = rng.normal(size=n_envs)
        vec.compute_returns_and_advantage(last_values, np.zeros(n_envs, dtype=bool))
        for e in range(n_envs):
            singles[e].compute_returns_and_advantage(last_values[e:e + 1], [False])
            assert np.array_equal(vec.advantages[:, e], singles[e].advantages[:, 0])
            assert np.array_equal(vec.returns[:, e], singles[e].returns[:, 0])

    def test_minibatches_cover_flattened_transitions(self, rng):
        buffer = RolloutBuffer(8, 3, 2, n_envs=4)
        self.fill_vec(buffer, rng)
        buffer.compute_returns_and_advantage(np.zeros(4), np.ones(4, dtype=bool))
        seen = []
        for batch in buffer.get(16, rng=np.random.default_rng(0)):
            assert batch["observations"].shape == (16, 3)
            assert batch["actions"].shape == (16, 2)
            seen.append(batch["observations"])
        stacked = np.concatenate(seen)
        assert stacked.shape == (32, 3)
        flat = buffer.observations.swapaxes(0, 1).reshape(32, 3)
        assert np.allclose(
            flat[np.lexsort(flat.T)], stacked[np.lexsort(stacked.T)]
        )
