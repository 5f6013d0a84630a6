"""Unit tests for the actor-critic policy."""

import numpy as np
import pytest

from repro.gymapi.spaces import Box
from repro.rl.distributions import DiagGaussian
from repro.rl.policies import ActorCriticPolicy


@pytest.fixture
def continuous_policy():
    obs_space = Box(low=0.0, high=np.inf, shape=(16,), dtype=np.float64)
    act_space = Box(low=0.0, high=1.0, shape=(5,), dtype=np.float64)
    return ActorCriticPolicy(obs_space, act_space, seed=0)


class TestConstruction:
    def test_requires_box_observation(self):
        with pytest.raises(TypeError, match="observation"):
            ActorCriticPolicy(Box(0, 1, shape=(2, 2)), Box(0, 1, shape=(2,)))

    def test_requires_1d_box_action(self):
        with pytest.raises(TypeError, match="action"):
            ActorCriticPolicy(Box(0, 1, shape=(4,)), Box(0, 1, shape=(2, 2)))

    def test_continuous_has_log_std(self, continuous_policy):
        assert continuous_policy.log_std.data.shape == (5,)
        assert np.all(continuous_policy.log_std.data == 0.0)

    def test_parameter_count(self, continuous_policy):
        # pi: 16*64+64 + 64*64+64 + 64*5+5 ; vf: 16*64+64 + 64*64+64 + 64*1+1 ; log_std: 5
        expected_pi = 16 * 64 + 64 + 64 * 64 + 64 + 64 * 5 + 5
        expected_vf = 16 * 64 + 64 + 64 * 64 + 64 + 64 * 1 + 1
        assert continuous_policy.num_parameters() == expected_pi + expected_vf + 5

    def test_custom_architecture(self):
        policy = ActorCriticPolicy(
            Box(0, 1, shape=(3,)), Box(0, 1, shape=(2,)), net_arch=(8,), seed=1
        )
        assert policy.net_arch == (8,)


class TestForward:
    def test_distribution_types(self, continuous_policy, rng):
        obs = rng.random((4, 16))
        assert isinstance(continuous_policy.distribution(obs), DiagGaussian)

    def test_forward_shapes(self, continuous_policy, rng):
        obs = rng.random((6, 16))
        actions, values, log_probs = continuous_policy.forward(obs)
        assert actions.shape == (6, 5)
        assert values.shape == (6,)
        assert log_probs.shape == (6,)

    def test_deterministic_forward_returns_mean(self, continuous_policy, rng):
        obs = rng.random((3, 16))
        a1, _, _ = continuous_policy.forward(obs, deterministic=True)
        a2, _, _ = continuous_policy.forward(obs, deterministic=True)
        assert np.allclose(a1, a2)

    def test_stochastic_forward_varies(self, continuous_policy, rng):
        obs = rng.random((3, 16))
        a1, _, _ = continuous_policy.forward(obs)
        a2, _, _ = continuous_policy.forward(obs)
        assert not np.allclose(a1, a2)

    def test_evaluate_actions_consistency(self, continuous_policy, rng):
        obs = rng.random((5, 16))
        actions, values, log_probs = continuous_policy.forward(obs)
        values2, log_probs2, entropies, dist = continuous_policy.evaluate_actions(obs, actions)
        assert np.allclose(values, values2)
        assert np.allclose(log_probs, log_probs2)
        assert entropies.shape == (5,)

    def test_seeded_policies_identical(self):
        obs_space = Box(0, 1, shape=(6,))
        act_space = Box(0, 1, shape=(2,))
        p1 = ActorCriticPolicy(obs_space, act_space, seed=7)
        p2 = ActorCriticPolicy(obs_space, act_space, seed=7)
        obs = np.linspace(0, 1, 6)[None, :]
        assert np.allclose(p1.distribution(obs).mean, p2.distribution(obs).mean)
        assert np.allclose(p1.value(obs), p2.value(obs))


class TestPredict:
    def test_single_observation(self, continuous_policy, rng):
        action, info = continuous_policy.predict(rng.random(16))
        assert action.shape == (5,)
        assert "value" in info

    def test_batched_observation(self, continuous_policy, rng):
        actions, _ = continuous_policy.predict(rng.random((7, 16)))
        assert actions.shape == (7, 5)

    def test_actions_clipped_into_space(self, continuous_policy, rng):
        action, _ = continuous_policy.predict(rng.random(16) * 10, deterministic=False)
        assert np.all(action >= 0.0) and np.all(action <= 1.0)


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path, continuous_policy, rng):
        obs = rng.random((3, 16))
        expected = continuous_policy.distribution(obs).mean
        path = str(tmp_path / "policy.npz")
        continuous_policy.save(path)

        other = ActorCriticPolicy(
            continuous_policy.observation_space, continuous_policy.action_space, seed=999
        )
        assert not np.allclose(other.distribution(obs).mean, expected)
        other.load(path)
        assert np.allclose(other.distribution(obs).mean, expected)
        assert np.allclose(other.value(obs), continuous_policy.value(obs))

    def test_saved_file_layout(self, tmp_path, continuous_policy):
        # Saved --model files keep their key set, the meta keys included.
        path = str(tmp_path / "policy.npz")
        continuous_policy.save(path)
        data = np.load(path)
        meta = {k: data[k].tolist() for k in data.files if k.startswith("__meta_")}
        assert meta == {
            "__meta_obs_dim": 16,
            "__meta_net_arch": [64, 64],
            "__meta_action_dim": 5,
            "__meta_is_continuous": 1,
        }
        assert set(data.files) - set(meta) == set(continuous_policy.state_dict())

    def test_parameters_flat(self, continuous_policy):
        flat = continuous_policy.parameters_flat
        assert flat.ndim == 1
        assert flat.size == continuous_policy.num_parameters()
