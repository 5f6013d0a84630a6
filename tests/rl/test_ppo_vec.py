"""Vectorized PPO rollout collection: accounting, regression and warnings.

The reference curve values in :class:`TestSerialRegression` were produced by
the pre-vectorization serial PPO and must keep reproducing on a one-row
environment.
"""

import pytest

from repro.rl.callbacks import TrainingCurveCallback
from repro.rl.ppo import PPO
from repro.rlenv.batched_env import BatchedQCloudEnv
from repro.rlenv.train import train_allocation_policy
from tests.rl.target_env import ContinuousTargetEnv


class TestConstruction:
    def test_uneven_minibatch_warns(self):
        with pytest.warns(UserWarning, match="not a multiple of batch_size"):
            PPO("MlpPolicy", ContinuousTargetEnv(), n_steps=100, batch_size=64, seed=0)

    def test_even_minibatch_does_not_warn(self, recwarn):
        PPO("MlpPolicy", ContinuousTargetEnv(), n_steps=128, batch_size=64, seed=0)
        assert not [w for w in recwarn.list if issubclass(w.category, UserWarning)]

    def test_n_steps_must_divide_by_n_envs(self):
        venv = ContinuousTargetEnv(n_envs=3)
        with pytest.raises(ValueError, match="divisible"):
            PPO("MlpPolicy", venv, n_steps=64, batch_size=32, seed=0)

    def test_n_envs_derived_from_vecenv(self):
        venv = ContinuousTargetEnv(n_envs=4)
        model = PPO("MlpPolicy", venv, n_steps=64, batch_size=32, seed=0)
        assert model.n_envs == 4
        assert model.rollout_buffer.buffer_size == 16
        assert model.rollout_buffer.n_envs == 4


class TestVectorizedLearning:
    def test_vec_env_timestep_accounting(self):
        venv = ContinuousTargetEnv(n_envs=4)
        model = PPO("MlpPolicy", venv, n_steps=64, batch_size=32, seed=0)
        model.learn(total_timesteps=128)
        assert model.num_timesteps == 128

    def test_vec_env_reward_improves(self):
        venv = ContinuousTargetEnv(n_envs=4)
        model = PPO(
            "MlpPolicy", venv, n_steps=256, batch_size=64, n_epochs=10,
            learning_rate=1e-3, seed=1,
        )
        curve_cb = TrainingCurveCallback()
        model.learn(total_timesteps=256 * 12, callback=curve_cb)
        rewards = [p["ep_rew_mean"] for p in curve_cb.curve]
        assert rewards[-1] > rewards[0] + 0.05
        assert rewards[-1] > 0.75

    def test_batched_qcloud_env_trains(self, default_fleet):
        venv = BatchedQCloudEnv(n_envs=8, devices=default_fleet, seed=0)
        model = PPO("MlpPolicy", venv, n_steps=128, batch_size=64, seed=0)
        curve_cb = TrainingCurveCallback()
        model.learn(total_timesteps=256, callback=curve_cb)
        assert model.num_timesteps == 256
        assert len(curve_cb.curve) == 2
        # mean single-step reward is a mean device fidelity, so in (0, 1]
        assert 0.0 < curve_cb.curve[-1]["ep_rew_mean"] <= 1.0

    def test_train_allocation_policy_n_envs_smoke(self, default_fleet):
        model, curve = train_allocation_policy(
            total_timesteps=256, n_steps=128, batch_size=64, seed=0,
            n_envs=8, devices=default_fleet,
        )
        assert model.n_envs == 8
        assert isinstance(model.env, BatchedQCloudEnv)
        assert len(curve) == 2

    def test_train_allocation_policy_rejects_bad_n_envs(self):
        with pytest.raises(ValueError):
            train_allocation_policy(total_timesteps=64, n_envs=0)


class TestSerialRegression:
    """``n_envs=1`` training matches the pre-vectorization serial PPO.

    Reference values were produced by the original serial implementation
    (commit d2146de) with identical arguments.  A one-row
    :class:`BatchedQCloudEnv` reproduces them, equal to rel 1e-12; last-ulp
    ``pow`` differences (array vs scalar) are all that separates the two.
    Any RNG-stream, arithmetic or ordering change in the rollout path would
    shift them wildly.
    """

    def test_qcloud_training_curve_is_bit_identical(self, default_fleet):
        model, curve = train_allocation_policy(
            total_timesteps=256, n_steps=128, batch_size=64, seed=0,
            devices=default_fleet,
        )
        rewards = [p["ep_rew_mean"] for p in curve]
        entropy = [p["entropy_loss"] for p in curve]
        assert rewards == pytest.approx(
            [0.7994111906856756, 0.8003448108094423], rel=1e-12, abs=0.0
        )
        assert entropy == pytest.approx(
            [-7.089698730551936, -7.087089707812663], rel=1e-12, abs=0.0
        )
        assert model.policy.parameters_flat[:4] == pytest.approx(
            [0.024695378708464825, -0.02872840868193092,
             0.12296252929789644, 0.01750972153690626],
            rel=1e-12, abs=0.0,
        )

    def test_fixed_utilization_training_curve_is_bit_identical(self, default_fleet):
        _model, curve = train_allocation_policy(
            total_timesteps=128, n_steps=64, batch_size=32, seed=7,
            devices=default_fleet, env_kwargs={"randomize_utilization": False},
        )
        rewards = [p["ep_rew_mean"] for p in curve]
        assert rewards == pytest.approx(
            [0.7799791118983558, 0.7869439716993463], rel=1e-12, abs=0.0
        )
