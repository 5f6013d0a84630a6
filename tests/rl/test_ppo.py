"""Unit and learning tests for the PPO algorithm."""

import numpy as np
import pytest

from repro.rl.callbacks import BaseCallback, TrainingCurveCallback
from repro.rl.ppo import PPO
from tests.rl.target_env import ContinuousTargetEnv


class TestConstruction:
    def test_unknown_policy_name(self):
        with pytest.raises(ValueError):
            PPO("CnnPolicy", ContinuousTargetEnv())

    def test_requires_vec_env(self):
        with pytest.raises(TypeError, match="VecEnv"):
            PPO("MlpPolicy", object())

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            PPO("MlpPolicy", ContinuousTargetEnv(), n_steps=64, batch_size=0, seed=0)

    def test_n_epochs_below_one_rejected(self):
        with pytest.raises(ValueError, match="n_epochs"):
            PPO("MlpPolicy", ContinuousTargetEnv(), n_steps=64, batch_size=32, n_epochs=0, seed=0)

    def test_invalid_total_timesteps(self):
        model = PPO("MlpPolicy", ContinuousTargetEnv(), n_steps=8, batch_size=4, seed=0)
        with pytest.raises(ValueError):
            model.learn(total_timesteps=0)

    def test_default_hyperparameters_match_sb3(self):
        model = PPO("MlpPolicy", ContinuousTargetEnv(), seed=0)
        assert model.n_steps == 2048
        assert model.batch_size == 64
        assert model.n_epochs == 10
        assert model.gamma == 0.99
        assert model.gae_lambda == 0.95
        assert model.clip_range_schedule(1.0) == 0.2
        assert model.ent_coef == 0.0
        assert model.vf_coef == 0.5
        assert model.max_grad_norm == 0.5


class TestLearning:
    def test_continuous_reward_improves(self):
        env = ContinuousTargetEnv()
        model = PPO(
            "MlpPolicy", env, n_steps=256, batch_size=64, n_epochs=10,
            learning_rate=1e-3, seed=1,
        )
        curve_cb = TrainingCurveCallback()
        model.learn(total_timesteps=256 * 12, callback=curve_cb)
        rewards = [p["ep_rew_mean"] for p in curve_cb.curve]
        assert rewards[-1] > rewards[0] + 0.05
        assert rewards[-1] > 0.75

    def test_entropy_loss_starts_near_minus_action_dim_entropy(self):
        env = ContinuousTargetEnv(dim=5)
        model = PPO("MlpPolicy", env, n_steps=64, batch_size=32, n_epochs=2, seed=3)
        model.learn(total_timesteps=64)
        first_entropy_loss = model.logger.values("train/entropy_loss")[0]
        # 5-dim unit Gaussian entropy ≈ 7.09 → entropy loss ≈ -7.09 (paper Fig. 5).
        assert first_entropy_loss == pytest.approx(-7.09, abs=0.15)

    def test_logger_records_expected_keys(self):
        model = PPO("MlpPolicy", ContinuousTargetEnv(), n_steps=64, batch_size=32, seed=4)
        model.learn(total_timesteps=128)
        for key in (
            "rollout/ep_rew_mean",
            "train/entropy_loss",
            "train/policy_gradient_loss",
            "train/value_loss",
            "train/approx_kl",
            "train/clip_fraction",
            "train/explained_variance",
            "train/std",
        ):
            assert model.logger.values(key), key

    def test_progress_remaining_decreases(self):
        model = PPO("MlpPolicy", ContinuousTargetEnv(), n_steps=64, batch_size=32, seed=5)
        assert model.progress_remaining == 1.0
        model.learn(total_timesteps=128)
        assert model.progress_remaining <= 0.5

    def test_seeded_training_is_reproducible(self):
        def run():
            env = ContinuousTargetEnv()
            model = PPO("MlpPolicy", env, n_steps=64, batch_size=32, n_epochs=3, seed=11)
            model.learn(total_timesteps=128)
            return model.policy.parameters_flat

        assert np.allclose(run(), run())

    def test_target_kl_early_stops_epochs(self):
        env = ContinuousTargetEnv()
        model = PPO(
            "MlpPolicy", env, n_steps=64, batch_size=32, n_epochs=10,
            learning_rate=5e-2, target_kl=1e-6, seed=6,
        )
        model.learn(total_timesteps=64)  # should not blow up
        assert model.num_timesteps == 64


    def test_callback_stopping_after_rollout_skips_the_update(self):
        class StopAfterRollout(BaseCallback):
            def on_rollout_end(self):
                return False

        model = PPO("MlpPolicy", ContinuousTargetEnv(), n_steps=64, batch_size=32, seed=9)
        before = model.policy.parameters_flat.copy()
        model.learn(total_timesteps=640, callback=StopAfterRollout())
        assert model.num_timesteps == 64
        assert np.array_equal(model.policy.parameters_flat, before)
        assert not model.logger.values("train/entropy_loss")

    def test_callback_stopping_after_update_ends_training(self):
        class StopAfterUpdate(BaseCallback):
            def on_update_end(self):
                return False

        model = PPO("MlpPolicy", ContinuousTargetEnv(), n_steps=64, batch_size=32, seed=9)
        model.learn(total_timesteps=640, callback=StopAfterUpdate())
        assert model.num_timesteps == 64
        assert len(model.logger.values("train/entropy_loss")) == 1

    def test_callback_list_given_as_plain_list(self):
        curve = TrainingCurveCallback()
        model = PPO("MlpPolicy", ContinuousTargetEnv(), n_steps=64, batch_size=32, seed=10)
        model.learn(total_timesteps=128, callback=[curve, BaseCallback()])
        assert [p["timesteps"] for p in curve.curve] == [64.0, 128.0]


class TestPersistence:
    def test_save_and_reload_policy(self, tmp_path):
        env = ContinuousTargetEnv()
        model = PPO("MlpPolicy", env, n_steps=64, batch_size=32, seed=7)
        model.learn(total_timesteps=64)
        obs = np.full(3, 0.5)
        expected, _ = model.predict(obs)

        path = str(tmp_path / "model.npz")
        model.save(path)
        fresh = PPO("MlpPolicy", ContinuousTargetEnv(), n_steps=64, batch_size=32, seed=99)
        fresh.load_parameters(path)
        loaded, _ = fresh.predict(obs)
        assert np.allclose(expected, loaded)
