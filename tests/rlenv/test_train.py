"""Training-driver tests (small-budget smoke runs of the paper's §6.6 setup)."""

import numpy as np
import pytest

from repro.rlenv.batched_env import BatchedQCloudEnv
from repro.rlenv.train import evaluate_policy, train_allocation_policy
from repro.scheduling.rl_policy import RLAllocationPolicy


@pytest.fixture(scope="module")
def trained_model(default_fleet):
    """A PPO agent trained for a small number of steps (shared across tests)."""
    model, curve = train_allocation_policy(
        total_timesteps=2048, n_steps=512, batch_size=64, seed=0, devices=default_fleet
    )
    return model, curve


class TestTraining:
    def test_curve_structure(self, trained_model):
        _, curve = trained_model
        assert len(curve) == 4
        for point in curve:
            assert set(point) >= {"timesteps", "ep_rew_mean", "entropy_loss"}

    def test_reward_in_fidelity_range(self, trained_model):
        _, curve = trained_model
        rewards = [p["ep_rew_mean"] for p in curve]
        assert all(0.0 < r < 1.0 for r in rewards)

    def test_initial_entropy_loss_matches_paper(self, trained_model):
        # Fig. 5: the entropy loss starts around -7 (5-dim unit Gaussian).
        _, curve = trained_model
        assert curve[0]["entropy_loss"] == pytest.approx(-7.09, abs=0.2)

    def test_evaluate_policy(self, trained_model, default_fleet):
        model, _ = trained_model
        env = BatchedQCloudEnv(n_envs=1, devices=default_fleet, seed=123)
        stats = evaluate_policy(model, env, n_episodes=20, seed=3)
        assert 0.0 < stats["mean_reward"] < 1.0
        assert 1 <= stats["mean_devices_used"] <= 5
        assert stats["n_episodes"] == 20

    def test_evaluate_policy_counts_episodes_over_rows(self, trained_model, default_fleet):
        # 3 rows x 7 steps = 21 allocations, of which the first 20 count.
        model, _ = trained_model
        env = BatchedQCloudEnv(n_envs=3, devices=default_fleet)
        stats = evaluate_policy(model, env, n_episodes=20, seed=3)
        obs, _ = env.reset(seed=3)
        rewards = []
        for _ in range(7):
            obs, step_rewards, _, _, _ = env.step(model.predict(obs)[0])
            rewards.extend(step_rewards.tolist())
        assert stats["mean_reward"] == pytest.approx(np.mean(rewards[:20]), rel=1e-12)

    def test_evaluate_policy_validation(self, trained_model, default_fleet):
        model, _ = trained_model
        env = BatchedQCloudEnv(n_envs=1, devices=default_fleet, seed=1)
        with pytest.raises(ValueError):
            evaluate_policy(model, env, n_episodes=0)


    def test_env_options_reach_the_training_env(self, default_fleet):
        model, _ = train_allocation_policy(
            total_timesteps=64, n_steps=64, batch_size=32, n_epochs=1, seed=0,
            devices=default_fleet, communication_aware=True, n_envs=4,
            env_kwargs={"randomize_utilization": False, "qubit_range": (140, 150)},
        )
        env = model.env
        assert isinstance(env, BatchedQCloudEnv)
        assert env.num_envs == 4
        assert env.communication_aware is True
        assert env.randomize_utilization is False
        assert env.qubit_range == (140, 150)

    def test_env_kwargs_override_communication_aware(self, default_fleet):
        model, _ = train_allocation_policy(
            total_timesteps=64, n_steps=64, batch_size=32, n_epochs=1, seed=0,
            devices=default_fleet, communication_aware=True,
            env_kwargs={"communication_aware": False},
        )
        assert model.env.communication_aware is False


class TestDeployment:
    def test_trained_model_drives_rl_policy(self, trained_model, default_fleet):
        from repro.cloud.config import SimulationConfig
        from repro.cloud.environment import QCloudSimEnv

        model, _ = trained_model
        policy = RLAllocationPolicy(model)
        cfg = SimulationConfig(num_jobs=6, seed=5, policy="rlbase")
        env = QCloudSimEnv(cfg, policy=policy)
        records = env.run_until_complete()
        assert len(records) == 6
        assert all(r.num_devices >= 2 for r in records)

    def test_model_persistence_roundtrip(self, trained_model, tmp_path, default_fleet):
        model, _ = trained_model
        path = str(tmp_path / "allocation_policy.npz")
        model.save(path)

        fresh, _ = train_allocation_policy(
            total_timesteps=512, n_steps=512, seed=99, devices=default_fleet
        )
        obs = np.zeros(16)
        obs[0] = 0.8
        before, _ = fresh.predict(obs)
        fresh.load_parameters(path)
        after, _ = fresh.predict(obs)
        expected, _ = model.predict(obs)
        assert np.allclose(after, expected)
        assert not np.allclose(before, after)
