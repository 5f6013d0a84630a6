"""Benchmark: Figure 5 — PPO training progress.

Paper (Fig. 5): over 100,000 training timesteps the average episode reward
climbs and plateaus around 0.70 while the entropy loss rises from roughly −7
towards −2 as the policy becomes more deterministic; learning stabilises
after about 40,000-50,000 timesteps.

Expected reproduced shape:

* the entropy loss starts at ≈ −7.09 (the entropy of the 5-dimensional unit
  Gaussian policy at initialisation) and increases monotonically-ish,
* the mean episode reward (mean device fidelity) improves over training and
  plateaus in the 0.6-0.9 band,
* the reward of the trained policy exceeds the reward of a random policy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.training_curve import downsample_curve, summarize_training_curve
from repro.rlenv.batched_env import BatchedQCloudEnv
from repro.rlenv.train import evaluate_policy

from benchmarks.conftest import TRAINING_N_ENVS, TRAINING_TIMESTEPS


def test_fig5_training_curve(benchmark, trained_rl_model):
    """Regenerate the Fig. 5 series (reward and entropy loss vs. timesteps)."""

    def regenerate():
        return trained_rl_model

    model, curve = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    stats = summarize_training_curve(curve)

    print("\n=== Fig. 5 series (downsampled) ===")
    print(f"{'timesteps':>10} {'ep_rew_mean':>12} {'entropy_loss':>13}")
    for point in downsample_curve(curve, max_points=20):
        print(f"{point['timesteps']:>10.0f} {point['ep_rew_mean']:>12.4f} "
              f"{point['entropy_loss']:>13.3f}")

    benchmark.extra_info.update(
        {
            "total_timesteps": TRAINING_TIMESTEPS,
            "n_envs": TRAINING_N_ENVS,
            "initial_reward": round(stats["initial_reward"], 4),
            "final_reward": round(stats["final_reward"], 4),
            "initial_entropy_loss": round(stats["initial_entropy_loss"], 3),
            "final_entropy_loss": round(stats["final_entropy_loss"], 3),
        }
    )

    # Entropy loss starts near -7 (5-dim unit Gaussian) and rises.
    assert curve[0]["entropy_loss"] == pytest.approx(-7.09, abs=0.25)
    assert stats["entropy_loss_change"] > 0.0

    # Reward improves and plateaus at a fidelity-like value.
    assert stats["reward_gain"] > 0.0
    assert 0.55 < stats["final_reward"] < 0.95

    # The trained policy beats a random policy on held-out jobs.
    eval_env = BatchedQCloudEnv(n_envs=1, seed=999)
    trained_stats = evaluate_policy(model, eval_env, n_episodes=100, seed=11)

    class RandomModel:
        def __init__(self):
            self.rng = np.random.default_rng(0)

        def predict(self, obs, deterministic=True):
            return self.rng.random(5), {}

    random_stats = evaluate_policy(
        RandomModel(), BatchedQCloudEnv(n_envs=1, seed=999), n_episodes=100, seed=11
    )
    benchmark.extra_info["trained_eval_reward"] = round(trained_stats["mean_reward"], 4)
    benchmark.extra_info["random_eval_reward"] = round(random_stats["mean_reward"], 4)
    assert trained_stats["mean_reward"] >= random_stats["mean_reward"] - 0.01


def test_fig5_ppo_update_throughput(benchmark):
    """Micro-benchmark: wall-clock cost of one PPO rollout + update cycle."""
    from repro.rl.ppo import PPO

    env = BatchedQCloudEnv(n_envs=1, seed=3)
    model = PPO("MlpPolicy", env, n_steps=256, batch_size=64, n_epochs=5, seed=3)

    def one_cycle():
        model.collect_rollouts()
        model.train()
        return model.num_timesteps

    benchmark(one_cycle)
    assert model.num_timesteps >= 256
