#!/usr/bin/env python
"""Train the PPO allocation agent and deploy it in the cloud simulator (§6.6).

Reproduces the paper's RL pipeline end to end:

1. build the BatchedQCloudEnv allocation MDP over the five-device fleet,
2. train PPO (MLP policy, default hyperparameters) — the paper uses 100,000
   timesteps; pass a smaller budget for a quick demo,
3. print the Fig.-5-style training curve (mean episode reward and entropy
   loss versus timesteps),
4. save the trained policy to disk,
5. deploy it as the ``rlbase`` scheduling policy inside the discrete-event
   simulator and report the resulting Table-2-style metrics.

Run:
    python examples/train_rl_scheduler.py [TOTAL_TIMESTEPS] [MODEL_PATH] [N_ENVS]

``N_ENVS`` (default 16) is the number of ``BatchedQCloudEnv`` rows that
rollouts are collected from — several times faster than serial training;
pass 1 to train serially on a one-row environment.
"""

from __future__ import annotations

import sys

from repro.analysis.training_curve import downsample_curve, summarize_training_curve
from repro.cloud import QCloudSimEnv, SimulationConfig
from repro.rlenv import BatchedQCloudEnv, evaluate_policy, train_allocation_policy
from repro.scheduling import RLAllocationPolicy


def main(
    total_timesteps: int = 20_000,
    model_path: str = "rl_allocation_policy.npz",
    n_envs: int = 16,
) -> None:
    print(f"Training PPO for {total_timesteps:,} timesteps with n_envs={n_envs} "
          f"(paper: 100,000; learning stabilises around 40,000-50,000)...")
    model, curve = train_allocation_policy(
        total_timesteps=total_timesteps, seed=0, n_envs=n_envs
    )

    print("\n=== Training curve (Fig. 5) ===")
    print(f"{'timesteps':>10} {'ep_rew_mean':>12} {'entropy_loss':>13}")
    for point in downsample_curve(curve, max_points=15):
        print(f"{point['timesteps']:>10.0f} {point['ep_rew_mean']:>12.4f} "
              f"{point['entropy_loss']:>13.3f}")
    stats = summarize_training_curve(curve)
    print(f"\nreward:        {stats['initial_reward']:.4f} -> {stats['final_reward']:.4f}")
    print(f"entropy loss:  {stats['initial_entropy_loss']:.2f} -> {stats['final_entropy_loss']:.2f}")

    model.save(model_path)
    print(f"\nSaved trained policy to {model_path}")

    print("\n=== Held-out evaluation of the allocation policy ===")
    eval_env = BatchedQCloudEnv(n_envs=1, seed=1234)
    eval_stats = evaluate_policy(model, eval_env, n_episodes=200, seed=77)
    print(f"mean reward (mean device fidelity): {eval_stats['mean_reward']:.4f} "
          f"± {eval_stats['std_reward']:.4f}")
    print(f"devices used per allocation       : {eval_stats['mean_devices_used']:.2f}")

    print("\n=== Deployment in the discrete-event simulator (rlbase row of Table 2) ===")
    config = SimulationConfig(policy="rlbase", num_jobs=100, seed=2025)
    env = QCloudSimEnv(config, policy=RLAllocationPolicy(model))
    env.run_until_complete()
    summary = env.summary()
    print(f"T_sim  : {summary.total_simulation_time:,.2f} s")
    print(f"fidelity: {summary.mean_fidelity:.5f} ± {summary.std_fidelity:.5f}")
    print(f"T_comm : {summary.total_communication_time:,.2f} s")
    print(f"devices per job: {summary.mean_devices_per_job:.2f}")


if __name__ == "__main__":
    main(
        total_timesteps=int(sys.argv[1]) if len(sys.argv) > 1 else 20_000,
        model_path=sys.argv[2] if len(sys.argv) > 2 else "rl_allocation_policy.npz",
        n_envs=int(sys.argv[3]) if len(sys.argv) > 3 else 16,
    )
