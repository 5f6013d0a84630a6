"""PPO training of the allocation agent (paper §6.6).

The paper trains the agent for 100,000 timesteps with an MLP policy and
default PPO hyperparameters on a fleet of five IBM devices initialised from
calibration data; the reward is the mean circuit fidelity of the resulting
allocation.  :func:`train_allocation_policy` reproduces that setup and also
returns the training curve (mean episode reward and entropy loss versus
timesteps) needed to regenerate Fig. 5.

Rollouts are collected from a :class:`~repro.rlenv.batched_env.BatchedQCloudEnv`
with ``n_envs`` rows: ``n_envs`` jobs sampled and scored per vector step.
Training is serial by default (``n_envs=1``, a one-row batch); larger values
cut wall-clock training time severalfold at identical hyperparameters (the
gradient updates see the same ``n_steps``-transition rollouts, just
collected in batches).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gymapi.vector import VecEnv
from repro.hardware.backends import DeviceProfile
from repro.rl.callbacks import TrainingCurveCallback
from repro.rl.ppo import PPO
from repro.rlenv.batched_env import BatchedQCloudEnv

__all__ = ["train_allocation_policy", "evaluate_policy"]


def train_allocation_policy(
    total_timesteps: int = 100_000,
    devices: Optional[Sequence[DeviceProfile]] = None,
    seed: int = 0,
    n_steps: int = 2048,
    batch_size: int = 64,
    n_epochs: int = 10,
    learning_rate: float = 3e-4,
    ent_coef: float = 0.0,
    communication_aware: bool = False,
    n_envs: int = 1,
    env_kwargs: Optional[Dict[str, Any]] = None,
    verbose: int = 0,
) -> Tuple[PPO, List[Dict[str, float]]]:
    """Train the PPO allocation agent.

    Parameters
    ----------
    total_timesteps:
        Environment steps to train for (the paper uses 100,000; the agent
        stabilises after roughly 40,000-50,000).
    devices:
        Device profiles (defaults to the paper's five-device fleet).
    seed:
        Seed controlling environment sampling, policy initialisation and
        mini-batch shuffling.
    communication_aware:
        Fold the communication penalty into the reward (paper future work).
    n_envs:
        Rows of the :class:`~repro.rlenv.batched_env.BatchedQCloudEnv` that
        rollouts are collected from (default 1: serial training); must divide
        ``n_steps``.
    env_kwargs:
        Extra keyword arguments forwarded to the environment constructor.

    Returns
    -------
    (model, curve):
        The trained PPO model and the per-update training curve
        (list of dicts with ``timesteps``, ``ep_rew_mean``, ``entropy_loss``,
        ``policy_loss``, ``value_loss``, ``approx_kl``).
    """
    env_kwargs = dict(env_kwargs or {})
    env_kwargs.setdefault("communication_aware", communication_aware)
    env = BatchedQCloudEnv(n_envs=n_envs, devices=devices, seed=seed, **env_kwargs)

    model = PPO(
        "MlpPolicy",
        env,
        learning_rate=learning_rate,
        n_steps=n_steps,
        batch_size=batch_size,
        n_epochs=n_epochs,
        ent_coef=ent_coef,
        seed=seed,
        verbose=verbose,
    )
    curve_callback = TrainingCurveCallback()
    model.learn(total_timesteps=total_timesteps, callback=curve_callback)
    return model, curve_callback.curve


def evaluate_policy(
    model: Any,
    env: VecEnv,
    n_episodes: int = 100,
    deterministic: bool = True,
    seed: Optional[int] = None,
) -> Dict[str, float]:
    """Evaluate a trained allocation model on fresh random jobs.

    *env* is a single-step allocation environment such as
    :class:`~repro.rlenv.batched_env.BatchedQCloudEnv`: every vector step
    scores one allocation per row.  Returns mean/std episode reward (i.e.
    mean device fidelity) and the mean number of devices used per allocation
    over the first *n_episodes* allocations.
    """
    if n_episodes <= 0:
        raise ValueError("n_episodes must be positive")
    rewards: List[float] = []
    devices_used: List[int] = []
    obs, _ = env.reset(seed=seed)
    while len(rewards) < n_episodes:
        actions, _ = model.predict(obs, deterministic=deterministic)
        obs, step_rewards, _terminated, _truncated, infos = env.step(actions)
        rewards.extend(step_rewards.tolist())
        devices_used.extend(int(info["num_devices"]) for info in infos)
    return {
        "mean_reward": float(np.mean(rewards[:n_episodes])),
        "std_reward": float(np.std(rewards[:n_episodes])),
        "mean_devices_used": float(np.mean(devices_used[:n_episodes])),
        "n_episodes": float(n_episodes),
    }
