"""Training-curve generation and summarisation (Fig. 5).

Fig. 5 of the paper plots the PPO agent's average episode reward (left axis)
and entropy loss (right axis) against training timesteps: the reward climbs
and plateaus around 0.70 while the entropy loss rises from roughly −7 towards
−2 as the policy becomes more deterministic.  These helpers condense the raw
per-update curve produced by
:class:`repro.rl.callbacks.TrainingCurveCallback` into the quantities needed
to verify that shape, and :func:`run_training_replicates` regenerates the
curve over several seeds through the experiment engine (so replicates train
concurrently on the process backend).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.engine import ExperimentRunner, derive_seed

__all__ = [
    "summarize_training_curve",
    "downsample_curve",
    "run_training_replicates",
]


def _train_one(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Train one PPO replicate (module-level: picklable worker entry point).

    Returns only the seed and the curve — not the model — so the result
    stays small on the wire; retrain (or use the serial path) when the
    weights themselves are needed.
    """
    from repro.rlenv.train import train_allocation_policy

    seed = payload["seed"]
    kwargs = {k: v for k, v in payload.items() if k != "seed"}
    _model, curve = train_allocation_policy(seed=seed, **kwargs)
    return {"seed": seed, "curve": curve}


def run_training_replicates(
    seeds: Optional[Sequence[int]] = None,
    replicates: int = 4,
    base_seed: int = 0,
    total_timesteps: int = 100_000,
    n_envs: int = 1,
    runner: Optional[ExperimentRunner] = None,
    **train_kwargs: Any,
) -> Dict[int, List[Mapping[str, float]]]:
    """Regenerate the Fig. 5 training curve over several seeds.

    Parameters
    ----------
    seeds:
        Explicit replicate seeds; when ``None``, *replicates* seeds are
        derived deterministically from *base_seed* via
        :func:`repro.engine.derive_seed`.
    n_envs:
        Rows of the batched rollout environment *within* each replicate
        (vectorized PPO); 1 is serial training, while e.g. 16 makes every
        replicate severalfold faster.  Composes with the
        process backend, which parallelises *across* replicates.
    runner:
        Experiment runner to execute on (default serial); with
        ``ExperimentRunner(backend="process")`` replicates train
        concurrently and results are identical to serial.
    train_kwargs:
        Forwarded to :func:`repro.rlenv.train.train_allocation_policy`
        (``n_steps``, ``communication_aware``, …).

    Returns
    -------
    Mapping of seed → per-update training curve, in seed order.
    """
    if seeds is None:
        if replicates <= 0:
            raise ValueError("replicates must be positive")
        seeds = [derive_seed(base_seed, "training", r) for r in range(replicates)]
    payloads = [
        {"seed": int(seed), "total_timesteps": total_timesteps, "n_envs": n_envs, **train_kwargs}
        for seed in seeds
    ]
    runner = runner if runner is not None else ExperimentRunner()
    outcomes = runner.map(_train_one, payloads)
    return {outcome["seed"]: outcome["curve"] for outcome in outcomes}


def summarize_training_curve(curve: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Summarise a PPO training curve.

    Parameters
    ----------
    curve:
        Per-update dictionaries with at least ``timesteps``, ``ep_rew_mean``
        and ``entropy_loss`` (as produced by ``TrainingCurveCallback``).

    Returns
    -------
    Dict with the initial/final reward and entropy loss, the reward gain, and
    the plateau reward (mean over the last quarter of training).
    """
    curve = list(curve)
    if not curve:
        raise ValueError("empty training curve")
    rewards = np.array([float(p["ep_rew_mean"]) for p in curve])
    entropy = np.array([float(p["entropy_loss"]) for p in curve])
    timesteps = np.array([float(p["timesteps"]) for p in curve])

    tail = max(1, len(curve) // 4)
    head = max(1, len(curve) // 4)
    return {
        "num_updates": float(len(curve)),
        "total_timesteps": float(timesteps[-1]),
        "initial_reward": float(np.nanmean(rewards[:head])),
        "final_reward": float(np.nanmean(rewards[-tail:])),
        "reward_gain": float(np.nanmean(rewards[-tail:]) - np.nanmean(rewards[:head])),
        "initial_entropy_loss": float(np.nanmean(entropy[:head])),
        "final_entropy_loss": float(np.nanmean(entropy[-tail:])),
        "entropy_loss_change": float(np.nanmean(entropy[-tail:]) - np.nanmean(entropy[:head])),
    }


def downsample_curve(
    curve: Sequence[Mapping[str, float]], max_points: int = 50
) -> List[Mapping[str, float]]:
    """Thin a training curve to at most *max_points* entries (for reports)."""
    curve = list(curve)
    if max_points <= 0:
        raise ValueError("max_points must be positive")
    if len(curve) <= max_points:
        return curve
    indices = np.linspace(0, len(curve) - 1, max_points).round().astype(int)
    return [curve[i] for i in indices]
