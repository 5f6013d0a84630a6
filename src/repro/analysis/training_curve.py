"""Training-curve summarisation (Fig. 5).

Fig. 5 of the paper plots the PPO agent's average episode reward (left axis)
and entropy loss (right axis) against training timesteps: the reward climbs
and plateaus around 0.70 while the entropy loss rises from roughly −7 towards
−2 as the policy becomes more deterministic.  These helpers condense the raw
per-update curve produced by
:class:`repro.rl.callbacks.TrainingCurveCallback` into the quantities needed
to verify that shape.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

__all__ = [
    "summarize_training_curve",
    "downsample_curve",
]


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
