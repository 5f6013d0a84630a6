"""Vectorized environments: step ``B`` environments with one call.

Rollout collection dominates RL training cost when every transition is a
batch-size-1 policy forward plus a Python-level environment step.  A
:class:`VecEnv` amortises that cost: observations come back as one
``(num_envs, obs_dim)`` array, actions go in as one ``(num_envs, act_dim)``
array, and the policy runs a single large matmul per vector step.

Environments subclass :class:`VecEnv` and batch their dynamics themselves
with NumPy (e.g. :class:`repro.rlenv.batched_env.BatchedQCloudEnv`); one row
is a serial environment.

Auto-reset semantics follow Stable-Baselines3 / Gymnasium's ``SyncVectorEnv``:
when a sub-environment's episode ends, it is reset immediately and the *new*
episode's first observation is returned; the terminal observation and info are
preserved under ``info["final_observation"]`` / ``info["final_info"]``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.gymapi.seeding import np_random
from repro.gymapi.spaces import Box

__all__ = ["VecEnv"]


class VecEnv:
    """Base class for vectorized environments.

    Subclasses must set :attr:`num_envs`, :attr:`observation_space` and
    :attr:`action_space` (the *single-environment* spaces, as in SB3) and
    implement:

    * ``reset(seed=None, options=None) -> (obs, infos)`` where ``obs`` has
      shape ``(num_envs, *obs_shape)`` and ``infos`` is a list of per-env
      dicts,
    * ``step(actions) -> (obs, rewards, terminated, truncated, infos)`` with
      ``actions`` of shape ``(num_envs, *act_shape)``, ``rewards`` of shape
      ``(num_envs,)`` (float64) and ``terminated``/``truncated`` of shape
      ``(num_envs,)`` (bool).

    Episodes auto-reset: a sub-environment that finishes an episode during
    ``step`` returns the next episode's initial observation.
    """

    num_envs: int
    observation_space: Box
    action_space: Box

    _np_random: Optional[np.random.Generator] = None

    @property
    def np_random(self) -> np.random.Generator:
        """Random generator shared by all rows (lazily seeded)."""
        if self._np_random is None:
            self._np_random, _ = np_random()
        return self._np_random

    def reset(
        self, *, seed: Optional[int] = None, options: Optional[Dict[str, Any]] = None
    ) -> Tuple[np.ndarray, List[Dict[str, Any]]]:
        raise NotImplementedError

    def step(
        self, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[Dict[str, Any]]]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources held by the environments."""

    def __enter__(self) -> "VecEnv":
        return self

    def __exit__(self, *args: Any) -> bool:
        self.close()
        return False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} num_envs={getattr(self, 'num_envs', '?')}>"
