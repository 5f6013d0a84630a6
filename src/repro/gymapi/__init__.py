"""A minimal Gymnasium-compatible environment API.

The paper formulates the allocation problem as a single-step MDP exposed
through the Gymnasium API (§4.1).  Gymnasium itself is not available offline,
so this subpackage provides a drop-in substitute with the same signatures:

* :class:`~repro.gymapi.core.Env` with ``reset() -> (obs, info)`` and
  ``step(action) -> (obs, reward, terminated, truncated, info)``,
* :mod:`~repro.gymapi.spaces` with :class:`~repro.gymapi.spaces.Box`,
  :class:`~repro.gymapi.spaces.Discrete` and
  :class:`~repro.gymapi.spaces.Dict`,
* :mod:`~repro.gymapi.vector` with the batched-environment API
  (:class:`~repro.gymapi.vector.VecEnv`,
  :class:`~repro.gymapi.vector.SyncVecEnv`) used by vectorized PPO rollout
  collection.
"""

from repro.gymapi import spaces, vector
from repro.gymapi.core import Env
from repro.gymapi.seeding import np_random
from repro.gymapi.vector import SyncVecEnv, VecEnv

__all__ = [
    "Env",
    "SyncVecEnv",
    "VecEnv",
    "np_random",
    "spaces",
    "vector",
]
