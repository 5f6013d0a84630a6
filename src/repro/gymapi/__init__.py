"""A minimal Gymnasium-compatible vectorized environment API.

The paper formulates the allocation problem as a single-step MDP exposed
through the Gymnasium API (§4.1).  Gymnasium itself is not available offline,
so this subpackage provides the subset the reproduction uses, with the same
signatures:

* :mod:`~repro.gymapi.spaces` with :class:`~repro.gymapi.spaces.Box`,
* :mod:`~repro.gymapi.vector` with the batched-environment base class
  :class:`~repro.gymapi.vector.VecEnv` that PPO collects rollouts from
  (``reset() -> (obs, infos)`` and
  ``step(actions) -> (obs, rewards, terminated, truncated, infos)`` over
  ``num_envs`` rows).
"""

from repro.gymapi import spaces, vector
from repro.gymapi.seeding import np_random
from repro.gymapi.vector import VecEnv

__all__ = [
    "VecEnv",
    "np_random",
    "spaces",
    "vector",
]
