"""The environment interface between the allocation MDP and PPO.

The paper formulates the allocation problem as a single-step MDP (§4.1).
This subpackage holds what :class:`~repro.rlenv.batched_env.BatchedQCloudEnv`
and :class:`~repro.rl.ppo.PPO` share:

* :mod:`~repro.gymapi.spaces` — :class:`~repro.gymapi.spaces.Box`, the
  observation and action space (bounds, shape, dtype and ``contains``),
* :mod:`~repro.gymapi.vector` — the batched-environment base class
  :class:`~repro.gymapi.vector.VecEnv` that PPO collects rollouts from
  (``reset() -> (obs, infos)`` and
  ``step(actions) -> (obs, rewards, terminated, truncated, infos)`` over
  ``num_envs`` rows, one shared lazily seeded ``np_random``),
* :func:`~repro.gymapi.seeding.np_random` — a seeded NumPy generator.
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
