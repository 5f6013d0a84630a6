"""Reinforcement-learning substrate: a pure-NumPy PPO implementation.

The paper trains its allocation policy with Proximal Policy Optimization
(PPO) using an MLP policy and default hyperparameters (§6.6).  Neither
Stable-Baselines3 nor a deep-learning framework is available offline, so this
subpackage implements the full stack from scratch on top of NumPy:

* :mod:`repro.rl.nn` — layers (:class:`~repro.rl.nn.layers.Linear`,
  activations, :class:`~repro.rl.nn.layers.Sequential`) with explicit
  forward/backward passes, orthogonal initialisation and the
  :class:`~repro.rl.nn.optim.Adam` optimizer,
* :mod:`repro.rl.distributions` — the diagonal-Gaussian action
  distribution,
* :mod:`repro.rl.policies` — the actor-critic MLP policy,
* :mod:`repro.rl.buffers` — ``(time, env)`` rollout storage with GAE(λ)
  advantage estimation,
* :mod:`repro.rl.ppo` — the clipped-surrogate PPO algorithm with the same
  default hyperparameters as Stable-Baselines3 and vectorized rollout
  collection over :mod:`repro.gymapi.vector` environments,
* :mod:`repro.rl.logger` / :mod:`repro.rl.callbacks` — training diagnostics
  (used to regenerate the paper's Fig. 5 training curves).
"""

from repro.rl import nn
from repro.rl.buffers import RolloutBuffer
from repro.rl.callbacks import BaseCallback, CallbackList, TrainingCurveCallback
from repro.rl.distributions import DiagGaussian
from repro.rl.logger import TrainingLogger
from repro.rl.policies import ActorCriticPolicy
from repro.rl.ppo import PPO

__all__ = [
    "ActorCriticPolicy",
    "BaseCallback",
    "CallbackList",
    "DiagGaussian",
    "PPO",
    "RolloutBuffer",
    "TrainingCurveCallback",
    "TrainingLogger",
    "nn",
]
