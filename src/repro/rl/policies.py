"""Actor-critic MLP policy for PPO.

The architecture mirrors Stable-Baselines3's ``MlpPolicy`` default for PPO:
two separate MLP towers (policy and value) with two hidden layers of 64 tanh
units each, a linear action head initialised with small gain, a linear value
head, and a state-independent trainable log standard deviation for the
diagonal-Gaussian action distribution.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.gymapi.spaces import Box
from repro.rl.distributions import DiagGaussian
from repro.rl.nn.layers import MLP, Module, Parameter, Sequential

__all__ = ["ActorCriticPolicy"]


class ActorCriticPolicy(Module):
    """MLP actor-critic with a diagonal-Gaussian action head.

    Parameters
    ----------
    observation_space:
        A :class:`~repro.gymapi.spaces.Box` observation space (1-D).
    action_space:
        A :class:`~repro.gymapi.spaces.Box` action space (1-D).
    net_arch:
        Hidden layer sizes shared by the policy and value towers.
    log_std_init:
        Initial value of the log standard deviation.
    seed:
        Seed for weight initialisation and action sampling.
    """

    def __init__(
        self,
        observation_space: Box,
        action_space: Box,
        net_arch: Sequence[int] = (64, 64),
        activation: str = "tanh",
        log_std_init: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        if not isinstance(observation_space, Box) or len(observation_space.shape) != 1:
            raise TypeError("ActorCriticPolicy requires a 1-D Box observation space")
        if not isinstance(action_space, Box) or len(action_space.shape) != 1:
            raise TypeError("ActorCriticPolicy requires a 1-D Box action space")
        self.observation_space = observation_space
        self.action_space = action_space
        self.net_arch = tuple(int(x) for x in net_arch)
        self.rng = np.random.default_rng(seed)

        obs_dim = observation_space.shape[0]
        self.action_dim = action_space.shape[0]

        # Separate towers for policy and value (SB3 default net_arch for PPO).
        self.pi_net: Sequential = MLP(
            obs_dim, self.net_arch, self.action_dim, activation=activation, out_gain=0.01, rng=self.rng
        )
        self.vf_net: Sequential = MLP(
            obs_dim, self.net_arch, 1, activation=activation, out_gain=1.0, rng=self.rng
        )
        self.log_std = Parameter(np.full(self.action_dim, float(log_std_init)), "log_std")

    # -- forward passes -----------------------------------------------------
    def distribution(self, obs: np.ndarray) -> DiagGaussian:
        """Run the policy tower and return the action distribution."""
        obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
        return DiagGaussian(self.pi_net.forward(obs), self.log_std.data)

    def value(self, obs: np.ndarray) -> np.ndarray:
        """Run the value tower and return state values of shape ``(batch,)``."""
        obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
        return self.vf_net.forward(obs)[:, 0]

    def forward(
        self, obs: np.ndarray, deterministic: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample actions and return ``(actions, values, log_probs)``."""
        dist = self.distribution(obs)
        if deterministic:
            actions = dist.mode()
        else:
            actions = dist.sample(self.rng)
        values = self.value(obs)
        log_probs = dist.log_prob(actions)
        return actions, values, log_probs

    def evaluate_actions(
        self, obs: np.ndarray, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, DiagGaussian]:
        """Return ``(values, log_probs, entropies, distribution)`` for given actions.

        The forward caches left in the towers allow the caller to immediately
        backpropagate through :meth:`backward_policy` / :meth:`backward_value`.
        """
        dist = self.distribution(obs)
        values = self.value(obs)
        log_probs = dist.log_prob(actions)
        entropies = dist.entropy()
        return values, log_probs, entropies, dist

    def predict(
        self, obs: np.ndarray, deterministic: bool = True
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Deployment helper: return the action for a single observation.

        Mirrors SB3's ``model.predict``: accepts a single observation (1-D)
        or a batch, returns actions with matching leading shape, clipped into
        the action space.
        """
        obs_arr = np.asarray(obs, dtype=np.float64)
        single = obs_arr.ndim == 1
        actions, values, _ = self.forward(obs_arr, deterministic=deterministic)
        actions = np.clip(actions, self.action_space.low, self.action_space.high)
        if single:
            return actions[0], {"value": values[0]}
        return actions, {"value": values}

    # -- backward passes ----------------------------------------------------
    def backward_policy(self, grad_action_out: np.ndarray) -> None:
        """Backpropagate a gradient w.r.t. the policy tower output."""
        self.pi_net.backward(grad_action_out)

    def backward_value(self, grad_value_out: np.ndarray) -> None:
        """Backpropagate a gradient w.r.t. the value tower output.

        Parameters
        ----------
        grad_value_out:
            Array of shape ``(batch,)`` — gradient w.r.t. the scalar values.
        """
        grad = np.asarray(grad_value_out, dtype=np.float64).reshape(-1, 1)
        self.vf_net.backward(grad)

    # -- persistence ----------------------------------------------------------
    def save(self, path: str) -> None:
        """Save all parameters (including log_std) to a ``.npz`` file.

        The ``__meta_is_continuous`` key is always 1; it is kept so the file
        layout stays that of earlier saved models.
        """
        arrays = self.state_dict()
        meta = {
            "obs_dim": np.asarray(self.observation_space.shape[0]),
            "net_arch": np.asarray(self.net_arch),
            "action_dim": np.asarray(self.action_dim),
            "is_continuous": np.asarray(1),
        }
        np.savez(path, **arrays, **{f"__meta_{k}": v for k, v in meta.items()})

    def load(self, path: str) -> None:
        """Load parameters previously saved with :meth:`save`."""
        data = np.load(path, allow_pickle=False)
        arrays = {k: data[k] for k in data.files if not k.startswith("__meta_")}
        self.load_state_dict(arrays)

    @property
    def parameters_flat(self) -> np.ndarray:
        """All parameters concatenated into a single flat vector (diagnostics)."""
        return np.concatenate([p.data.ravel() for p in self.parameters()])
