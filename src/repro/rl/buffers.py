"""Rollout storage with Generalised Advantage Estimation (GAE).

Every array has a ``(buffer_size, n_envs, ...)`` layout, filled one vector
step at a time by rollout collection.  GAE runs once over ``(n_envs,)``
vectors per time step, and mini-batches are served from the
``buffer_size * n_envs`` transitions, flattened env-major.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

import numpy as np

__all__ = ["RolloutBuffer"]


class RolloutBuffer:
    """Fixed-size buffer holding one on-policy rollout.

    The buffer stores transitions collected by the PPO data-collection loop
    and computes advantage estimates with GAE(λ) once the rollout is
    complete.  Mini-batches are then served in random order for the gradient
    updates.

    Parameters
    ----------
    buffer_size:
        Number of environment *vector* steps per rollout — PPO's
        ``n_steps // n_envs``.  Total stored transitions are
        ``buffer_size * n_envs``.
    obs_dim, action_dim:
        Dimensionality of observations and (continuous) actions.
    gamma, gae_lambda:
        Discount factor and GAE smoothing factor.
    n_envs:
        Number of parallel environments feeding the buffer.
    """

    def __init__(
        self,
        buffer_size: int,
        obs_dim: int,
        action_dim: int,
        gamma: float = 0.99,
        gae_lambda: float = 0.95,
        n_envs: int = 1,
    ) -> None:
        if buffer_size <= 0:
            raise ValueError("buffer_size must be > 0")
        if n_envs <= 0:
            raise ValueError("n_envs must be > 0")
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if not 0.0 <= gae_lambda <= 1.0:
            raise ValueError("gae_lambda must be in [0, 1]")
        self.buffer_size = int(buffer_size)
        self.obs_dim = int(obs_dim)
        self.action_dim = int(action_dim)
        self.gamma = float(gamma)
        self.gae_lambda = float(gae_lambda)
        self.n_envs = int(n_envs)
        self.reset()

    @property
    def total_transitions(self) -> int:
        """Number of transitions held by a full buffer."""
        return self.buffer_size * self.n_envs

    def reset(self) -> None:
        """Clear the buffer and reallocate storage."""
        steps = (self.buffer_size, self.n_envs)
        self.observations = np.zeros((*steps, self.obs_dim), dtype=np.float64)
        self.actions = np.zeros((*steps, self.action_dim), dtype=np.float64)
        self.rewards = np.zeros(steps, dtype=np.float64)
        self.episode_starts = np.zeros(steps, dtype=np.float64)
        self.values = np.zeros(steps, dtype=np.float64)
        self.log_probs = np.zeros(steps, dtype=np.float64)
        self.advantages = np.zeros(steps, dtype=np.float64)
        self.returns = np.zeros(steps, dtype=np.float64)
        self.pos = 0
        self.full = False
        self._flat_cache: Optional[Dict[str, np.ndarray]] = None

    def add(
        self,
        obs: np.ndarray,
        action: np.ndarray,
        reward: np.ndarray,
        episode_start: np.ndarray,
        value: np.ndarray,
        log_prob: np.ndarray,
    ) -> None:
        """Append one transition per environment (a whole vector step).

        Each argument holds one entry per environment: ``obs`` and ``action``
        have shape ``(n_envs, dim)``, the others ``(n_envs,)``.
        """
        if self.full:
            raise RuntimeError("RolloutBuffer is full; call reset() before adding more data")
        self.observations[self.pos] = np.asarray(obs, dtype=np.float64).reshape(
            self.n_envs, self.obs_dim
        )
        self.actions[self.pos] = np.asarray(action, dtype=np.float64).reshape(
            self.n_envs, self.action_dim
        )
        self.rewards[self.pos] = np.asarray(reward, dtype=np.float64).reshape(self.n_envs)
        self.episode_starts[self.pos] = np.asarray(episode_start, dtype=np.float64).reshape(
            self.n_envs
        )
        self.values[self.pos] = np.asarray(value, dtype=np.float64).reshape(self.n_envs)
        self.log_probs[self.pos] = np.asarray(log_prob, dtype=np.float64).reshape(self.n_envs)
        self.pos += 1
        if self.pos == self.buffer_size:
            self.full = True

    def compute_returns_and_advantage(self, last_value: np.ndarray, done: np.ndarray) -> None:
        """Compute GAE(λ) advantages and discounted returns.

        Parameters
        ----------
        last_value:
            ``(n_envs,)`` value estimates of the state following each
            environment's final transition.
        done:
            ``(n_envs,)`` flags: whether each environment's final transition
            terminated its episode.
        """
        if not self.full:
            raise RuntimeError("Rollout is not complete")
        last_values = np.asarray(last_value, dtype=np.float64).reshape(self.n_envs)
        next_episode_start = np.asarray(done, dtype=np.float64).reshape(self.n_envs)
        last_gae = np.zeros(self.n_envs, dtype=np.float64)
        for step in reversed(range(self.buffer_size)):
            if step == self.buffer_size - 1:
                next_non_terminal = 1.0 - next_episode_start
                next_value = last_values
            else:
                next_non_terminal = 1.0 - self.episode_starts[step + 1]
                next_value = self.values[step + 1]
            delta = self.rewards[step] + self.gamma * next_value * next_non_terminal - self.values[step]
            last_gae = delta + self.gamma * self.gae_lambda * next_non_terminal * last_gae
            self.advantages[step] = last_gae
        self.returns = self.advantages + self.values
        self._flat_cache = None

    def _flatten(self, array: np.ndarray) -> np.ndarray:
        """Collapse the (time, env) axes into one transition axis (env-major)."""
        return array.swapaxes(0, 1).reshape(self.total_transitions, *array.shape[2:])

    def get(
        self, batch_size: Optional[int] = None, rng: Optional[np.random.Generator] = None
    ) -> Iterator[Dict[str, np.ndarray]]:
        """Yield shuffled mini-batches covering the whole buffer once."""
        if not self.full:
            raise RuntimeError("Rollout is not complete")
        rng = rng if rng is not None else np.random.default_rng()
        total = self.total_transitions
        indices = rng.permutation(total)
        if batch_size is None or batch_size >= total:
            batch_size = total
        if self._flat_cache is None:
            # Flatten once per rollout, not once per epoch: the swap-and-flatten
            # copies all six arrays, and PPO calls get() once per training
            # epoch over the same completed rollout.
            self._flat_cache = {
                "observations": self._flatten(self.observations),
                "actions": self._flatten(self.actions),
                "old_values": self._flatten(self.values),
                "old_log_probs": self._flatten(self.log_probs),
                "advantages": self._flatten(self.advantages),
                "returns": self._flatten(self.returns),
            }
        flat = self._flat_cache
        start = 0
        while start < total:
            idx = indices[start : start + batch_size]
            yield {key: array[idx] for key, array in flat.items()}
            start += batch_size

    def __len__(self) -> int:
        return self.pos * self.n_envs

    def explained_variance(self) -> float:
        """Fraction of return variance explained by the value predictions."""
        var_returns = float(np.var(self.returns))
        if var_returns == 0.0:
            return float("nan")
        return 1.0 - float(np.var(self.returns - self.values)) / var_returns
