"""The action distribution of the actor-critic policy.

:class:`DiagGaussian` is a diagonal Gaussian over continuous actions whose
mean comes from the policy network and whose (state-independent) log
standard deviation is a trainable parameter.  This is what the paper's
5-dimensional continuous allocation action uses.  It exposes ``sample``,
``log_prob``, ``entropy`` and the gradients of the log-probability / entropy
with respect to its inputs, so the PPO update can backpropagate without an
autodiff framework.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["DiagGaussian"]

_LOG_2PI = float(np.log(2.0 * np.pi))


class DiagGaussian:
    """Diagonal Gaussian distribution ``N(mean, diag(exp(log_std))^2)``.

    Parameters
    ----------
    mean:
        Array of shape ``(batch, dim)``.
    log_std:
        Array of shape ``(dim,)`` (state-independent, broadcast over the batch).
    """

    def __init__(self, mean: np.ndarray, log_std: np.ndarray) -> None:
        self.mean = np.atleast_2d(np.asarray(mean, dtype=np.float64))
        self.log_std = np.asarray(log_std, dtype=np.float64).reshape(-1)
        if self.log_std.shape[0] != self.mean.shape[1]:
            raise ValueError(
                f"log_std dimension {self.log_std.shape[0]} does not match mean dim {self.mean.shape[1]}"
            )
        self.std = np.exp(self.log_std)

    @property
    def dim(self) -> int:
        """Action dimensionality."""
        return self.mean.shape[1]

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one action per batch row."""
        noise = rng.standard_normal(self.mean.shape)
        return self.mean + noise * self.std

    def mode(self) -> np.ndarray:
        """The distribution mode (the mean) — used for deterministic actions."""
        return self.mean.copy()

    def log_prob(self, actions: np.ndarray) -> np.ndarray:
        """Log density of *actions*, summed over action dimensions."""
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        z = (actions - self.mean) / self.std
        per_dim = -0.5 * z**2 - self.log_std - 0.5 * _LOG_2PI
        return per_dim.sum(axis=1)

    def entropy(self) -> np.ndarray:
        """Differential entropy, summed over action dimensions (per batch row)."""
        per_dim = self.log_std + 0.5 * (1.0 + _LOG_2PI)
        return np.full(self.mean.shape[0], per_dim.sum())

    # -- gradients ----------------------------------------------------------
    def log_prob_grads(self, actions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Gradients of ``log_prob`` w.r.t. the mean and the log_std.

        Returns
        -------
        (d_mean, d_log_std):
            ``d_mean`` has shape ``(batch, dim)``; ``d_log_std`` has shape
            ``(batch, dim)`` (per-sample contribution, to be weighted and
            summed by the caller).
        """
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        diff = actions - self.mean
        var = self.std**2
        d_mean = diff / var
        d_log_std = diff**2 / var - 1.0
        return d_mean, d_log_std

    def entropy_grad_log_std(self) -> np.ndarray:
        """Gradient of the (per-row) entropy w.r.t. ``log_std`` (it is 1)."""
        return np.ones_like(self.log_std)
