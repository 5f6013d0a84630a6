"""First-order optimizers operating on :class:`~repro.rl.nn.layers.Parameter`."""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.rl.nn.layers import Parameter

__all__ = ["Optimizer", "Adam", "clip_grad_norm_"]


def clip_grad_norm_(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Clip the global L2 norm of all gradients to *max_norm*.

    Returns the total norm before clipping (as PyTorch does).
    """
    params = [p for p in parameters]
    total_sq = 0.0
    for p in params:
        total_sq += float(np.sum(p.grad**2))
    total_norm = float(np.sqrt(total_sq))
    if max_norm > 0 and total_norm > max_norm:
        scale = max_norm / (total_norm + 1e-12)
        for p in params:
            p.grad *= scale
    return total_norm


class Optimizer:
    """Base optimizer: holds a parameter list and a learning rate."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be > 0")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        """Reset all parameter gradients."""
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update using the currently accumulated gradients."""
        raise NotImplementedError

    def set_lr(self, lr: float) -> None:
        """Change the learning rate (used by schedules)."""
        if lr <= 0:
            raise ValueError("learning rate must be > 0")
        self.lr = float(lr)


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with bias correction.

    Default hyperparameters match PyTorch / Stable-Baselines3
    (``betas=(0.9, 0.999)``, ``eps=1e-8``... SB3 uses ``eps=1e-5`` for PPO,
    which is exposed through the ``eps`` argument).
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 3e-4,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    @property
    def t(self) -> int:
        """Number of optimizer steps taken."""
        return self._t

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
