"""Training callbacks.

Callbacks receive the PPO instance and are invoked at rollout and update
boundaries; any of them can stop training by returning ``False``.
:func:`repro.rlenv.train.train_allocation_policy` uses
:class:`TrainingCurveCallback` to collect the training curve of the paper's
Fig. 5.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["BaseCallback", "CallbackList", "TrainingCurveCallback"]


class BaseCallback:
    """Base class for PPO training callbacks."""

    def __init__(self) -> None:
        self.model: Optional[Any] = None

    def init_callback(self, model: Any) -> None:
        """Attach the callback to a PPO instance before training starts."""
        self.model = model

    def on_training_start(self) -> None:
        """Called once before the first rollout."""

    def on_rollout_end(self) -> bool:
        """Called after each rollout is collected; return False to stop training."""
        return True

    def on_update_end(self) -> bool:
        """Called after each gradient-update phase; return False to stop training."""
        return True

    def on_training_end(self) -> None:
        """Called once after training finishes."""


class CallbackList(BaseCallback):
    """Run several callbacks in sequence; stops if any of them asks to stop."""

    def __init__(self, callbacks: List[BaseCallback]) -> None:
        super().__init__()
        self.callbacks = list(callbacks)

    def init_callback(self, model: Any) -> None:
        super().init_callback(model)
        for cb in self.callbacks:
            cb.init_callback(model)

    def on_training_start(self) -> None:
        for cb in self.callbacks:
            cb.on_training_start()

    def on_rollout_end(self) -> bool:
        return all(cb.on_rollout_end() for cb in self.callbacks)

    def on_update_end(self) -> bool:
        return all(cb.on_update_end() for cb in self.callbacks)

    def on_training_end(self) -> None:
        for cb in self.callbacks:
            cb.on_training_end()


class TrainingCurveCallback(BaseCallback):
    """Collects the per-update training curve (reward, entropy loss, losses).

    After training, :attr:`curve` holds one dict per PPO update with the keys
    ``timesteps``, ``ep_rew_mean``, ``entropy_loss``, ``policy_loss``,
    ``value_loss`` and ``approx_kl`` — exactly the series needed to regenerate
    the paper's Fig. 5.
    """

    def __init__(self) -> None:
        super().__init__()
        self.curve: List[Dict[str, float]] = []

    def on_update_end(self) -> bool:
        assert self.model is not None
        logger = self.model.logger
        self.curve.append(
            {
                "timesteps": float(self.model.num_timesteps),
                "ep_rew_mean": logger.latest("rollout/ep_rew_mean", float("nan")),
                "entropy_loss": logger.latest("train/entropy_loss", float("nan")),
                "policy_loss": logger.latest("train/policy_gradient_loss", float("nan")),
                "value_loss": logger.latest("train/value_loss", float("nan")),
                "approx_kl": logger.latest("train/approx_kl", float("nan")),
            }
        )
        return True
