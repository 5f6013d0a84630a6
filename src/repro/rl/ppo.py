"""Proximal Policy Optimization (clipped surrogate objective).

This is a NumPy-only PPO implementation whose defaults match
Stable-Baselines3 (``n_steps=2048``, ``batch_size=64``, ``n_epochs=10``,
``gamma=0.99``, ``gae_lambda=0.95``, ``clip_range=0.2``, ``ent_coef=0.0``,
``vf_coef=0.5``, ``max_grad_norm=0.5``, Adam with ``lr=3e-4``), because the
paper reports training its allocation agent with "default hyperparameters"
(§6.6).

Rollout collection is vectorized: the algorithm trains on a
:class:`~repro.gymapi.vector.VecEnv` with a 1-D :class:`~repro.gymapi.spaces.Box`
action space and steps it ``n_steps // n_envs`` times per rollout with
``(n_envs, obs_dim)`` policy forwards.  Serial training is a one-row
environment; ``n_envs > 1`` amortises rollout collection into a handful of
large matmuls per vector step.  The update is one clipped loss over one
flattened trajectory batch, whatever the number of rows.

The gradient of the clipped surrogate, the entropy bonus and the value loss
are derived analytically and pushed through the policy's MLP towers with the
manual backward passes of :mod:`repro.rl.nn.layers`; correctness is checked
against finite differences in the test suite.
"""

from __future__ import annotations

import warnings
from collections import deque
from typing import Any, Callable, Dict, Optional, Union

import numpy as np

from repro.gymapi.vector import VecEnv
from repro.rl.buffers import RolloutBuffer
from repro.rl.callbacks import BaseCallback, CallbackList
from repro.rl.logger import TrainingLogger
from repro.rl.nn.optim import Adam, clip_grad_norm_
from repro.rl.policies import ActorCriticPolicy

__all__ = ["PPO"]

ScheduleOrFloat = Union[float, Callable[[float], float]]


def _as_schedule(value: ScheduleOrFloat) -> Callable[[float], float]:
    """Turn a constant into a schedule mapping remaining-progress -> value."""
    if callable(value):
        return value
    return lambda _progress_remaining: float(value)


class PPO:
    """Proximal Policy Optimization over a vectorized environment.

    Parameters
    ----------
    policy:
        Either the string ``"MlpPolicy"`` or an :class:`ActorCriticPolicy`
        instance.
    env:
        A :class:`~repro.gymapi.vector.VecEnv` whose ``num_envs`` sets the
        rollout batch width (1 for serial training).
    learning_rate, n_steps, batch_size, n_epochs, gamma, gae_lambda,
    clip_range, ent_coef, vf_coef, max_grad_norm, target_kl:
        Standard PPO hyperparameters (SB3 defaults).  ``n_steps`` counts
        *total* transitions per rollout across all environments and must be
        divisible by ``num_envs``; ``batch_size`` and ``n_epochs`` must be
        at least 1.
    seed:
        Seed for policy initialisation, action sampling, environment seeding
        and mini-batch shuffling.
    """

    def __init__(
        self,
        policy: Union[str, ActorCriticPolicy],
        env: VecEnv,
        learning_rate: ScheduleOrFloat = 3e-4,
        n_steps: int = 2048,
        batch_size: int = 64,
        n_epochs: int = 10,
        gamma: float = 0.99,
        gae_lambda: float = 0.95,
        clip_range: ScheduleOrFloat = 0.2,
        normalize_advantage: bool = True,
        ent_coef: float = 0.0,
        vf_coef: float = 0.5,
        max_grad_norm: float = 0.5,
        target_kl: Optional[float] = None,
        policy_kwargs: Optional[Dict[str, Any]] = None,
        seed: Optional[int] = None,
        verbose: int = 0,
    ) -> None:
        if not isinstance(env, VecEnv):
            raise TypeError(f"PPO trains on a VecEnv, got {type(env).__name__}")
        self.env = env
        self.n_envs = int(env.num_envs)
        self.n_steps = int(n_steps)
        self.batch_size = int(batch_size)
        self.n_epochs = int(n_epochs)
        self.gamma = float(gamma)
        self.gae_lambda = float(gae_lambda)
        self.lr_schedule = _as_schedule(learning_rate)
        self.clip_range_schedule = _as_schedule(clip_range)
        self.normalize_advantage = bool(normalize_advantage)
        self.ent_coef = float(ent_coef)
        self.vf_coef = float(vf_coef)
        self.max_grad_norm = float(max_grad_norm)
        self.target_kl = target_kl
        self.verbose = int(verbose)
        self.seed = seed
        self.rng = np.random.default_rng(seed)

        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {self.n_epochs}")
        if self.n_steps % self.n_envs != 0:
            raise ValueError(
                f"n_steps={self.n_steps} must be divisible by the number of "
                f"environments (n_envs={self.n_envs})"
            )
        if self.n_steps % self.batch_size != 0:
            warnings.warn(
                f"n_steps={self.n_steps} is not a multiple of batch_size={self.batch_size}; "
                "the final mini-batch of each epoch will be smaller than the others",
                UserWarning,
                stacklevel=2,
            )

        observation_space = env.observation_space
        action_space = env.action_space
        if isinstance(policy, str):
            if policy != "MlpPolicy":
                raise ValueError(f"Unknown policy {policy!r}; only 'MlpPolicy' is supported")
            kwargs = dict(policy_kwargs or {})
            kwargs.setdefault("seed", seed)
            self.policy = ActorCriticPolicy(observation_space, action_space, **kwargs)
        else:
            self.policy = policy

        self.rollout_buffer = RolloutBuffer(
            self.n_steps // self.n_envs,
            observation_space.shape[0],
            action_space.shape[0],
            gamma=self.gamma,
            gae_lambda=self.gae_lambda,
            n_envs=self.n_envs,
        )
        self.optimizer = Adam(self.policy.parameters(), lr=self.lr_schedule(1.0), eps=1e-5)
        self.logger = TrainingLogger()

        self.num_timesteps = 0
        self._total_timesteps = 0
        self._ep_info_buffer: deque = deque(maxlen=100)
        self._env_seeded = False
        self._last_obs: Optional[np.ndarray] = None
        self._last_episode_starts = np.ones(self.n_envs, dtype=bool)
        self._current_ep_returns = np.zeros(self.n_envs, dtype=np.float64)
        self._current_ep_lengths = np.zeros(self.n_envs, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Rollout collection
    # ------------------------------------------------------------------ #
    @property
    def progress_remaining(self) -> float:
        """Fraction of total training timesteps still to run (1 → 0)."""
        if self._total_timesteps == 0:
            return 1.0
        return max(0.0, 1.0 - self.num_timesteps / self._total_timesteps)

    def _reset_env(self) -> None:
        # Seed the environments on the very first reset so that seeded
        # training runs are fully reproducible; later resets must not re-seed
        # (that would make every episode identical).
        if not self._env_seeded and self.seed is not None:
            obs, _infos = self.env.reset(seed=self.seed)
        else:
            obs, _infos = self.env.reset()
        self._env_seeded = True
        self._last_obs = np.asarray(obs, dtype=np.float64)
        self._last_episode_starts = np.ones(self.n_envs, dtype=bool)
        self._current_ep_returns = np.zeros(self.n_envs, dtype=np.float64)
        self._current_ep_lengths = np.zeros(self.n_envs, dtype=np.int64)

    def collect_rollouts(self) -> None:
        """Fill the rollout buffer with ``n_steps`` transitions.

        The vector environment is stepped ``n_steps // n_envs`` times; each
        step is one ``(n_envs, obs_dim)`` policy forward and one batched
        environment transition.  Sub-environments auto-reset on episode end,
        and completed-episode statistics land in the episode info buffer in
        environment order.
        """
        if self._last_obs is None:
            self._reset_env()
        self.rollout_buffer.reset()
        action_space = self.env.action_space

        for _ in range(self.n_steps // self.n_envs):
            assert self._last_obs is not None
            actions, values, log_probs = self.policy.forward(self._last_obs)
            clipped_actions = np.clip(actions, action_space.low, action_space.high)

            obs, rewards, terminated, truncated, _infos = self.env.step(clipped_actions)
            dones = np.logical_or(terminated, truncated)

            self.rollout_buffer.add(
                self._last_obs,
                actions,
                rewards,
                self._last_episode_starts,
                values,
                log_probs,
            )
            self.num_timesteps += self.n_envs
            self._current_ep_returns += rewards
            self._current_ep_lengths += 1

            for i in np.flatnonzero(dones):
                self._ep_info_buffer.append(
                    {"r": float(self._current_ep_returns[i]), "l": int(self._current_ep_lengths[i])}
                )
                self._current_ep_returns[i] = 0.0
                self._current_ep_lengths[i] = 0

            self._last_episode_starts = dones
            self._last_obs = np.asarray(obs, dtype=np.float64)

        # Bootstrap the value of each environment's final state.
        last_values = self.policy.value(self._last_obs)
        self.rollout_buffer.compute_returns_and_advantage(
            last_values, done=self._last_episode_starts
        )

    # ------------------------------------------------------------------ #
    # Gradient update
    # ------------------------------------------------------------------ #
    def train(self) -> None:
        """Run ``n_epochs`` of clipped-surrogate updates on the current rollout."""
        clip_range = self.clip_range_schedule(self.progress_remaining)
        self.optimizer.set_lr(self.lr_schedule(self.progress_remaining))

        entropy_losses, pg_losses, value_losses = [], [], []
        clip_fractions, approx_kls = [], []
        continue_training = True

        for _epoch in range(self.n_epochs):
            for batch in self.rollout_buffer.get(self.batch_size, rng=self.rng):
                obs = batch["observations"]
                actions = batch["actions"]
                old_log_probs = batch["old_log_probs"]
                advantages = batch["advantages"]
                returns = batch["returns"]
                n = obs.shape[0]

                if self.normalize_advantage and n > 1:
                    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

                values, log_probs, entropies, dist = self.policy.evaluate_actions(obs, actions)

                # --- losses (for logging) ---------------------------------
                ratio = np.exp(log_probs - old_log_probs)
                unclipped = ratio * advantages
                clipped = np.clip(ratio, 1.0 - clip_range, 1.0 + clip_range) * advantages
                policy_loss = -float(np.mean(np.minimum(unclipped, clipped)))
                value_loss = float(np.mean((returns - values) ** 2))
                entropy_loss = -float(np.mean(entropies))

                with np.errstate(divide="ignore", invalid="ignore"):
                    log_ratio = log_probs - old_log_probs
                    approx_kl = float(np.mean(np.exp(log_ratio) - 1.0 - log_ratio))
                clip_fraction = float(np.mean(np.abs(ratio - 1.0) > clip_range))

                entropy_losses.append(entropy_loss)
                pg_losses.append(policy_loss)
                value_losses.append(value_loss)
                approx_kls.append(approx_kl)
                clip_fractions.append(clip_fraction)

                if self.target_kl is not None and approx_kl > 1.5 * self.target_kl:
                    continue_training = False
                    break

                # --- analytic gradients ------------------------------------
                # d(policy_loss)/d(log_prob): gradient flows through the
                # unclipped branch only where the min selects it.
                use_unclipped = unclipped <= clipped
                d_loss_d_logp = np.where(use_unclipped, -advantages * ratio, 0.0) / n

                self.policy.zero_grad()

                d_mean, d_log_std = dist.log_prob_grads(actions)
                grad_policy_out = d_loss_d_logp[:, None] * d_mean
                # log_std gradient: surrogate term + entropy bonus term.
                grad_log_std = (d_loss_d_logp[:, None] * d_log_std).sum(axis=0)
                grad_log_std += self.ent_coef * (-1.0) * dist.entropy_grad_log_std()
                self.policy.backward_policy(grad_policy_out)
                self.policy.log_std.grad += grad_log_std

                # Value loss: vf_coef * mean((returns - V)^2)
                grad_values = self.vf_coef * 2.0 * (values - returns) / n
                self.policy.backward_value(grad_values)

                clip_grad_norm_(self.policy.parameters(), self.max_grad_norm)
                self.optimizer.step()

            if not continue_training:
                break

        step = self.num_timesteps
        self.logger.record("train/entropy_loss", float(np.mean(entropy_losses)), step)
        self.logger.record("train/policy_gradient_loss", float(np.mean(pg_losses)), step)
        self.logger.record("train/value_loss", float(np.mean(value_losses)), step)
        self.logger.record("train/approx_kl", float(np.mean(approx_kls)), step)
        self.logger.record("train/clip_fraction", float(np.mean(clip_fractions)), step)
        self.logger.record("train/clip_range", float(clip_range), step)
        self.logger.record("train/learning_rate", float(self.optimizer.lr), step)
        self.logger.record(
            "train/explained_variance", float(self.rollout_buffer.explained_variance()), step
        )
        self.logger.record("train/std", float(np.mean(np.exp(self.policy.log_std.data))), step)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def learn(
        self,
        total_timesteps: int,
        callback: Optional[Union[BaseCallback, list]] = None,
        log_interval: int = 1,
        progress_bar: bool = False,
    ) -> "PPO":
        """Train for (at least) ``total_timesteps`` environment steps."""
        if total_timesteps <= 0:
            raise ValueError("total_timesteps must be > 0")
        self._total_timesteps = int(total_timesteps)

        if isinstance(callback, list):
            callback = CallbackList(callback)
        if callback is None:
            callback = BaseCallback()
        callback.init_callback(self)
        callback.on_training_start()

        self._reset_env()
        iteration = 0
        while self.num_timesteps < self._total_timesteps:
            self.collect_rollouts()
            iteration += 1

            if self._ep_info_buffer:
                rewards = [info["r"] for info in self._ep_info_buffer]
                lengths = [info["l"] for info in self._ep_info_buffer]
                self.logger.record("rollout/ep_rew_mean", float(np.mean(rewards)), self.num_timesteps)
                self.logger.record("rollout/ep_len_mean", float(np.mean(lengths)), self.num_timesteps)

            if not callback.on_rollout_end():
                break

            self.train()

            if self.verbose and iteration % max(1, log_interval) == 0:  # pragma: no cover
                rew = self.logger.latest("rollout/ep_rew_mean", float("nan"))
                ent = self.logger.latest("train/entropy_loss", float("nan"))
                print(
                    f"iter={iteration} timesteps={self.num_timesteps} "
                    f"ep_rew_mean={rew:.4f} entropy_loss={ent:.3f}"
                )

            if not callback.on_update_end():
                break

        callback.on_training_end()
        return self

    # ------------------------------------------------------------------ #
    # Inference & persistence
    # ------------------------------------------------------------------ #
    def predict(self, obs: np.ndarray, deterministic: bool = True):
        """Predict an action for *obs* (delegates to the policy)."""
        return self.policy.predict(obs, deterministic=deterministic)

    def save(self, path: str) -> None:
        """Save the policy parameters to ``path`` (``.npz``)."""
        self.policy.save(path)

    def load_parameters(self, path: str) -> None:
        """Load policy parameters from a file written by :meth:`save`."""
        self.policy.load(path)
