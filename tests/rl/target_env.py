"""A tiny single-step VecEnv for PPO tests: reward is highest when the action
matches a target direction encoded in the observation."""

import numpy as np

from repro.gymapi import spaces
from repro.gymapi.seeding import np_random
from repro.gymapi.vector import VecEnv


class ContinuousTargetEnv(VecEnv):
    """``n_envs`` rows of a single-step env whose observation is the target action."""

    def __init__(self, dim=3, n_envs=1):
        self.num_envs = n_envs
        self.observation_space = spaces.Box(0.0, 1.0, shape=(dim,), dtype=np.float64)
        self.action_space = spaces.Box(0.0, 1.0, shape=(dim,), dtype=np.float64)
        self.dim = dim
        self._obs = None

    def reset(self, *, seed=None, options=None):
        if seed is not None:
            self._np_random, self._np_random_seed = np_random(seed)
        self._obs = self.np_random.random((self.num_envs, self.dim))
        return self._obs.copy(), [{} for _ in range(self.num_envs)]

    def step(self, actions):
        actions = np.clip(np.asarray(actions, dtype=np.float64), 0.0, 1.0)
        rewards = 1.0 - np.abs(actions.reshape(self.num_envs, self.dim) - self._obs).mean(axis=1)
        infos = [{"final_observation": obs} for obs in self._obs]
        self._obs = self.np_random.random((self.num_envs, self.dim))
        terminated = np.ones(self.num_envs, dtype=bool)
        truncated = np.zeros(self.num_envs, dtype=bool)
        return self._obs.copy(), rewards, terminated, truncated, infos
