"""Unit tests for the Env base class."""

import numpy as np

from repro.gymapi import Env, spaces


class CounterEnv(Env):
    """Tiny deterministic environment used to exercise the API."""

    def __init__(self, horizon: int = 5):
        self.observation_space = spaces.Box(0.0, float(horizon), shape=(1,), dtype=np.float64)
        self.action_space = spaces.Discrete(2)
        self.horizon = horizon
        self.t = 0
        self.closed = False

    def reset(self, *, seed=None, options=None):
        super().reset(seed=seed)
        self.t = 0
        return np.array([0.0]), {"start": True}

    def step(self, action):
        self.t += 1
        reward = float(action)
        terminated = self.t >= self.horizon
        return np.array([float(self.t)]), reward, terminated, False, {}

    def close(self):
        self.closed = True


class TestEnvAPI:
    def test_reset_returns_obs_info(self):
        env = CounterEnv()
        obs, info = env.reset(seed=3)
        assert obs.shape == (1,)
        assert info == {"start": True}

    def test_step_five_tuple(self):
        env = CounterEnv()
        env.reset()
        obs, reward, terminated, truncated, info = env.step(1)
        assert obs[0] == 1.0
        assert reward == 1.0
        assert terminated is False and truncated is False

    def test_np_random_seeding(self):
        env = CounterEnv()
        env.reset(seed=99)
        v1 = env.np_random.random()
        env.reset(seed=99)
        v2 = env.np_random.random()
        assert v1 == v2

    def test_unwrapped_is_self(self):
        env = CounterEnv()
        assert env.unwrapped is env

    def test_context_manager_closes(self):
        env = CounterEnv()
        with env:
            pass
        assert env.closed

