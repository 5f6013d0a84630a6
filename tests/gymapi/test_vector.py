"""Unit tests for the VecEnv base class."""

import numpy as np
import pytest

from repro.gymapi import spaces
from repro.gymapi.vector import VecEnv


class BareEnv(VecEnv):
    """Two-row env that keeps the base class's reset and step."""

    def __init__(self):
        self.num_envs = 2
        self.observation_space = spaces.Box(0.0, 1.0, shape=(3,), dtype=np.float64)
        self.action_space = spaces.Box(0.0, 1.0, shape=(2,), dtype=np.float64)
        self.closed = False

    def close(self):
        self.closed = True


class TestVecEnvBase:
    def test_reset_and_step_are_abstract(self):
        env = BareEnv()
        with pytest.raises(NotImplementedError):
            env.reset()
        with pytest.raises(NotImplementedError):
            env.step(np.zeros((2, 2)))

    def test_np_random_is_lazily_created_and_kept(self):
        env = BareEnv()
        rng = env.np_random
        assert isinstance(rng, np.random.Generator)
        assert env.np_random is rng

    def test_context_manager_closes(self):
        env = BareEnv()
        with env:
            pass
        assert env.closed
