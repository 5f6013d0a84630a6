"""Unit tests for the Gymnasium-style spaces."""

import numpy as np
import pytest

from repro.gymapi import spaces


class TestBox:
    def test_shape_from_scalars(self):
        box = spaces.Box(low=0.0, high=1.0, shape=(5,))
        assert box.shape == (5,)
        assert box.low.shape == (5,)
        assert box.high.shape == (5,)

    def test_shape_from_arrays(self):
        box = spaces.Box(low=np.zeros(3), high=np.ones(3))
        assert box.shape == (3,)

    def test_low_must_not_exceed_high(self):
        with pytest.raises(ValueError):
            spaces.Box(low=1.0, high=0.0, shape=(2,))

    def test_sample_within_bounds(self):
        box = spaces.Box(low=-2.0, high=3.0, shape=(10,), seed=0)
        for _ in range(20):
            sample = box.sample()
            assert box.contains(sample)
            assert np.all(sample >= -2.0) and np.all(sample <= 3.0)

    def test_sample_unbounded(self):
        box = spaces.Box(low=-np.inf, high=np.inf, shape=(4,), seed=1)
        sample = box.sample()
        assert sample.shape == (4,)
        assert not box.is_bounded()
        assert box.is_bounded("below") is False

    def test_contains_rejects_wrong_shape_and_out_of_bounds(self):
        box = spaces.Box(low=0.0, high=1.0, shape=(3,))
        assert not box.contains(np.zeros(4))
        assert not box.contains(np.array([0.5, 0.5, 2.0]))

    def test_clip(self):
        box = spaces.Box(low=0.0, high=1.0, shape=(3,))
        clipped = box.clip(np.array([-1.0, 0.5, 7.0]))
        assert np.allclose(clipped, [0.0, 0.5, 1.0])

    def test_seeded_sampling_reproducible(self):
        b1 = spaces.Box(low=0.0, high=1.0, shape=(6,), seed=42)
        b2 = spaces.Box(low=0.0, high=1.0, shape=(6,), seed=42)
        assert np.allclose(b1.sample(), b2.sample())

    def test_equality(self):
        assert spaces.Box(0.0, 1.0, shape=(2,)) == spaces.Box(0.0, 1.0, shape=(2,))
        assert spaces.Box(0.0, 1.0, shape=(2,)) != spaces.Box(0.0, 2.0, shape=(2,))


class TestDiscrete:
    def test_n_positive(self):
        with pytest.raises(ValueError):
            spaces.Discrete(0)

    def test_sample_and_contains(self):
        space = spaces.Discrete(4, seed=0)
        for _ in range(20):
            assert space.contains(space.sample())
        assert space.contains(0) and space.contains(3)
        assert not space.contains(4)
        assert not space.contains(-1)
        assert not space.contains(1.5)

    def test_start_offset(self):
        space = spaces.Discrete(3, start=10)
        assert space.contains(10) and space.contains(12)
        assert not space.contains(2)

    def test_equality(self):
        assert spaces.Discrete(3) == spaces.Discrete(3)
        assert spaces.Discrete(3) != spaces.Discrete(4)


class TestDictSpace:
    def test_sample_and_contains(self):
        space = spaces.Dict(
            {"obs": spaces.Box(0.0, 1.0, shape=(2,)), "mode": spaces.Discrete(3)}, seed=0
        )
        sample = space.sample()
        assert space.contains(sample)
        assert set(sample.keys()) == {"obs", "mode"}
        assert len(space) == 2
        assert isinstance(space["mode"], spaces.Discrete)


class TestFlatten:
    def test_flatdim(self):
        assert spaces.flatdim(spaces.Box(0, 1, shape=(4,))) == 4
        assert spaces.flatdim(spaces.Discrete(5)) == 5

    def test_flatten_box(self):
        flat = spaces.flatten(spaces.Box(0, 1, shape=(2, 2)), np.array([[1, 2], [3, 4]]))
        assert np.allclose(flat, [1, 2, 3, 4])

    def test_flatten_discrete_onehot(self):
        flat = spaces.flatten(spaces.Discrete(4), 2)
        assert np.allclose(flat, [0, 0, 1, 0])

    def test_flatten_dict(self):
        space = spaces.Dict({"a": spaces.Discrete(2), "b": spaces.Box(0, 1, shape=(2,))})
        flat = spaces.flatten(space, {"a": 1, "b": np.array([0.25, 0.75])})
        assert flat.shape == (4,)
        assert spaces.flatdim(space) == 4
