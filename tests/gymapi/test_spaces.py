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

    def test_equality_rejects_other_types_and_shapes(self):
        box = spaces.Box(0.0, 1.0, shape=(2,))
        assert box != object()
        assert box != spaces.Box(0.0, 1.0, shape=(3,))

    def test_in_operator_uses_contains(self):
        box = spaces.Box(low=0.0, high=1.0, shape=(2,))
        assert np.array([0.2, 0.8]) in box
        assert np.array([0.2, 1.8]) not in box

    def test_contains_tolerates_rounding_at_the_bounds(self):
        box = spaces.Box(low=0.0, high=1.0, shape=(1,), dtype=np.float64)
        assert box.contains(np.array([1.0 + 1e-7]))
        assert not box.contains(np.array([1.0 + 1e-3]))

    def test_array_bounds_must_match_shape(self):
        with pytest.raises(ValueError):
            spaces.Box(low=np.zeros(3), high=1.0, shape=(4,))

    def test_is_bounded_rejects_unknown_manner(self):
        with pytest.raises(ValueError, match="manner"):
            spaces.Box(0.0, 1.0, shape=(2,)).is_bounded("sideways")

    def test_lower_bounded_box_samples_above_low(self):
        box = spaces.Box(low=2.0, high=np.inf, shape=(50,), seed=3)
        assert box.is_bounded("below") and not box.is_bounded("above")
        assert np.all(box.sample() >= 2.0)

    def test_upper_bounded_box_samples_below_high(self):
        box = spaces.Box(low=-np.inf, high=-1.0, shape=(50,), seed=4)
        assert box.is_bounded("above") and not box.is_bounded("below")
        assert np.all(box.sample() <= -1.0)

    def test_sample_has_space_dtype(self):
        assert spaces.Box(0.0, 1.0, shape=(3,), seed=0).sample().dtype == np.float32
        assert spaces.Box(0.0, 1.0, shape=(3,), dtype=np.float64, seed=0).sample().dtype == np.float64

    def test_seed_returns_the_seed_used(self):
        box = spaces.Box(0.0, 1.0, shape=(2,))
        assert box.seed(5) == 5


class TestSpaceBase:
    def test_sample_and_contains_are_abstract(self):
        space = spaces.Space(shape=(2,), dtype=np.float64)
        with pytest.raises(NotImplementedError):
            space.sample()
        with pytest.raises(NotImplementedError):
            space.contains(np.zeros(2))

    def test_np_random_is_created_lazily(self):
        space = spaces.Space()
        rng = space.np_random
        assert isinstance(rng, np.random.Generator)
        assert space.np_random is rng
