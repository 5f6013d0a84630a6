"""Unit tests for the Box space."""

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

    def test_contains_rejects_wrong_shape_and_out_of_bounds(self):
        box = spaces.Box(low=0.0, high=1.0, shape=(3,))
        assert not box.contains(np.zeros(4))
        assert not box.contains(np.array([0.5, 0.5, 2.0]))

    def test_equality(self):
        assert spaces.Box(0.0, 1.0, shape=(2,)) == spaces.Box(0.0, 1.0, shape=(2,))
        assert spaces.Box(0.0, 1.0, shape=(2,)) != spaces.Box(0.0, 2.0, shape=(2,))

    def test_equality_rejects_other_types_and_shapes(self):
        box = spaces.Box(0.0, 1.0, shape=(2,))
        assert box != object()
        assert box != spaces.Box(0.0, 1.0, shape=(3,))

    def test_contains_tolerates_rounding_at_the_bounds(self):
        box = spaces.Box(low=0.0, high=1.0, shape=(1,), dtype=np.float64)
        assert box.contains(np.array([1.0 + 1e-7]))
        assert not box.contains(np.array([1.0 + 1e-3]))

    def test_array_bounds_must_match_shape(self):
        with pytest.raises(ValueError):
            spaces.Box(low=np.zeros(3), high=1.0, shape=(4,))
