"""Observation/action spaces (Gymnasium-compatible subset).

Only the space type the reproduction needs is implemented: :class:`Box`,
bounded/unbounded continuous vectors (the paper's 16-dim state and 5-dim
action).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple, Union

import numpy as np

from repro.gymapi.seeding import np_random

__all__ = ["Space", "Box"]


class Space:
    """Base class of all spaces."""

    def __init__(
        self,
        shape: Optional[Tuple[int, ...]] = None,
        dtype: Optional[Any] = None,
        seed: Optional[int] = None,
    ) -> None:
        self._shape = None if shape is None else tuple(shape)
        self.dtype = None if dtype is None else np.dtype(dtype)
        self._np_random: Optional[np.random.Generator] = None
        if seed is not None:
            self.seed(seed)

    @property
    def shape(self) -> Optional[Tuple[int, ...]]:
        """Shape of elements of the space."""
        return self._shape

    @property
    def np_random(self) -> np.random.Generator:
        """The space's random generator (lazily created)."""
        if self._np_random is None:
            self.seed()
        assert self._np_random is not None
        return self._np_random

    def seed(self, seed: Optional[int] = None) -> int:
        """Seed the space's random generator and return the seed used."""
        self._np_random, used = np_random(seed)
        return used

    def sample(self) -> Any:
        """Draw a random element of the space."""
        raise NotImplementedError

    def contains(self, x: Any) -> bool:
        """Return ``True`` if *x* is a member of the space."""
        raise NotImplementedError

    def __contains__(self, x: Any) -> bool:
        return self.contains(x)


class Box(Space):
    """A (possibly unbounded) box in :math:`R^n`.

    Parameters
    ----------
    low, high:
        Scalars or arrays giving the inclusive bounds.
    shape:
        Required when *low*/*high* are scalars.
    dtype:
        Element dtype (default ``float32`` to match Gymnasium).
    """

    def __init__(
        self,
        low: Union[float, np.ndarray],
        high: Union[float, np.ndarray],
        shape: Optional[Sequence[int]] = None,
        dtype: Any = np.float32,
        seed: Optional[int] = None,
    ) -> None:
        if shape is not None:
            shape = tuple(int(dim) for dim in shape)
        elif isinstance(low, np.ndarray):
            shape = low.shape
        elif isinstance(high, np.ndarray):
            shape = high.shape
        else:
            shape = (1,)

        low_arr = np.full(shape, low, dtype=dtype) if np.isscalar(low) else np.asarray(low, dtype=dtype)
        high_arr = np.full(shape, high, dtype=dtype) if np.isscalar(high) else np.asarray(high, dtype=dtype)
        if low_arr.shape != shape or high_arr.shape != shape:
            raise ValueError("low/high shapes do not match the requested shape")
        if np.any(low_arr > high_arr):
            raise ValueError("low must be <= high elementwise")

        super().__init__(shape, dtype, seed)
        self.low = low_arr
        self.high = high_arr
        self.bounded_below = np.isfinite(self.low)
        self.bounded_above = np.isfinite(self.high)

    def is_bounded(self, manner: str = "both") -> bool:
        """Whether the box is bounded ``"below"``, ``"above"`` or ``"both"``."""
        below = bool(np.all(self.bounded_below))
        above = bool(np.all(self.bounded_above))
        if manner == "both":
            return below and above
        if manner == "below":
            return below
        if manner == "above":
            return above
        raise ValueError(f"manner must be 'both', 'below' or 'above', got {manner!r}")

    def sample(self) -> np.ndarray:
        """Uniformly sample inside the box (exponential tails where unbounded)."""
        high = self.high.astype(np.float64)
        low = self.low.astype(np.float64)
        sample = np.empty(self.shape, dtype=np.float64)

        unbounded = ~self.bounded_below & ~self.bounded_above
        upp_bounded = ~self.bounded_below & self.bounded_above
        low_bounded = self.bounded_below & ~self.bounded_above
        bounded = self.bounded_below & self.bounded_above

        sample[unbounded] = self.np_random.normal(size=unbounded[unbounded].shape)
        sample[low_bounded] = self.np_random.exponential(size=low_bounded[low_bounded].shape) + low[low_bounded]
        sample[upp_bounded] = high[upp_bounded] - self.np_random.exponential(size=upp_bounded[upp_bounded].shape)
        sample[bounded] = self.np_random.uniform(low=low[bounded], high=high[bounded], size=bounded[bounded].shape)
        return sample.astype(self.dtype)

    def contains(self, x: Any) -> bool:
        x = np.asarray(x, dtype=self.dtype)
        return bool(
            x.shape == self.shape
            and np.all(x >= self.low - 1e-6)
            and np.all(x <= self.high + 1e-6)
        )

    def clip(self, x: np.ndarray) -> np.ndarray:
        """Clip *x* into the box."""
        return np.clip(np.asarray(x, dtype=self.dtype), self.low, self.high)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Box({self.low.min()}, {self.high.max()}, {self.shape}, {self.dtype})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Box)
            and self.shape == other.shape
            and np.allclose(self.low, other.low)
            and np.allclose(self.high, other.high)
        )
