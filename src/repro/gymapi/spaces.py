"""The observation/action space: :class:`Box`, a bounded or unbounded
continuous vector (the paper's 16-dim state and 5-dim action)."""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

import numpy as np

__all__ = ["Box"]


class Box:
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

        self.shape = shape
        self.dtype = np.dtype(dtype)
        self.low = low_arr
        self.high = high_arr

    def contains(self, x: Any) -> bool:
        x = np.asarray(x, dtype=self.dtype)
        return bool(
            x.shape == self.shape
            and np.all(x >= self.low - 1e-6)
            and np.all(x <= self.high + 1e-6)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Box({self.low.min()}, {self.high.max()}, {self.shape}, {self.dtype})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Box)
            and self.shape == other.shape
            and np.allclose(self.low, other.low)
            and np.allclose(self.high, other.high)
        )
