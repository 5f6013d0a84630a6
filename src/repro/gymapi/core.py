"""Environment base class (Gymnasium-compatible subset)."""

from __future__ import annotations

from typing import Any, Dict, Generic, Optional, SupportsFloat, Tuple, TypeVar

import numpy as np

from repro.gymapi.seeding import np_random
from repro.gymapi.spaces import Space

__all__ = ["Env"]

ObsType = TypeVar("ObsType")
ActType = TypeVar("ActType")


class Env(Generic[ObsType, ActType]):
    """Base class for environments.

    Subclasses must define :attr:`observation_space`, :attr:`action_space`
    and implement :meth:`reset` and :meth:`step` with the Gymnasium 0.26+
    API:

    * ``reset(seed=None, options=None) -> (observation, info)``
    * ``step(action) -> (observation, reward, terminated, truncated, info)``
    """

    metadata: Dict[str, Any] = {"render_modes": []}
    render_mode: Optional[str] = None
    spec: Optional[Any] = None

    observation_space: Space
    action_space: Space

    _np_random: Optional[np.random.Generator] = None
    _np_random_seed: Optional[int] = None

    @property
    def np_random(self) -> np.random.Generator:
        """Environment random generator (lazily seeded)."""
        if self._np_random is None:
            self._np_random, self._np_random_seed = np_random()
        return self._np_random

    @np_random.setter
    def np_random(self, value: np.random.Generator) -> None:
        self._np_random = value

    @property
    def np_random_seed(self) -> Optional[int]:
        """The seed the generator was initialised with (if any)."""
        return self._np_random_seed

    @property
    def unwrapped(self) -> "Env":
        """The innermost (unwrapped) environment."""
        return self

    def reset(
        self,
        *,
        seed: Optional[int] = None,
        options: Optional[Dict[str, Any]] = None,
    ) -> Tuple[ObsType, Dict[str, Any]]:
        """Reset the environment; subclasses should call ``super().reset(seed=seed)``."""
        if seed is not None:
            self._np_random, self._np_random_seed = np_random(seed)
        return None, {}  # type: ignore[return-value]

    def step(self, action: ActType) -> Tuple[ObsType, SupportsFloat, bool, bool, Dict[str, Any]]:
        """Advance the environment by one step."""
        raise NotImplementedError

    def render(self) -> Any:
        """Render the environment (no-op by default)."""
        return None

    def close(self) -> None:
        """Release any resources held by the environment."""

    def __enter__(self) -> "Env":
        return self

    def __exit__(self, *args: Any) -> bool:
        self.close()
        return False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} instance>"

