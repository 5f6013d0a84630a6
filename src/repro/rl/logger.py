"""Training logger: records scalar diagnostics per update.

The logger is intentionally tiny: it keeps every recorded key as a list of
``(timestep, value)`` pairs; :class:`~repro.rl.callbacks.TrainingCurveCallback`
reads the latest values after each update to build the training curve of
the paper's Fig. 5 (average episode reward and entropy loss over training
steps).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

__all__ = ["TrainingLogger"]


class TrainingLogger:
    """Scalar logger keyed by metric name."""

    def __init__(self) -> None:
        self._history: Dict[str, List[Tuple[int, float]]] = defaultdict(list)

    def record(self, key: str, value: float, step: int) -> None:
        """Record *value* for *key* at training *step*."""
        self._history[key].append((int(step), float(value)))

    # -- access ---------------------------------------------------------------
    def values(self, key: str) -> List[float]:
        """Values recorded for *key* (in step order)."""
        return [v for _, v in self._history[key]]

    def latest(self, key: str, default: Optional[float] = None) -> Optional[float]:
        """Most recent value of *key* (or *default* if never recorded)."""
        if not self._history[key]:
            return default
        return self._history[key][-1][1]
