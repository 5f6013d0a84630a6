"""Online quantile estimation with the P² algorithm (Jain & Chlamtac, 1985).

The exact percentile path (``np.percentile`` over every observation) needs
all values in memory — fine for thousand-job runs, prohibitive for the
million-job traces the scale benchmark sustains.  :class:`P2Quantile` keeps
five markers per tracked quantile and updates them in O(1) per observation,
giving a constant-memory estimate whose error shrinks as the sample grows.

The estimator is deterministic: the same observation sequence always yields
the same estimate.  For fewer than five observations the exact
``np.percentile`` value of the buffered sample is returned, so tiny runs
stay exact.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

__all__ = ["P2Quantile"]


class P2Quantile:
    """Streaming estimator of one quantile via the P² marker algorithm.

    Parameters
    ----------
    quantile:
        The tracked quantile ``p`` in (0, 1) — e.g. ``0.5`` for the median,
        ``0.99`` for p99.

    Example
    -------
    >>> est = P2Quantile(0.5)
    >>> for x in range(1, 101):
    ...     est.add(float(x))
    >>> 45 <= est.value <= 55
    True
    """

    # Marker state lives in scalar slots rather than the textbook five-entry
    # lists: ``add`` runs several times per completed job, and scalar
    # attribute access beats list indexing by enough to matter at a million
    # jobs.  Two invariants of the algorithm make the flattening exact:
    # position 0 is pinned at 1.0 (never incremented, never adjusted) and
    # position 4 grows by exactly 1.0 per observation, so it always equals
    # ``float(count)``.  The desired position of marker 4 likewise equals
    # ``count`` and is never read by the adjustment step, so neither needs a
    # slot.  The list views (``_heights``/``_positions``) are reconstructed
    # on demand as read-only properties.
    __slots__ = (
        "quantile",
        "_count",
        "_buffer",
        "_q0",
        "_q1",
        "_q2",
        "_q3",
        "_q4",
        "_n1",
        "_n2",
        "_n3",
        "_d1",
        "_d2",
        "_d3",
        "_i1",
        "_i2",
        "_i3",
    )

    def __init__(self, quantile: float) -> None:
        if not 0.0 < quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {quantile}")
        p = self.quantile = float(quantile)
        self._count = 0
        #: Raw-sample buffer for the first five observations.
        self._buffer: List[float] = []
        self._q0 = self._q1 = self._q2 = self._q3 = self._q4 = 0.0
        self._n1 = self._n2 = self._n3 = 0.0
        self._d1 = self._d2 = self._d3 = 0.0
        self._i1 = p / 2.0
        self._i2 = p
        self._i3 = (1.0 + p) / 2.0

    @property
    def count(self) -> int:
        """Number of observations seen."""
        return self._count

    def add(self, value: float) -> None:
        """Feed one observation.

        The body is hand-unrolled (cell location as a two-level branch, the
        parabolic/linear marker moves inlined, marker state in scalar
        locals) because streaming managers call it several times per
        completed job — at a million jobs this is one of the hottest
        functions in the whole simulator.  The arithmetic is the same
        operations in the same order as the textbook loop form, so
        estimates are unchanged bit for bit.
        """
        x = float(value)
        count = self._count = self._count + 1
        if count <= 5:
            buffer = self._buffer
            buffer.append(x)
            if count == 5:
                buffer.sort()
                self._q0, self._q1, self._q2, self._q3, self._q4 = buffer
                self._n1 = 2.0
                self._n2 = 3.0
                self._n3 = 4.0
                p = self.quantile
                self._d1 = 1.0 + 2.0 * p
                self._d2 = 1.0 + 4.0 * p
                self._d3 = 3.0 + 2.0 * p
            return

        q0 = self._q0
        q1 = self._q1
        q2 = self._q2
        q3 = self._q3
        q4 = self._q4
        if x < q0:
            self._q0 = q0 = x
            k = 0
        elif x >= q4:
            self._q4 = q4 = x
            k = 3
        elif x >= q2:
            # k is the largest marker index in 0..3 with height <= x.
            k = 3 if x >= q3 else 2
        else:
            k = 1 if x >= q1 else 0

        # Shift the positions of every marker above the cell (position 0 is
        # pinned at 1.0; position 4 becomes exactly ``count``).
        n1 = self._n1
        n2 = self._n2
        n3 = self._n3
        if k < 1:
            n1 += 1.0
        if k < 2:
            n2 += 1.0
        if k < 3:
            n3 += 1.0
        n4 = float(count)
        d1 = self._d1 = self._d1 + self._i1
        d2 = self._d2 = self._d2 + self._i2
        d3 = self._d3 = self._d3 + self._i3

        # Adjust the three interior markers toward their desired positions,
        # ascending — each marker sees its left neighbour's updated position
        # and height, exactly like the loop form.
        d = d1 - n1
        if (d >= 1.0 and n2 - n1 > 1.0) or (d <= -1.0 and 1.0 - n1 < -1.0):
            step = 1.0 if d > 0 else -1.0
            candidate = q1 + step / (n2 - 1.0) * (
                (n1 - 1.0 + step) * (q2 - q1) / (n2 - n1)
                + (n2 - n1 - step) * (q1 - q0) / (n1 - 1.0)
            )
            if not q0 < candidate < q2:
                if step > 0.0:
                    candidate = q1 + (q2 - q1) / (n2 - n1)
                else:
                    candidate = q1 - (q0 - q1) / (1.0 - n1)
            self._q1 = q1 = candidate
            n1 += step
        self._n1 = n1

        d = d2 - n2
        if (d >= 1.0 and n3 - n2 > 1.0) or (d <= -1.0 and n1 - n2 < -1.0):
            step = 1.0 if d > 0 else -1.0
            candidate = q2 + step / (n3 - n1) * (
                (n2 - n1 + step) * (q3 - q2) / (n3 - n2)
                + (n3 - n2 - step) * (q2 - q1) / (n2 - n1)
            )
            if not q1 < candidate < q3:
                if step > 0.0:
                    candidate = q2 + (q3 - q2) / (n3 - n2)
                else:
                    candidate = q2 - (q1 - q2) / (n1 - n2)
            self._q2 = q2 = candidate
            n2 += step
        self._n2 = n2

        d = d3 - n3
        if (d >= 1.0 and n4 - n3 > 1.0) or (d <= -1.0 and n2 - n3 < -1.0):
            step = 1.0 if d > 0 else -1.0
            candidate = q3 + step / (n4 - n2) * (
                (n3 - n2 + step) * (q4 - q3) / (n4 - n3)
                + (n4 - n3 - step) * (q3 - q2) / (n3 - n2)
            )
            if not q2 < candidate < q4:
                if step > 0.0:
                    candidate = q3 + (q4 - q3) / (n4 - n3)
                else:
                    candidate = q3 - (q2 - q3) / (n2 - n3)
            self._q3 = candidate
            n3 += step
        self._n3 = n3

    # -- list views of the marker state (kept for tests/introspection) ------
    @property
    def _heights(self) -> List[float]:
        """Marker heights ``q_i`` (the raw sample before five observations)."""
        if self._count < 5:
            return list(self._buffer)
        return [self._q0, self._q1, self._q2, self._q3, self._q4]

    @property
    def _positions(self) -> List[float]:
        """Marker positions ``n_i`` (empty before five observations)."""
        if self._count < 5:
            return []
        return [1.0, self._n1, self._n2, self._n3, float(self._count)]

    @property
    def value(self) -> Optional[float]:
        """Current quantile estimate (``None`` before any observation).

        Exact (``np.percentile`` of the buffered sample) for fewer than five
        observations, the P² middle-marker height afterwards.
        """
        if self._count == 0:
            return None
        if self._count < 5:
            return float(np.percentile(self._buffer, self.quantile * 100.0))
        return self._q2
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<P2Quantile p={self.quantile} n={self._count} value={self.value}>"
