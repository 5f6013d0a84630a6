"""Host-speed calibration for the benchmark's host-time metrics.

The benchmark runs on shared machines whose CPU speed changes in phases that
last seconds: a fixed pure-Python loop was seen to take 1.0x in one phase and
1.6-1.9x in the next, with almost no steal time reported, on a 2-core VM.
No number of passes inside one run removes that, because the whole run can
fall into a slow phase.  So every timed interval is bracketed by a fixed
reference loop, and the interval is rescaled by the square root of how much
slower than :data:`REFERENCE_S` that loop ran.  The loop is interpreter-bound
work of the same kind as the simulator's event loop (heap pushes and pops of
tuples, dict updates, slotted attribute access, float arithmetic) and uses
nothing from ``src/repro``, so a change to the simulator cannot change the
yardstick.

Why the square root: the workloads feel only part of the loop's slowdown.
Between phases the loop moved 1.9x while the per-job engine's passes moved
1.6x and the fast path's 1.2-1.4x.  Rescaling by the full ratio then
over-corrects the fast path: over seven runs of ``diurnal-contended`` the
spread of run medians (quartile distance over median) was 0.12 raw, 0.31
fully rescaled and 0.10 with the square root; on ``serve-flaky`` passes it
was 0.21 raw, 0.12 fully rescaled and 0.13 with the square root.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Any, Callable, Tuple

#: Seconds the reference loop takes in the fast phase of the 2-core VM the
#: benchmark was tuned on; at that speed rescaled and raw times are equal.
REFERENCE_S = 0.006

#: Iterations of the reference loop (about 6 ms in the fast phase).
_ITERATIONS = 6_000
#: Reference-loop timings per sample; the sample is their minimum.
_SAMPLES = 3


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def reference_loop() -> float:
    """The fixed yardstick; returns a value so the work cannot be skipped."""
    heap: list = []
    table: dict = {}
    total = 0.0
    for i in range(_ITERATIONS):
        item = _Item(i % 257, i * 0.5)
        heapq.heappush(heap, (item.value % 97.0, i, item))
        table[item.key] = table.get(item.key, 0.0) + item.value
        if len(heap) > 64:
            total += heapq.heappop(heap)[2].value * 1e-3
    return total + len(table)


def sample() -> float:
    """Seconds the reference loop takes now (the least of a few timings)."""
    best = float("inf")
    for _ in range(_SAMPLES):
        start = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - start)
    return best


def rescale(seconds: float, before: float, after: float) -> float:
    """*seconds* of host time rescaled to the reference speed, given
    reference samples taken just before and just after the interval."""
    return seconds * math.sqrt(REFERENCE_S / ((before + after) / 2))


def timed(fn: Callable[[], Any]) -> Tuple[float, float, Any]:
    """Run *fn* between two reference samples.

    Returns ``(seconds, rescaled seconds, result)``: the raw host time, the
    time rescaled to the reference speed, and what *fn* returned.
    """
    before = sample()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return elapsed, rescale(elapsed, before, sample()), result
