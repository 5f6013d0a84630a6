"""Monitoring utilities for the DES kernel.

Trace every event the environment processes
(:func:`trace_events`) and count what the event loop did
(:class:`EventLoopStats`), without touching the simulation logic itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.des.environment import Environment
from repro.des.events import Event

__all__ = ["trace_events", "EventLoopStats"]


def trace_events(
    env: Environment, callback: Callable[[float, int, Event], None]
) -> Callable[[], None]:
    """Invoke *callback(time, priority, event)* for every event processed.

    The callback is installed as the environment's trace hook (which also
    disables the inlined fast-path event loop while active); the returned
    function removes it again.  Nested calls chain: every installed callback
    fires, and each ``undo`` restores the hook that was active before its
    ``trace_events`` call.

    Example
    -------
    >>> env = Environment()
    >>> log = []
    >>> undo = trace_events(env, lambda t, prio, ev: log.append((t, type(ev).__name__)))
    >>> _ = env.timeout(3)
    >>> env.run()
    >>> log
    [(3, 'Timeout')]
    """
    previous = env._trace

    if previous is None:
        hook = callback
    else:

        def hook(time: float, priority: int, event: Event) -> None:
            previous(time, priority, event)
            callback(time, priority, event)

    env._trace = hook

    def undo() -> None:
        env._trace = previous

    return undo


@dataclass(frozen=True)
class EventLoopStats:
    """Snapshot of the environment's event-loop counters.

    The counters accumulate from environment construction and cost one integer
    update per drained batch, so they are always on.  ``events_per_second``
    is only available when the caller also measured wall-clock time —
    simulated time says nothing about loop throughput.
    """

    #: Events dispatched by the loop.
    events_processed: int
    #: Same-``(time, priority)`` batches drained.
    batches_processed: int
    #: Largest number of events dispatched in one batch.
    max_batch_size: int
    #: Largest event-queue depth observed before a batch pop.
    peak_queue_size: int
    #: Wall-clock event throughput (``None`` unless a duration was supplied).
    events_per_second: Optional[float] = None

    @classmethod
    def from_env(
        cls, env: Environment, wall_seconds: Optional[float] = None
    ) -> "EventLoopStats":
        """Read the counters off *env*, optionally deriving events/s."""
        events = env.events_processed
        rate = None
        if wall_seconds is not None and wall_seconds > 0:
            rate = events / wall_seconds
        return cls(
            events_processed=events,
            batches_processed=env.batches_processed,
            max_batch_size=env.max_batch_size,
            peak_queue_size=env.peak_queue_size,
            events_per_second=rate,
        )

    @property
    def mean_batch_size(self) -> float:
        """Average events per drained batch (0.0 before any event)."""
        if not self.batches_processed:
            return 0.0
        return self.events_processed / self.batches_processed

    def as_dict(self) -> Dict[str, Any]:
        """Flat JSON-safe view (used by ``--stats`` and the scale bench)."""
        payload: Dict[str, Any] = {
            "events_processed": self.events_processed,
            "batches_processed": self.batches_processed,
            "mean_batch_size": self.mean_batch_size,
            "max_batch_size": self.max_batch_size,
            "peak_queue_size": self.peak_queue_size,
        }
        if self.events_per_second is not None:
            payload["events_per_second"] = self.events_per_second
        return payload
