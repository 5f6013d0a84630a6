"""Monitoring utilities for the DES kernel.

SimPy-style monitoring: trace every event the environment processes, or
sample a quantity (queue length, free qubits, device utilisation) at a
fixed period.  The quantum-cloud layer uses these to record fleet-utilisation
time series for post-simulation analysis without touching the simulation
logic itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.des.environment import Environment
from repro.des.events import Event

__all__ = ["trace_events", "EventLoopStats", "PeriodicSampler"]


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

    The counters accumulate from environment construction (or the last
    :meth:`~repro.des.environment.Environment.rewind`) and cost one integer
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


class PeriodicSampler:
    """Samples a callable at a fixed simulated period.

    Parameters
    ----------
    env:
        The environment to run in.
    probe:
        Zero-argument callable returning the value to record (e.g.
        ``lambda: cloud.free_qubits``).
    period:
        Sampling period in simulated time units.
    start_immediately:
        Take the first sample at the current time (default) rather than after
        one period.

    The collected ``(time, value)`` pairs are available as :attr:`samples`.
    The sampler stops automatically when the simulation runs out of events
    only if other processes are still scheduled; call :meth:`stop` to end it
    explicitly (otherwise ``env.run()`` without an ``until`` would never
    terminate).
    """

    def __init__(
        self,
        env: Environment,
        probe: Callable[[], Any],
        period: float,
        start_immediately: bool = True,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.env = env
        self.probe = probe
        self.period = float(period)
        self.samples: List[Tuple[float, Any]] = []
        self._running = True
        self._start_immediately = bool(start_immediately)
        self.process = env.process(self._run())

    def _run(self):
        if self._start_immediately:
            self.samples.append((self.env.now, self.probe()))
        while self._running:
            yield self.env.timeout(self.period)
            if not self._running:
                break
            self.samples.append((self.env.now, self.probe()))

    def stop(self) -> None:
        """Stop sampling after the current period elapses."""
        self._running = False

    @property
    def times(self) -> List[float]:
        """Sample timestamps."""
        return [t for t, _ in self.samples]

    @property
    def values(self) -> List[Any]:
        """Sampled values."""
        return [v for _, v in self.samples]
