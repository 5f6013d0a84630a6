"""The simulation environment: clock, event queue and event loop."""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from types import GeneratorType
from typing import Any, Callable, Iterable, List, Optional, Tuple, Union

from repro.des.events import NORMAL, PENDING, AllOf, AnyOf, Event, Process, Timeout
from repro.des.exceptions import SimulationError, StopSimulation

__all__ = ["Environment", "EmptySchedule"]

#: Sentinel returned by :meth:`Environment.peek` when the queue is empty.
Infinity = float("inf")

#: Signature of an event-trace hook: ``(time, priority, event)``.
TraceCallback = Callable[[float, int, Event], None]


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no more events are scheduled."""


class Environment:
    """Execution environment for an event-driven simulation.

    The environment keeps the current simulation time (:attr:`now`), a
    priority queue of scheduled events, and offers factory methods for the
    common event types (:meth:`timeout`, :meth:`process`, :meth:`event`,
    :meth:`all_of`, :meth:`any_of`).

    Event ordering is deterministic: events scheduled for the same time are
    processed in ``(priority, insertion order)`` order.

    The event loop is the hottest code in the simulator, so the class uses
    ``__slots__`` and :meth:`run` drives an inlined step loop with the heap
    primitives pre-bound to locals.  Subclasses (e.g. the quantum-cloud
    environment) may freely add attributes — they fall back to a normal
    instance ``__dict__``.

    Parameters
    ----------
    initial_time:
        Simulation time to start the clock at (default ``0``).
    """

    __slots__ = (
        "_now",
        "_queue",
        "_eid",
        "_active_proc",
        "_trace",
        "_ev_count",
        "_batch_count",
        "_max_batch",
        "_peak_queue",
        "_batch_rest",
    )

    def __init__(self, initial_time: float = 0) -> None:
        self._now: float = initial_time
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = count()
        self._active_proc: Optional[Process] = None
        self._trace: Optional[TraceCallback] = None
        self._ev_count: int = 0
        self._batch_count: int = 0
        self._max_batch: int = 0
        self._peak_queue: int = 0
        #: Events of the batch being dispatched that are still waiting for
        #: their turn (popped off the heap, so ``_queue`` no longer shows
        #: them); 0 outside a batch.
        self._batch_rest: int = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Environment now={self._now} queued={len(self._queue)}>"

    # -- state -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (or ``None``)."""
        return self._active_proc

    @property
    def queue_size(self) -> int:
        """Number of events currently scheduled."""
        return len(self._queue)

    # -- event-loop counters ---------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Events dispatched by the loop since construction (or :meth:`rewind`)."""
        return self._ev_count

    @property
    def batches_processed(self) -> int:
        """Same-``(time, priority)`` batches drained by the loop."""
        return self._batch_count

    @property
    def max_batch_size(self) -> int:
        """Largest number of events dispatched in one batch."""
        return self._max_batch

    @property
    def peak_queue_size(self) -> int:
        """Largest event-queue depth observed before a batch pop."""
        return self._peak_queue

    # -- event factories -----------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered :class:`~repro.des.events.Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`~repro.des.events.Timeout` firing after *delay*."""
        return Timeout(self, delay, value)

    def timeout_at(self, time: float, value: Any = None) -> Timeout:
        """Create a :class:`~repro.des.events.Timeout` firing at absolute *time*."""
        if time < self._now:
            raise ValueError(f"time (={time}) lies in the past (now={self._now})")
        return Timeout(self, time - self._now, value)

    def process(self, generator: GeneratorType) -> Process:
        """Start a new :class:`~repro.des.events.Process` from *generator*."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Create a condition triggering when all *events* have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Create a condition triggering when any of *events* has triggered."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0) -> None:
        """Schedule *event* to be processed after *delay* time units."""
        heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    def schedule_at(self, event: Event, time: float, priority: int = NORMAL) -> None:
        """Schedule *event* at absolute simulation *time* (must not be in the past)."""
        if time < self._now:
            raise ValueError(f"time (={time}) lies in the past (now={self._now})")
        heappush(self._queue, (time, priority, next(self._eid), event))

    def schedule_batch(
        self, items: Iterable[Tuple[float, int, Event]]
    ) -> int:
        """Bulk-schedule many ``(time, priority, event)`` entries at once.

        Insertion order within the batch is preserved for same-time entries.
        When the batch is large relative to the queue the heap is rebuilt in
        one O(n + k) ``heapify`` instead of k O(log n) pushes — this is the
        fast path the job generator uses for arrival batches.

        Returns the number of scheduled events.
        """
        now = self._now
        eid = self._eid
        entries = [(float(time), priority, next(eid), event) for time, priority, event in items]
        for entry in entries:
            if entry[0] < now:
                raise ValueError(f"time (={entry[0]}) lies in the past (now={now})")
        queue = self._queue
        if len(entries) > 8 and 4 * len(entries) > len(queue):
            queue.extend(entries)
            heapify(queue)
        else:
            for entry in entries:
                heappush(queue, entry)
        return len(entries)

    def peek(self) -> float:
        """Return the time of the next scheduled event (``inf`` if none)."""
        return self._queue[0][0] if self._queue else Infinity

    def step(self) -> None:
        """Process the next scheduled event.

        Raises :class:`EmptySchedule` if no event is scheduled.  If the event
        failed and its exception was never *defused* (nobody waited for it),
        the exception is re-raised here and crashes the simulation — mirroring
        SimPy's behaviour so programming errors inside processes surface.
        """
        qlen = len(self._queue)
        if qlen > self._peak_queue:
            self._peak_queue = qlen
        try:
            self._now, priority, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule("No scheduled events left") from None
        self._ev_count += 1
        self._batch_count += 1
        if self._max_batch < 1:
            self._max_batch = 1

        if self._trace is not None:
            self._trace(self._now, priority, event)

        callbacks, event.callbacks = event.callbacks, None
        # ``callbacks`` may be None if the event was already processed (this
        # should never happen because events are only scheduled once).
        for callback in callbacks or ():
            callback(event)

        if not event._ok and not event._defused:
            exc = event._value
            if isinstance(exc, BaseException):
                raise exc
            raise SimulationError(f"Event {event!r} failed with non-exception {exc!r}")

    def _run_fast(self) -> None:
        """Drain the queue with the heap primitives pre-bound to locals.

        Events sharing the head's ``(time, priority)`` are popped as one
        batch and their callbacks dispatched together: callbacks frequently
        schedule more work at the current timestamp, and draining the group
        in one sweep lets dispatchers coalesce their reaction into a single
        wake-up instead of one per event.  Dispatch order within a batch is
        the heap order (insertion order for same-time events), so results
        are identical to repeated :meth:`step` calls.

        The trace hook is re-checked every iteration (a slot load and an
        ``is`` test — negligible next to callback dispatch), so installing
        or removing :func:`~repro.des.monitoring.trace_events` mid-run takes
        effect immediately — any undispatched remainder of the current batch
        is pushed back (with its original sequence numbers) and re-processed
        through the traced :meth:`step` path.  The same push-back runs when a
        callback raises (e.g. ``StopSimulation`` from an ``until`` event), so
        a stopped simulation can be resumed without losing events.  Raises
        :class:`EmptySchedule` (queue drained) or :class:`StopSimulation`
        (an ``until`` event fired), exactly like repeated :meth:`step` calls.
        """
        queue = self._queue
        pop = heappop
        push = heappush
        step = self.step
        while True:
            if self._trace is not None:
                step()
                continue
            if not queue:
                raise EmptySchedule("No scheduled events left")
            qlen = len(queue)
            if qlen > self._peak_queue:
                self._peak_queue = qlen
            head = pop(queue)
            time = head[0]
            priority = head[1]
            self._now = time
            if not queue or queue[0][0] != time or queue[0][1] != priority:
                # Batch of one — the common case for workloads whose arrival
                # and completion times are all distinct.  Counters first
                # (the batch path counts an event before dispatching it),
                # then dispatch without the batch list or remainder
                # bookkeeping.
                self._ev_count += 1
                self._batch_count += 1
                if self._max_batch < 1:
                    self._max_batch = 1
                event = head[3]
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks or ():
                    callback(event)
                if not event._ok and not event._defused:
                    exc = event._value
                    if isinstance(exc, BaseException):
                        raise exc
                    raise SimulationError(
                        f"Event {event!r} failed with non-exception {exc!r}"
                    )
                continue
            batch = [head]
            while queue and queue[0][0] == time and queue[0][1] == priority:
                batch.append(pop(queue))
            size = len(batch)
            index = 0
            try:
                while index < size:
                    if self._trace is not None:
                        break
                    event = batch[index][3]
                    index += 1
                    self._batch_rest = size - index
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks or ():
                        callback(event)
                    if not event._ok and not event._defused:
                        exc = event._value
                        if isinstance(exc, BaseException):
                            raise exc
                        raise SimulationError(
                            f"Event {event!r} failed with non-exception {exc!r}"
                        )
            finally:
                self._batch_rest = 0
                self._ev_count += index
                if index:
                    self._batch_count += 1
                    if index > self._max_batch:
                        self._max_batch = index
                for entry in batch[index:]:
                    push(queue, entry)

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the event queue is exhausted,
            * a number — run until the clock reaches that time (a value equal
              to the current time returns immediately),
            * an :class:`~repro.des.events.Event` — run until that event has
              been processed and return its value.

        Returns
        -------
        The value of the ``until`` event, if one was given.
        """
        if until is not None and not isinstance(until, Event):
            # Interpret as a point in time.
            at = float(until)
            if at < self._now:
                raise ValueError(f"until (={at}) must not be smaller than the current time")
            if at == self._now:
                # Nothing to do — the clock is already there (SimPy semantics;
                # repeated benchmark runs rely on this being a no-op).
                return None
            until = Event(self)
            until._ok = True
            until._value = None
            # Schedule with URGENT priority so that the simulation stops
            # before normal events scheduled for exactly ``at``.
            self.schedule(until, priority=0, delay=at - self._now)
        elif until is not None:
            if until.callbacks is None:
                # Already processed: return its value immediately.
                return until.value

        if until is not None:
            assert until.callbacks is not None
            until.callbacks.append(StopSimulation.callback)

        try:
            self._run_fast()
        except StopSimulation as exc:
            return exc.value
        except EmptySchedule:
            if until is not None and until._value is PENDING:
                raise RuntimeError(
                    f"No scheduled events left but your simulation has not finished: {until!r}"
                ) from None
        return None

    def rewind(self, to_time: float = 0) -> None:
        """Reset the clock and drop all scheduled events.

        Convenience used by tests and by repeated benchmark runs; SimPy does
        not offer this but it is harmless because environments are cheap.
        """
        self._now = to_time
        self._queue.clear()
        self._active_proc = None
        self._ev_count = 0
        self._batch_count = 0
        self._max_batch = 0
        self._peak_queue = 0
