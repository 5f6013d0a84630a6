"""Event types for the discrete-event simulation kernel.

* An :class:`Event` may be *pending*, *triggered* (it has a value and is
  scheduled in the environment's queue) or *processed* (its callbacks have
  been executed).
* :class:`Timeout` events trigger themselves a fixed delay after creation.
* :class:`Process` wraps a Python generator.  Each value the generator yields
  must be an event; the process is resumed when that event is processed.  The
  process itself is an event that triggers when the generator terminates.
* :class:`Condition` (and its helper :class:`AnyOf`) composes several
  events into one.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Iterable, List, Optional

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "Event",
    "Timeout",
    "Initialize",
    "Process",
    "ConditionValue",
    "Condition",
    "AnyOf",
]


#: Sentinel for the value of an event that has not been triggered yet.
PENDING = object()

#: Scheduling priority for urgent (internal) events.
URGENT = 0
#: Scheduling priority for normal events.
NORMAL = 1


class Event:
    """A single event that may happen at some point in simulated time.

    Events are the communication mechanism between processes and the
    environment.  An event

    * may be *triggered* with :meth:`succeed`/:meth:`fail` (or by a subclass),
      which schedules it in the environment,
    * collects *callbacks* which are invoked when the environment processes
      the event,
    * carries a *value* (the value passed to :meth:`succeed`, or the exception
      passed to :meth:`fail`).

    Processes obtain the value of an event by yielding it::

        value = yield some_event

    Events are created in very large numbers on the simulation hot path, so
    the core event classes declare ``__slots__``; subclasses that need extra
    attributes may simply omit ``__slots__`` and fall back to a normal
    instance ``__dict__``.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Any") -> None:
        self.env = env
        #: Callables invoked when the event is processed.  ``None`` once the
        #: event has been processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    def __repr__(self) -> str:
        detail = self._desc()
        state = "pending"
        if self.triggered:
            state = "triggered"
        if self.processed:
            state = "processed"
        return f"<{detail} object ({state}) at {id(self):#x}>"

    def _desc(self) -> str:
        return self.__class__.__name__

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """``True`` if the event has a value and is (or was) scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once all callbacks have been executed."""
        return self.callbacks is None

    @property
    def value(self) -> Any:
        """Value of the event (or the exception for a failed event)."""
        if self._value is PENDING:
            raise AttributeError(f"Value of {self!r} is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with the given *value*."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with *exception* as its value."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self


class Timeout(Event):
    """An event that triggers automatically after *delay* time units."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Any", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"Negative delay {delay}")
        super().__init__(env)
        self._delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, priority=NORMAL, delay=delay)

    def _desc(self) -> str:
        return f"{self.__class__.__name__}({self._delay})"

    @property
    def delay(self) -> float:
        """The delay this timeout was created with."""
        return self._delay


class Initialize(Event):
    """Initializes a process; scheduled immediately on process creation."""

    __slots__ = ()

    def __init__(self, env: "Any", process: "Process") -> None:
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class Process(Event):
    """A process wraps a generator and is resumed by the events it yields.

    The process itself is an event: it triggers with the generator's return
    value once the generator terminates (or with the exception if the
    generator raised).  Other processes can therefore wait for a process to
    finish by yielding it.
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Any", generator: GeneratorType) -> None:
        if not hasattr(generator, "throw"):
            raise ValueError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        Initialize(env, self)

    def _desc(self) -> str:
        return f"{self.__class__.__name__}({self.name})"

    @property
    def name(self) -> str:
        """Name of the wrapped generator function."""
        return self._generator.__name__  # type: ignore[attr-defined]

    # -- internal ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Resume the generator with the outcome of *event*."""
        while True:
            try:
                if event._ok:
                    event = self._generator.send(event._value)
                else:
                    # The process has "handled" the failure by observing it.
                    event._defused = True
                    exc = type(event._value)(*event._value.args)
                    exc.__cause__ = event._value
                    event = self._generator.throw(exc)
            except StopIteration as exc:
                # Generator finished: the process event succeeds.
                event = None  # type: ignore[assignment]
                self._ok = True
                self._value = exc.args[0] if exc.args else None
                self.env.schedule(self)
                break
            except BaseException as exc:
                # Generator raised: the process event fails.
                event = None  # type: ignore[assignment]
                self._ok = False
                self._value = exc
                self.env.schedule(self)
                break

            # The generator yielded a new event to wait for.
            try:
                if event.callbacks is not None:
                    # The event is not yet processed: register and go to sleep.
                    event.callbacks.append(self._resume)
                    break
                # The event was already processed: loop and resume immediately
                # with its value.
            except AttributeError:
                if not hasattr(event, "callbacks"):
                    raise RuntimeError(f"Invalid yield value {event!r}") from None
                raise


class ConditionValue:
    """Result of a :class:`Condition`: the values of its triggered events,
    looked up by event."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(str(key))
        return key._value


class Condition(Event):
    """An event that triggers once *evaluate* is satisfied over *events*.

    The value of a condition is a :class:`ConditionValue` holding the values
    of all events that had triggered by the time the condition fired.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Any",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        if not self._events:
            # Immediately succeed with an empty value.
            self.succeed(ConditionValue())
            return

        for event in self._events:
            if event.env is not env:
                raise ValueError("Conditions may only span events of the same environment")

        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

        # Register a callback to collect values once the condition triggers.
        assert self.callbacks is not None
        self.callbacks.append(self._build_value)

    def _desc(self) -> str:
        return f"{self.__class__.__name__}({self._evaluate.__name__}, {self._events})"

    def _build_value(self, event: Event) -> None:
        for child in self._events:
            if child.callbacks is not None and self._check in child.callbacks:
                child.callbacks.remove(self._check)
        if event._ok:
            self._value = ConditionValue()
            self._value.events = [child for child in self._events if child.callbacks is None]

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            # Abort on the first failing event.
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(ConditionValue())

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        """``True`` once at least one event has triggered."""
        return count > 0 or len(events) == 0


class AnyOf(Condition):
    """Condition that triggers once any of *events* has triggered."""

    __slots__ = ()

    def __init__(self, env: "Any", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)
