"""Event types for the discrete-event simulation kernel.

* An :class:`Event` may be *pending*, *triggered* (it has a value and is
  scheduled in the environment's queue) or *processed* (its callbacks have
  been executed).
* :class:`Timeout` events trigger themselves a fixed delay after creation.

Everything that acts over simulated time is a callback on an event: a
recurring source runs one step per :class:`Timeout` and schedules the next
one itself.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

__all__ = ["PENDING", "URGENT", "NORMAL", "Event", "Timeout"]


#: Sentinel for the value of an event that has not been triggered yet.
PENDING = object()

#: Scheduling priority for urgent (internal) events.
URGENT = 0
#: Scheduling priority for normal events.
NORMAL = 1


class Event:
    """A single event that may happen at some point in simulated time.

    An event

    * may be *triggered* with :meth:`succeed` (or by a subclass), which
      schedules it in the environment,
    * collects *callbacks* which are invoked with the event when the
      environment processes it,
    * carries a *value* (the value passed to :meth:`succeed`).

    Events are created in very large numbers on the simulation hot path, so
    the core event classes declare ``__slots__``; subclasses that need extra
    attributes may simply omit ``__slots__`` and fall back to a normal
    instance ``__dict__``.
    """

    __slots__ = ("env", "callbacks", "_value")

    def __init__(self, env: "Any") -> None:
        self.env = env
        #: Callables invoked when the event is processed.  ``None`` once the
        #: event has been processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING

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
        """Value of the event."""
        if self._value is PENDING:
            raise AttributeError(f"Value of {self!r} is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with the given *value*."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
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
        self._value = value
        env.schedule(self, priority=NORMAL, delay=delay)

    def _desc(self) -> str:
        return f"{self.__class__.__name__}({self._delay})"

    @property
    def delay(self) -> float:
        """The delay this timeout was created with."""
        return self._delay
