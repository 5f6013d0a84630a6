"""Exceptions raised by the discrete-event simulation kernel."""

from __future__ import annotations

from typing import Any


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel itself."""


class StopSimulation(Exception):
    """Raised inside :meth:`repro.des.environment.Environment.run` to stop.

    The environment registers this exception as a callback on the ``until``
    event; when that event is processed the exception propagates out of the
    event loop and ``run()`` returns the event's value.
    """

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value

    @classmethod
    def callback(cls, event: "Any") -> None:
        """Event callback that stops the simulation with the event's value."""
        raise cls(event._value)

