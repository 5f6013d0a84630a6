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
        if event._ok:
            raise cls(event._value)
        # Propagate failures out of ``run()`` as-is.
        event._defused = True
        raise event._value


class Interrupt(Exception):
    """Raised into a process when :meth:`Process.interrupt` is called.

    Parameters
    ----------
    cause:
        Arbitrary object describing why the process was interrupted.  It is
        available as :attr:`cause` inside the interrupted process.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Interrupt({self.cause!r})"
