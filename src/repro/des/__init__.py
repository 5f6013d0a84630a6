"""The discrete-event simulation kernel.

A dependency-free event clock and the two event types the simulator uses:

* :class:`~repro.des.environment.Environment` — the event heap and
  simulation clock: ``schedule`` puts events on the heap, ``run`` drains
  it (same-time events in batches), ``step`` pops one event at a time for
  :func:`~repro.des.monitoring.trace_events`,
* :class:`~repro.des.events.Event` and :class:`~repro.des.events.Timeout`.

Everything that acts over simulated time is a callback on an event.  The
dispatch engine (:class:`~repro.cloud.fastpath.FlatDispatcher`) pushes its
own events onto the heap.  A recurring source — a world-dynamics source, the
adaptive control loop — takes its first step from
:meth:`~repro.des.environment.Environment.start` and then reschedules
itself, one :class:`~repro.des.events.Timeout` per step.  A QPU's free
qubits are a plain counter on the device
(:meth:`~repro.cloud.qdevice.BaseQDevice.reserve_qubits`), because the
broker only reserves plans that fit right now and nothing ever waits on
them.

Example
-------
>>> from repro import des
>>> env = des.Environment()
>>> ticks = []
>>> def clock(event):
...     ticks.append(env.now)
...     env.timeout(1).callbacks.append(clock)
>>> _ = env.start(clock)
>>> env.run(until=3)
>>> ticks
[0, 1, 2]
"""

from repro.des.environment import Environment
from repro.des.events import Event, Timeout
from repro.des.exceptions import SimulationError, StopSimulation
from repro.des.monitoring import trace_events

__all__ = [
    "Environment",
    "Event",
    "SimulationError",
    "StopSimulation",
    "Timeout",
    "trace_events",
]
