"""The discrete-event simulation kernel.

A dependency-free event clock and the few event types the simulator uses:

* :class:`~repro.des.environment.Environment` — the event heap and
  simulation clock: ``schedule`` puts events on the heap, ``run`` drains
  it (same-time events in batches), ``step`` pops one event at a time for
  :func:`~repro.des.monitoring.trace_events`,
* :class:`~repro.des.events.Event` and :class:`~repro.des.events.Timeout`,
* generator-based :class:`~repro.des.events.Process` objects and the
  :class:`~repro.des.events.AnyOf` condition — used by the world-dynamics
  sources, the adaptive control loop and the serve broker's blocked-head
  wait.

The dispatch engine (:class:`~repro.cloud.fastpath.FlatDispatcher`) pushes
its own events onto the heap.  A QPU's free qubits are a plain counter on the
device (:meth:`~repro.cloud.qdevice.BaseQDevice.reserve_qubits`), because the
broker only reserves plans that fit right now and nothing ever waits on them.

Example
-------
>>> from repro import des
>>> env = des.Environment()
>>> def clock(env, results):
...     while True:
...         results.append(env.now)
...         yield env.timeout(1)
>>> ticks = []
>>> _ = env.process(clock(env, ticks))
>>> env.run(until=3)
>>> ticks
[0, 1, 2]
"""

from repro.des.environment import Environment
from repro.des.events import (
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Initialize,
    Process,
    Timeout,
)
from repro.des.exceptions import SimulationError, StopSimulation
from repro.des.monitoring import trace_events

__all__ = [
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Environment",
    "Event",
    "Initialize",
    "Process",
    "SimulationError",
    "StopSimulation",
    "Timeout",
    "trace_events",
]
