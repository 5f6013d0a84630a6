"""The discrete-event simulation kernel.

A dependency-free event clock and the few event types the simulator uses:

* :class:`~repro.des.environment.Environment` — the event heap and
  simulation clock: ``schedule`` / ``schedule_batch`` put events on the
  heap, ``run`` drains it (same-time events in batches), ``step`` pops one
  event at a time for :func:`~repro.des.monitoring.trace_events`,
* :class:`~repro.des.events.Event` and :class:`~repro.des.events.Timeout`,
* generator-based :class:`~repro.des.events.Process` objects, which
  :class:`~repro.des.exceptions.Interrupt` can kill, and the
  :class:`~repro.des.events.AllOf` / :class:`~repro.des.events.AnyOf`
  conditions they wait on — used by the per-job reference engine, the
  world-dynamics sources, the adaptive control loop and the serve broker's
  blocked-head wait,
* :class:`~repro.des.resource.Resource` — a one-slot FIFO resource, the
  cloud's one-at-a-time admission turn.  A QPU's free qubits are a plain
  counter on the device
  (:meth:`~repro.cloud.qdevice.BaseQDevice.reserve_qubits`), because the
  broker only reserves plans that fit right now and nothing ever waits on
  them.

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
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Initialize,
    Interruption,
    Process,
    Timeout,
)
from repro.des.exceptions import Interrupt, SimulationError, StopSimulation
from repro.des.monitoring import trace_events
from repro.des.resource import Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Environment",
    "Event",
    "Initialize",
    "Interrupt",
    "Interruption",
    "Process",
    "Resource",
    "SimulationError",
    "StopSimulation",
    "Timeout",
    "trace_events",
]
