"""The discrete-event simulation kernel.

This subpackage is a from-scratch, dependency-free replacement for the subset
of SimPy that the paper's simulation framework relies on:

* :class:`~repro.des.environment.Environment` — the event loop and simulation
  clock,
* generator-based :class:`~repro.des.events.Process` objects,
* :class:`~repro.des.events.Timeout`, :class:`~repro.des.events.Event`,
  :class:`~repro.des.events.AllOf` / :class:`~repro.des.events.AnyOf`
  composite conditions,
* :class:`~repro.des.resource.Resource` — FIFO usage slots, e.g. the
  cloud's one-at-a-time admission turn.  It is the kernel's only shared
  resource: a QPU's free qubits are a plain counter on the device
  (:meth:`~repro.cloud.qdevice.BaseQDevice.reserve_qubits`), because the
  broker only reserves plans that fit right now and nothing ever waits on
  them.

The public API mirrors SimPy's so that code written against SimPy (such as the
quantum-cloud layer in :mod:`repro.cloud`) ports over with only the import
changed.

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
