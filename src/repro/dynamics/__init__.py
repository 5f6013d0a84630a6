"""repro.dynamics — non-stationary cloud scenarios.

The dynamics layer turns the simulator's static world (frozen calibrations,
always-on devices, one arrival model) into a scenario-diverse testbed.  A
:class:`Scenario` composes three event families —

* **calibration drift** (:class:`DriftSpec`): lognormal random walks on each
  device's error rates and coherence times, with periodic recalibration
  snapping back toward the baseline snapshot,
* **availability** (:class:`OutageSpec`, :class:`MaintenanceWindow`):
  stochastic outages/repairs and scheduled maintenance that take devices
  offline; the broker skips offline devices and requeues jobs whose in-flight
  sub-jobs were killed,
* **traffic shaping** (:class:`TrafficSpec`): MMPP bursts, diurnal rate
  modulation and heavy-tailed job sizes (see :mod:`repro.workloads.arrivals`)

— under one name and RNG seed.  The :class:`ScenarioEngine` injects the
resulting world events into the DES; every applied event is recorded, and
:func:`save_trace`/:func:`load_trace` turn any run into a deterministic
replay.  Named presets (``static``, ``drift``, ``flaky-fleet``,
``rush-hour``, ``black-friday``) are registered in
:mod:`repro.dynamics.presets` and selectable anywhere a config travels::

    env = QCloudSimEnv(SimulationConfig(num_jobs=100, scenario="rush-hour"))

Every scenario is bit-reproducible given its seed, and the ``static``
scenario leaves results byte-identical to a scenario-less run.
"""

from repro.dynamics.engine import ScenarioEngine
from repro.dynamics.presets import (
    SCENARIOS,
    available_scenarios,
    get_scenario,
    register_scenario,
    resolve_scenario,
)
from repro.dynamics.scenario import (
    CALIBRATION_CATEGORIES,
    DriftSpec,
    MaintenanceWindow,
    OutageSpec,
    Scenario,
    TrafficSpec,
    WorldEvent,
)
from repro.dynamics.trace import TRACE_VERSION, load_trace, save_trace

__all__ = [
    "SCENARIOS",
    "CALIBRATION_CATEGORIES",
    "TRACE_VERSION",
    "DriftSpec",
    "MaintenanceWindow",
    "OutageSpec",
    "Scenario",
    "ScenarioEngine",
    "TrafficSpec",
    "WorldEvent",
    "available_scenarios",
    "get_scenario",
    "load_trace",
    "register_scenario",
    "resolve_scenario",
    "save_trace",
]
