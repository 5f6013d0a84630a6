"""Named scenario presets and the scenario registry.

:data:`SCENARIOS` (a :class:`~repro.registry.SpecRegistry`) maps scenario
names to :class:`~repro.dynamics.scenario.Scenario` instances so that
configurations, experiment grids and the CLI can select world dynamics by
name (``SimulationConfig(scenario="rush-hour")``, ``repro compare --scenario
flaky-fleet``).  Five presets ship built-in:

==============  ==============================================================
``static``      no dynamics at all — byte-identical to a scenario-less run
``drift``       calibration drift on every device + hourly recalibration
``flaky-fleet`` stochastic outages fleet-wide + one maintenance window + drift
``rush-hour``   diurnal sinusoidal arrival rate (trough→crest Poisson)
``black-friday`` MMPP burst arrivals + heavy-tail job sizes + overload outages
==============  ==============================================================

and then the six region-local scenarios the multi-region topologies use
(``region-blackout``, ``region-rush-am``/``-pm``, ``region-sun-00``/``-08``/
``-16``), so every preset resolves in any interpreter, pool workers included.

A name ending in ``.jsonl`` (or prefixed ``trace:``) resolves to a replay
scenario loaded from that trace file (see :mod:`repro.dynamics.trace`) and is
fingerprinted by the file's bytes.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.dynamics.scenario import (
    DriftSpec,
    MaintenanceWindow,
    OutageSpec,
    Scenario,
    TrafficSpec,
)
from repro.dynamics.trace import load_trace
from repro.registry import SpecRegistry

__all__ = [
    "SCENARIOS",
    "register_scenario",
    "get_scenario",
    "available_scenarios",
    "resolve_scenario",
]


def _trace_path(name: str) -> Optional[str]:
    """The trace file a ``trace:<path>`` / ``*.jsonl`` reference names."""
    if name.startswith("trace:"):
        return name[len("trace:"):]
    return name if name.endswith(".jsonl") else None


SCENARIOS: SpecRegistry[Scenario] = SpecRegistry(
    "scenario", Scenario, file_path=_trace_path, load_file=load_trace
)
register_scenario = SCENARIOS.register
get_scenario = SCENARIOS.get
available_scenarios = SCENARIOS.available
resolve_scenario = SCENARIOS.resolve


def _register_presets() -> None:
    # The time constants below are sized against the paper's case-study
    # workload, where a 100-job batch drains in roughly 5-6 k simulated
    # seconds (~60 s of fleet time per job).
    register_scenario(
        Scenario(
            name="static",
            description="frozen calibrations, perfect availability (the paper's world)",
        )
    )
    register_scenario(
        Scenario(
            name="drift",
            description="lognormal calibration drift fleet-wide, periodic recalibration",
            drift=DriftSpec(
                interval=1800.0,
                volatility=0.12,
                coherence_volatility=0.05,
                recalibration_period=10_800.0,
                recalibration_strength=0.9,
            ),
        )
    )
    register_scenario(
        Scenario(
            name="flaky-fleet",
            description="stochastic outages + a maintenance window + mild drift",
            drift=DriftSpec(interval=900.0, volatility=0.04, recalibration_period=7200.0),
            outages=OutageSpec(mtbf=4000.0, mttr=400.0, kill_running=True),
            maintenance=(
                MaintenanceWindow(start=1500.0, duration=600.0, device="ibm_brussels"),
            ),
        )
    )
    register_scenario(
        Scenario(
            name="rush-hour",
            description="diurnal sinusoidal arrival rate (quiet troughs, busy crests)",
            traffic=TrafficSpec(
                model="diurnal", rate=0.01, peak_rate=0.12, period=7200.0
            ),
        )
    )
    register_scenario(
        Scenario(
            name="black-friday",
            description="MMPP burst arrivals, heavy-tail job sizes, overload outages",
            traffic=TrafficSpec(
                model="mmpp",
                rate=0.015,
                burst_rate=0.2,
                dwell_normal=1200.0,
                dwell_burst=300.0,
                qubit_dist="heavy_tail",
                tail_alpha=2.2,
            ),
            outages=OutageSpec(mtbf=6000.0, mttr=300.0, kill_running=True),
        )
    )
    # Region-local world dynamics for the multi-region topologies (a half
    # fleet drains the case-study batch in roughly twice the full fleet's time).
    register_scenario(
        Scenario(
            name="region-blackout",
            description="whole-fleet maintenance for the first 1,800 s (region-wide outage)",
            maintenance=(
                MaintenanceWindow(start=0.0, duration=1800.0, device=None, kill_running=True),
            ),
        )
    )
    register_scenario(
        Scenario(
            name="region-rush-am",
            description="diurnal origin traffic peaking in the morning half-period",
            traffic=TrafficSpec(model="diurnal", rate=0.008, peak_rate=0.1,
                                period=7200.0, phase=math.pi),
        )
    )
    register_scenario(
        Scenario(
            name="region-rush-pm",
            description="diurnal origin traffic peaking in the evening half-period",
            traffic=TrafficSpec(model="diurnal", rate=0.008, peak_rate=0.1,
                                period=7200.0, phase=0.0),
        )
    )
    for hours in (0, 8, 16):
        register_scenario(
            Scenario(
                name=f"region-sun-{hours:02d}",
                description=f"diurnal origin traffic of a timezone {hours} h ahead of UTC",
                traffic=TrafficSpec(
                    model="diurnal",
                    rate=0.006,
                    peak_rate=0.08,
                    period=10_800.0,
                    phase=2.0 * math.pi * hours / 24.0,
                ),
            )
        )


_register_presets()
