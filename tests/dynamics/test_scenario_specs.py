"""Scenario spec validation, the preset registry and resolution."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dynamics import (
    DriftSpec,
    MaintenanceWindow,
    OutageSpec,
    Scenario,
    TrafficSpec,
    WorldEvent,
    available_scenarios,
    get_scenario,
    resolve_scenario,
)

PRESETS = ("static", "drift", "flaky-fleet", "rush-hour", "black-friday")


class TestSpecs:
    def test_drift_spec_validation(self):
        with pytest.raises(ValueError):
            DriftSpec(interval=0)
        with pytest.raises(ValueError):
            DriftSpec(volatility=-0.1)
        with pytest.raises(ValueError):
            DriftSpec(recalibration_strength=0.0)
        with pytest.raises(ValueError):
            DriftSpec(recalibration_period=-1.0)

    def test_outage_spec_validation(self):
        with pytest.raises(ValueError):
            OutageSpec(mtbf=0)
        with pytest.raises(ValueError):
            OutageSpec(mttr=-1)

    def test_maintenance_window_validation(self):
        with pytest.raises(ValueError):
            MaintenanceWindow(start=-1, duration=10)
        with pytest.raises(ValueError):
            MaintenanceWindow(start=0, duration=0)

    def test_traffic_spec_validation(self):
        with pytest.raises(ValueError):
            TrafficSpec(model="fractal")
        with pytest.raises(ValueError):
            TrafficSpec(qubit_dist="bimodal")
        with pytest.raises(ValueError):
            TrafficSpec(rate=0)
        with pytest.raises(ValueError):
            TrafficSpec(tail_alpha=1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name",
        ["rate", "burst_rate", "dwell_normal", "dwell_burst", "peak_rate", "period", "tail_alpha"],
    )
    def test_traffic_spec_rejects_non_finite(self, name, value):
        # A NaN rate once generated NaN arrival times; an infinite one put
        # every job at t=0.
        with pytest.raises(ValueError, match=f"{name} must be"):
            TrafficSpec(**{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_traffic_spec_rejects_non_finite_phase(self, value):
        with pytest.raises(ValueError, match="phase must be finite"):
            TrafficSpec(phase=value)

    def test_scenario_needs_name(self):
        with pytest.raises(ValueError):
            Scenario(name="")

    def test_replay_scenario_excludes_specs(self):
        with pytest.raises(ValueError):
            Scenario(name="bad", drift=DriftSpec(), replay_events=())

    def test_scenario_flags(self):
        static = Scenario(name="s")
        assert static.is_static and not static.has_world_dynamics
        assert not static.is_perpetual

        drifting = Scenario(name="d", drift=DriftSpec())
        assert drifting.has_world_dynamics and drifting.is_perpetual

        maint = Scenario(name="m", maintenance=(MaintenanceWindow(start=1, duration=1),))
        assert maint.has_world_dynamics and not maint.is_perpetual

        traffic = Scenario(name="t", traffic=TrafficSpec())
        assert not traffic.has_world_dynamics and not traffic.is_static

    def test_scenarios_are_picklable(self):
        import pickle

        scenario = get_scenario("flaky-fleet")
        assert pickle.loads(pickle.dumps(scenario)) == scenario

    def test_world_event_roundtrip(self):
        event = WorldEvent(1.5, "drift", "calibration", "ibm_kyiv", {"factors": {"readout": 1.1}})
        assert WorldEvent.from_dict(event.as_dict()) == event

    @pytest.mark.parametrize(
        "field, value, message",
        [("kind", "meltdown", "unknown world-event kind"),
         ("time", float("nan"), "finite and non-negative"),
         ("time", -0.5, "finite and non-negative")],
        ids=["kind", "nan", "negative"],
    )
    def test_world_event_from_dict_rejects(self, field, value, message):
        payload = WorldEvent(1.5, "maintenance", "offline", "ibm_kyiv").as_dict()
        payload[field] = value
        with pytest.raises(ValueError, match=message):
            WorldEvent.from_dict(payload)


class TestRegistry:
    def test_presets_registered(self):
        names = available_scenarios()
        for preset in PRESETS:
            assert preset in names

    def test_presets_do_not_depend_on_import_order(self):
        """Every built-in scenario, the region ones included, is registered
        by ``repro.dynamics`` itself: a fresh interpreter (e.g. a process-pool
        worker) resolves them without importing ``repro.region`` first."""
        script = (
            "import json\n"
            "from repro.dynamics import available_scenarios, resolve_scenario\n"
            "fresh = available_scenarios()\n"
            "resolve_scenario('region-sun-00')\n"
            "import repro.region\n"
            "print(json.dumps([fresh, available_scenarios()]))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True
        ).stdout
        fresh, after_region = json.loads(out)
        assert fresh == after_region
        assert fresh[: len(PRESETS)] == list(PRESETS)
        assert "region-sun-00" in fresh

    def test_resolve_trace_path_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resolve_scenario(str(tmp_path / "missing.jsonl"))
