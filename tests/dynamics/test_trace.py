"""Trace record → replay: exact reproduction of non-stationary runs."""

import json

import pytest

from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.dynamics import (
    DriftSpec,
    OutageSpec,
    Scenario,
    TrafficSpec,
    load_trace,
    save_trace,
)

JOBS = 25


def _run(config, scenario=None):
    env = QCloudSimEnv(config, scenario=scenario)
    records = env.run_until_complete()
    return env, records


class TestRoundTrip:
    def test_bursty_outage_run_replays_exactly(self, tmp_path):
        """The acceptance-criteria case: a bursty + outage (+ drift) run is
        reproduced bit-for-bit from its trace."""
        scenario = Scenario(
            name="bursty-outage",
            traffic=TrafficSpec(model="mmpp", rate=0.02, burst_rate=0.3,
                                dwell_normal=600.0, dwell_burst=120.0,
                                qubit_dist="heavy_tail"),
            outages=OutageSpec(mtbf=1500.0, mttr=200.0),
            seed=13,
        )
        config = SimulationConfig(num_jobs=JOBS, policy="fidelity", seed=5)
        env, records = _run(config, scenario)
        assert env.scenario_engine.applied_events, "outages never fired; enlarge the run"

        path = tmp_path / "bursty.jsonl"
        env.save_trace(str(path))

        replay = load_trace(str(path))
        assert replay.is_replay
        env2, records2 = _run(SimulationConfig(num_jobs=JOBS, policy="fidelity", seed=5), replay)

        assert records2 == records
        assert env2.records.events == env.records.events
        assert list(env2.scenario_engine.applied_events) == list(env.scenario_engine.applied_events)

    def test_preset_roundtrip_all_policies(self, tmp_path):
        for policy in ("speed", "fair"):
            config = SimulationConfig(num_jobs=15, policy=policy, scenario="flaky-fleet")
            env, records = _run(config)
            path = tmp_path / f"{policy}.jsonl"
            env.save_trace(str(path))
            env2, records2 = _run(
                SimulationConfig(num_jobs=15, policy=policy), load_trace(str(path))
            )
            assert records2 == records

    def test_traffic_workload_survives_roundtrip(self, tmp_path):
        config = SimulationConfig(num_jobs=10, policy="speed", scenario="rush-hour")
        env, records = _run(config)
        path = tmp_path / "rush.jsonl"
        env.save_trace(str(path))
        replay = load_trace(str(path))
        assert len(replay.replay_jobs) == 10
        original = env.job_generator.jobs
        for recorded, job in zip(replay.replay_jobs, original):
            assert recorded.arrival_time == job.arrival_time
            assert recorded.num_qubits == job.num_qubits
            assert recorded.num_shots == job.num_shots
        env2, records2 = _run(SimulationConfig(num_jobs=10, policy="speed"), replay)
        assert records2 == records

    def test_plain_run_trace(self, tmp_path):
        """Even a scenario-less run records a replayable workload trace."""
        env, records = _run(SimulationConfig(num_jobs=8, policy="speed"))
        path = tmp_path / "plain.jsonl"
        save_trace(env, str(path))
        replay = load_trace(str(path))
        assert replay.replay_events == ()
        env2, records2 = _run(SimulationConfig(num_jobs=8, policy="speed"), replay)
        assert records2 == records


class TestFormat:
    def test_trace_is_jsonl_with_header(self, tmp_path):
        config = SimulationConfig(num_jobs=5, policy="speed", scenario="drift")
        env, _ = _run(config)
        path = tmp_path / "t.jsonl"
        env.save_trace(str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["type"] == "header"
        assert lines[0]["scenario"] == "drift"
        assert lines[0]["config"]["num_jobs"] == 5
        kinds = {line["type"] for line in lines[1:]}
        assert kinds <= {"job", "event"}
        assert sum(1 for line in lines if line["type"] == "job") == 5

    def test_load_rejects_missing_header(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"type": "job", "job_id": 0, "num_qubits": 5, "depth": 3, "num_shots": 10}\n')
        with pytest.raises(ValueError, match="no header"):
            load_trace(str(path))

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "vfuture.jsonl"
        path.write_text('{"type": "header", "version": 99, "scenario": "x", "sources": [], "config": {}}\n')
        with pytest.raises(ValueError, match="version"):
            load_trace(str(path))

    def test_load_rejects_unknown_line_type(self, tmp_path):
        path = tmp_path / "weird.jsonl"
        path.write_text(
            '{"type": "header", "version": 1, "scenario": "x", "sources": [], "config": {}}\n'
            '{"type": "banana"}\n'
        )
        with pytest.raises(ValueError, match="banana"):
            load_trace(str(path))


HEADER = '{"type": "header", "version": 1, "scenario": "x", "sources": [], "config": {}}\n'


def _event_line(time, kind="offline", source="maintenance", device="ibm_kyiv"):
    return json.dumps({"type": "event", "time": time, "source": source, "kind": kind,
                       "device": device, "payload": {"cause": "maintenance"}}) + "\n"


class TestMalformedEvents:
    """A bad world event is refused when the trace is loaded or installed,
    not applied (or raised) mid-run."""

    def test_load_rejects_unknown_event_kind(self, tmp_path):
        path = tmp_path / "kind.jsonl"
        path.write_text(HEADER + _event_line(1.0) + _event_line(2.0, kind="meltdown"))
        with pytest.raises(ValueError, match=r"kind\.jsonl:3: unknown world-event kind 'meltdown'"):
            load_trace(str(path))

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), -1.0])
    def test_load_rejects_bad_event_time(self, tmp_path, time):
        path = tmp_path / "time.jsonl"
        path.write_text(HEADER + _event_line(time))
        with pytest.raises(ValueError, match=r"time\.jsonl:2: .*finite and non-negative"):
            load_trace(str(path))

    def test_load_rejects_time_going_back_within_a_source(self, tmp_path):
        path = tmp_path / "order.jsonl"
        path.write_text(
            HEADER
            + _event_line(5.0)
            + _event_line(3.0, source="outage:ibm_kyiv")  # another source: fine
            + _event_line(4.0, kind="online")
        )
        with pytest.raises(ValueError, match=r"order\.jsonl:4: .*t=4\.0 precedes .*t=5\.0"):
            load_trace(str(path))

    def test_load_accepts_equal_times_within_a_source(self, tmp_path):
        # A source may apply several events at one instant (drift applies a
        # calibration and a recalibration together); only going back is bad.
        path = tmp_path / "same.jsonl"
        path.write_text(
            HEADER
            + _event_line(5.0)
            + _event_line(5.0, kind="online")
            + _event_line(2.0, source="outage:ibm_kyiv")
        )
        scenario = load_trace(str(path))
        assert [(e.time, e.source) for e in scenario.replay_events] == [
            (5.0, "maintenance"), (5.0, "maintenance"), (2.0, "outage:ibm_kyiv")
        ]

    def test_install_rejects_unknown_device(self, tmp_path):
        path = tmp_path / "device.jsonl"
        path.write_text(HEADER + _event_line(1.0) + _event_line(2.0, device="ibm_nowhere"))
        scenario = load_trace(str(path))
        with pytest.raises(ValueError, match="replay event 2 .*unknown device 'ibm_nowhere'"):
            QCloudSimEnv(SimulationConfig(num_jobs=2), scenario=scenario)
