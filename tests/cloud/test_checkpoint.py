"""Checkpointed preemption on the plain broker (outage / maintenance kills).

With ``SimulationConfig.checkpointing`` a killed attempt records the shots
every sub-job completed (job-level checkpoint = minimum across fragments)
and the requeued job resumes with only the remainder; the final fidelity is
the shot-weighted merge across segments.  Off — the default — everything is
byte-identical to full re-execution.

Also covers the retried-job timing-attribution bugfix: ``wait_time`` is
cumulative time *not* executing, ``first_start_time`` / ``service_time``
separate queueing from execution across attempts.
"""

import pytest

from repro.circuits.circuit import CircuitSpec
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.dynamics import MaintenanceWindow, Scenario
from repro.hardware.backends import get_device_profile
from repro.metrics.fidelity import final_fidelity, merge_segment_fidelities

SHOTS = 1_000_000

KILL_AT = 50.0
BACK_AT = 150.0


def _job(job_id=0, shots=SHOTS, arrival=0.0, q=127):
    from repro.cloud.qjob import QJob

    circuit = CircuitSpec(
        num_qubits=q, depth=8, num_shots=shots,
        num_two_qubit_gates=12, num_single_qubit_gates=30, name=f"job_{job_id}",
    )
    return QJob(job_id=job_id, circuit=circuit, arrival_time=arrival)


def _kill_scenario(windows=((KILL_AT, 100.0),)):
    return Scenario(
        name="maint-kill",
        maintenance=tuple(
            MaintenanceWindow(start=start, duration=duration, device="ibm_brussels",
                              kill_running=True)
            for start, duration in windows
        ),
    )


def _run(checkpointing, jobs=None, scenario=None, max_requeues=100):
    config = SimulationConfig(
        num_jobs=1, checkpointing=checkpointing, max_requeues=max_requeues,
    )
    env = QCloudSimEnv(
        config=config,
        devices=[get_device_profile("ibm_brussels")],
        jobs=jobs if jobs is not None else [_job()],
        scenario=scenario if scenario is not None else _kill_scenario(),
    )
    records = env.run_until_complete()
    return env, records


class TestResumeAfterMaintenanceKill:
    def test_resumes_with_only_remaining_shots(self):
        env, records = _run(checkpointing=True)
        (record,) = records
        device = env.cloud.device("ibm_brussels")

        full_duration = device.calculate_process_time(_job().circuit)
        expected_completed = int(SHOTS * (KILL_AT / full_duration))
        assert 0 < expected_completed < SHOTS

        assert record.retries == 1
        assert record.resumed_shots == expected_completed
        assert record.num_shots == SHOTS  # the job's demand is unchanged

        # The resume attempt executed only the remainder: its processing time
        # is the CLOPS model evaluated at the remaining shot count.
        remaining = SHOTS - expected_completed
        resumed_duration = device.calculate_process_time(
            _job().circuit.with_shots(remaining)
        )
        assert record.processing_time == pytest.approx(resumed_duration)
        assert record.finish_time == pytest.approx(BACK_AT + resumed_duration)

        kinds = [e.event for e in env.records.events_for(0)]
        assert kinds.count("checkpoint") == 1
        assert kinds.count("resume") == 1
        assert kinds.index("checkpoint") < kinds.index("resume")

    def test_checkpoint_and_resume_event_details(self):
        env, records = _run(checkpointing=True)
        (record,) = records
        events = env.records.events_for(0)
        (checkpoint,) = [e for e in events if e.event == "checkpoint"]
        (resume,) = [e for e in events if e.event == "resume"]
        assert checkpoint.time == pytest.approx(KILL_AT)
        assert checkpoint.detail == f"{record.resumed_shots}/{SHOTS} shots"
        assert resume.time == pytest.approx(BACK_AT)
        assert resume.detail == f"{SHOTS - record.resumed_shots}/{SHOTS} shots remaining"

    def test_fidelity_is_shot_weighted_merge(self):
        env, records = _run(checkpointing=True)
        (record,) = records
        # One single-device segment per attempt: breakdowns concatenate.
        assert len(record.breakdowns) == 2
        completed = record.resumed_shots
        remaining = SHOTS - completed
        expected = merge_segment_fidelities(
            [
                (completed, [record.breakdowns[0].device]),
                (remaining, [record.breakdowns[1].device]),
            ],
            phi=env.cloud.communication.fidelity_penalty,
        )
        assert record.fidelity == pytest.approx(expected)
        assert 0.0 < record.fidelity <= 1.0

    def test_checkpointing_beats_full_reexecution(self):
        env_off, (off,) = _run(checkpointing=False)
        env_on, (on,) = _run(checkpointing=True)
        # Same kill, same recovery — but the resumed job only pays for the
        # shots it still owes, so it finishes strictly earlier.
        assert on.finish_time < off.finish_time
        assert on.turnaround_time < off.turnaround_time
        assert on.processing_time < off.processing_time
        # Off: the retried attempt re-executes everything from scratch.
        assert off.resumed_shots == 0
        assert off.processing_time == pytest.approx(
            env_off.cloud.device("ibm_brussels").calculate_process_time(_job().circuit)
        )

    def test_disabled_checkpointing_logs_no_checkpoint_events(self):
        env, records = _run(checkpointing=False)
        kinds = {e.event for e in env.records.events}
        assert "checkpoint" not in kinds
        assert "resume" not in kinds
        assert records[0].retries == 1


class TestTimingAttribution:
    """Retried jobs: wait_time is cumulative time NOT executing (the old
    ``start - arrival`` silently included the aborted attempt's execution)."""

    @pytest.mark.parametrize("checkpointing", [False, True])
    def test_retried_job_wait_and_service_time(self, checkpointing):
        env, records = _run(checkpointing=checkpointing)
        (record,) = records
        # Executed 0..50 (killed), queued 50..150, re-executed 150..finish.
        assert record.first_start_time == pytest.approx(0.0)
        assert record.start_time == pytest.approx(BACK_AT)
        expected_service = KILL_AT + (record.finish_time - BACK_AT)
        assert record.service_time == pytest.approx(expected_service)
        # Cumulative time not executing: only the 100 s offline window.
        assert record.wait_time == pytest.approx(BACK_AT - KILL_AT)
        # The old accounting would have reported start - arrival = 150.
        assert record.wait_time < record.start_time - record.arrival_time
        assert record.wait_time + record.service_time == pytest.approx(
            record.turnaround_time
        )

    def test_single_attempt_wait_time_unchanged(self):
        env, records = _run(checkpointing=False, scenario=Scenario(name="none"))
        (record,) = records
        assert record.retries == 0
        # Exactly the legacy expression, bit-for-bit.
        assert record.wait_time == record.start_time - record.arrival_time
        assert record.first_start_time == record.start_time
        assert record.service_time == pytest.approx(
            record.finish_time - record.start_time
        )

    def test_csv_roundtrips_new_columns(self, tmp_path):
        import csv

        from repro.cloud.records import records_to_csv

        env, records = _run(checkpointing=True)
        path = tmp_path / "records.csv"
        records_to_csv(env.records.completed_records, str(path))
        with open(path) as fh:
            (row,) = list(csv.DictReader(fh))
        (record,) = records
        assert float(row["first_start_time"]) == record.first_start_time
        assert float(row["service_time"]) == pytest.approx(record.service_time)
        assert float(row["wait_time"]) == pytest.approx(record.wait_time)
        assert int(row["resumed_shots"]) == record.resumed_shots


class TestRequeueExhaustion:
    def test_partial_progress_still_fails_at_limit(self):
        """max_requeues exhaustion with checkpointed progress must log
        ``failed`` — partial progress is no licence to resume forever."""
        # Two killing windows: every attempt dies before finishing.
        scenario = _kill_scenario(windows=((50.0, 100.0), (200.0, 100.0)))
        env, records = _run(checkpointing=True, scenario=scenario, max_requeues=1)
        assert records == []
        assert len(env.broker.failed_jobs) == 1

        events = env.records.events_for(0)
        kinds = [e.event for e in events]
        assert kinds.count("checkpoint") >= 1  # progress was saved...
        assert kinds[-1] == "failed"           # ...but the guard still fires
        assert kinds.count("requeue") == 1
        (failed,) = [e for e in events if e.event == "failed"]
        assert "requeue limit (1)" in failed.detail
        assert failed.time == pytest.approx(200.0)

    def test_enough_budget_resumes_through_repeated_kills(self):
        scenario = _kill_scenario(windows=((50.0, 100.0), (200.0, 100.0)))
        env, records = _run(checkpointing=True, scenario=scenario, max_requeues=5)
        (record,) = records
        assert record.retries == 2
        kinds = [e.event for e in env.records.events_for(0)]
        assert kinds.count("checkpoint") == 2
        assert kinds.count("resume") == 2
        # Monotone progress: each checkpoint carries more completed shots.
        details = [e.detail for e in env.records.events_for(0) if e.event == "checkpoint"]
        counts = [int(d.split("/")[0]) for d in details]
        assert counts == sorted(counts) and counts[0] < counts[1]
        assert record.resumed_shots == counts[-1]
        assert len(record.breakdowns) == 3  # one per segment


class TestStaticEquivalence:
    @pytest.mark.parametrize("policy", ["speed", "fidelity", "fair"])
    def test_no_aborts_means_byte_identical(self, policy):
        """With no kills, checkpointing on/off are byte-identical."""

        def run(checkpointing):
            config = SimulationConfig(
                num_jobs=20, seed=2025, policy=policy, checkpointing=checkpointing,
            )
            env = QCloudSimEnv(config)
            return env, env.run_until_complete()

        env_off, off = run(False)
        env_on, on = run(True)
        assert [r.as_dict() for r in on] == [r.as_dict() for r in off]
        assert [r.breakdowns for r in on] == [r.breakdowns for r in off]
        assert env_on.records.events == env_off.records.events
        assert env_on.now == env_off.now


class TestMergeSegmentFidelities:
    def test_weighted_average(self):
        # 3 shots at 0.9 (1 device) + 1 shot at 0.5 (1 device).
        merged = merge_segment_fidelities([(3, [0.9]), (1, [0.5])], phi=1.0)
        assert merged == pytest.approx((3 * 0.9 + 1 * 0.5) / 4)

    def test_per_segment_communication_penalty(self):
        # Segment 1 on one device, segment 2 split over two devices: each
        # segment gets its own Eq.-8 penalty.
        merged = merge_segment_fidelities([(1, [0.8]), (1, [0.8, 0.6])], phi=0.95)
        expected = (final_fidelity([0.8], 0.95) + final_fidelity([0.8, 0.6], 0.95)) / 2
        assert merged == pytest.approx(expected)

    def test_single_segment_matches_final_fidelity(self):
        assert merge_segment_fidelities([(7, [0.8, 0.7])]) == pytest.approx(
            final_fidelity([0.8, 0.7])
        )

    def test_rejects_empty_and_nonpositive_shots(self):
        with pytest.raises(ValueError):
            merge_segment_fidelities([])
        with pytest.raises(ValueError):
            merge_segment_fidelities([(0, [0.9])])


class TestWithShots:
    def test_with_shots_replaces_only_shots(self):
        circuit = _job().circuit
        resumed = circuit.with_shots(123)
        assert resumed.num_shots == 123
        assert resumed.num_qubits == circuit.num_qubits
        assert resumed.depth == circuit.depth
        assert resumed.num_two_qubit_gates == circuit.num_two_qubit_gates

    def test_with_shots_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            _job().circuit.with_shots(0)
