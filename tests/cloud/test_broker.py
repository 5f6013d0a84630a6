"""Unit tests for the broker (Algorithm 1) on a small two-device cloud."""

import pytest

from repro.circuits.circuit import CircuitSpec
from repro.cloud.broker import Broker
from repro.cloud.qcloud import QCloud
from repro.cloud.qjob import QJob, QJobStatus
from repro.cloud.records import JobRecordsManager
from repro.des.environment import Environment
from repro.hardware.backends import get_device_profile
from repro.metrics.fidelity import final_fidelity
from repro.scheduling.error_aware import ErrorAwarePolicy
from repro.scheduling.speed import SpeedPolicy


def small_cloud(env, num_qubits=12):
    profiles = [
        get_device_profile("ibm_strasbourg", num_qubits=num_qubits, quantum_volume=32),
        get_device_profile("ibm_kyiv", num_qubits=num_qubits, quantum_volume=32),
    ]
    return QCloud(env, profiles)


def make_job(job_id=0, q=16, depth=6, shots=5_000, t2=20, arrival=0.0):
    circuit = CircuitSpec(num_qubits=q, depth=depth, num_shots=shots, num_two_qubit_gates=t2)
    return QJob(job_id=job_id, circuit=circuit, arrival_time=arrival)


def submit(broker, job):
    """Admit *job* and start its per-job process, as the job generator does."""
    if broker.submit(job):
        broker.env.process(broker._handle_job(job))


def build(env, policy=None):
    cloud = small_cloud(env)
    records = JobRecordsManager()
    broker = Broker(env, cloud, policy or SpeedPolicy(), records)
    return cloud, records, broker


class TestValidation:
    def test_policy_must_expose_plan(self, env):
        cloud = small_cloud(env)
        with pytest.raises(TypeError):
            Broker(env, cloud, policy=object(), records=JobRecordsManager())


class TestSingleJob:
    def test_split_job_completes_with_penalised_fidelity(self, env):
        cloud, records, broker = build(env)
        job = make_job(q=16)
        submit(broker, job)
        env.run()

        assert job.status is QJobStatus.COMPLETED
        record = records.record_for(0)
        assert record is not None
        assert record.num_devices == 2
        assert sum(record.allocation) == 16
        assert record.communication_time == pytest.approx(16 * 0.02)
        # Final fidelity equals Eq. (8) applied to the per-device breakdowns.
        expected = final_fidelity([b.device for b in record.breakdowns], phi=0.95)
        assert record.fidelity == pytest.approx(expected)
        assert record.finish_time >= record.start_time >= record.arrival_time

    def test_single_device_job_has_no_communication(self, env):
        cloud, records, broker = build(env)
        job = make_job(q=8)
        submit(broker, job)
        env.run()
        record = records.record_for(0)
        assert record.num_devices == 1
        assert record.communication_time == 0.0

    def test_qubits_released_after_completion(self, env):
        cloud, records, broker = build(env)
        submit(broker, make_job(q=16))
        env.run()
        assert cloud.free_qubits == cloud.total_qubits
        assert cloud.jobs_completed == 1

    def test_oversized_job_fails_gracefully(self, env):
        cloud, records, broker = build(env)
        job = make_job(q=100)
        submit(broker, job)
        env.run()
        assert job.status is QJobStatus.FAILED
        assert broker.failed_jobs == [job]
        assert records.record_for(0) is None
        assert any(e.event == "failed" for e in records.events_for(0))

    def test_events_logged_in_order(self, env):
        cloud, records, broker = build(env)
        records.log_arrival(0, 0.0)
        submit(broker, make_job(q=16))
        env.run()
        names = [e.event for e in records.events_for(0)]
        assert names == ["arrival", "start", "fidelity", "finish"]


class TestContention:
    def test_jobs_queue_when_capacity_exhausted(self, env):
        cloud, records, broker = build(env)
        submit(broker, make_job(job_id=0, q=20))
        submit(broker, make_job(job_id=1, q=20))
        env.run()
        r0, r1 = records.record_for(0), records.record_for(1)
        # The second job cannot start before the first finishes (20 + 20 > 24).
        assert r1.start_time >= r0.finish_time
        assert r1.wait_time > 0

    def test_small_jobs_run_concurrently(self, env):
        cloud, records, broker = build(env)
        submit(broker, make_job(job_id=0, q=8))
        submit(broker, make_job(job_id=1, q=8))
        env.run()
        r0, r1 = records.record_for(0), records.record_for(1)
        assert r0.start_time == r1.start_time == 0.0

    def test_fifo_admission_order(self, env):
        cloud, records, broker = build(env)
        for job_id in range(4):
            submit(broker, make_job(job_id=job_id, q=20))
        env.run()
        starts = [records.record_for(i).start_time for i in range(4)]
        assert starts == sorted(starts)

    def test_makespan_reflects_serialisation(self, env):
        cloud, records, broker = build(env)
        submit(broker, make_job(job_id=0, q=20, shots=5_000))
        submit(broker, make_job(job_id=1, q=20, shots=5_000))
        env.run()
        single = records.record_for(0).finish_time
        total = max(records.record_for(i).finish_time for i in range(2))
        assert total >= 2 * records.record_for(0).processing_time
        assert total >= single


class TestPolicyInteraction:
    def test_error_aware_policy_prefers_low_error_device(self, env):
        cloud, records, broker = build(env, policy=ErrorAwarePolicy())
        submit(broker, make_job(q=8))
        env.run()
        record = records.record_for(0)
        scores = {d.name: d.error_score() for d in cloud.devices}
        best = min(scores, key=scores.get)
        assert record.devices == [best]

    def test_plan_total_mismatch_raises(self, env):
        class BrokenPolicy(SpeedPolicy):
            def plan(self, job, devices):
                plan = super().plan(job, devices)
                # Corrupt the plan by dropping one device's qubits.
                from repro.scheduling.base import AllocationPlan

                return AllocationPlan(allocations=plan.allocations[:1])

        cloud = small_cloud(env)
        broker = Broker(env, cloud, BrokenPolicy(), JobRecordsManager())
        submit(broker, make_job(q=16))
        with pytest.raises(RuntimeError):
            env.run()


class TestAllEnded:
    def test_succeeds_when_the_last_expected_job_ends(self, env):
        cloud, records, broker = build(env)
        broker.expect(3)
        submit(broker, make_job(job_id=0, q=8, shots=2_000))
        submit(broker, make_job(job_id=1, q=8, shots=9_000))
        submit(broker, make_job(job_id=2, q=100))  # wider than the fleet: fails
        env.run(until=broker.all_ended)
        assert broker.unended == 0
        assert [job.job_id for job in broker.failed_jobs] == [2]
        last = max(r.finish_time for r in records.completed_records)
        assert len(records.completed_records) == 2
        assert env.now == last

    def test_empty_workload_ends_at_once(self, env):
        cloud, records, broker = build(env)
        broker.expect(0)
        assert broker.all_ended.triggered
        env.run(until=broker.all_ended)
        assert env.now == 0.0
