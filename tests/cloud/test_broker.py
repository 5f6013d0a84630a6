"""Unit tests for the broker (Algorithm 1) on a small two-device cloud."""

import pytest

from repro.circuits.circuit import CircuitSpec
from repro.cloud.broker import Broker
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.cloud.fastpath import FlatDispatcher, JobTable
from repro.cloud.qcloud import QCloud
from repro.cloud.qjob import QJob, QJobStatus
from repro.cloud.records import JobRecordsManager
from repro.des.environment import Environment
from repro.hardware.backends import get_device_profile
from repro.metrics.fidelity import final_fidelity
from repro.scheduling.base import AllocationPlan
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


def dispatch(broker, *jobs):
    """Feed *jobs* to *broker* through the dispatch engine, as
    ``QCloudSimEnv`` does; ``env.run()`` then runs them."""
    broker.expect(len(jobs))
    FlatDispatcher(broker.env, broker, JobTable.from_jobs(jobs)).start()


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
        dispatch(broker, job)
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
        dispatch(broker, job)
        env.run()
        record = records.record_for(0)
        assert record.num_devices == 1
        assert record.communication_time == 0.0

    def test_qubits_released_after_completion(self, env):
        cloud, records, broker = build(env)
        dispatch(broker, make_job(q=16))
        env.run()
        assert cloud.free_qubits == cloud.total_qubits
        assert cloud.jobs_completed == 1

    def test_oversized_job_fails_gracefully(self, env):
        cloud, records, broker = build(env)
        job = make_job(q=100)
        dispatch(broker, job)
        env.run()
        assert job.status is QJobStatus.FAILED
        assert broker.failed_jobs == [job]
        assert records.record_for(0) is None
        assert any(e.event == "failed" for e in records.events_for(0))

    def test_events_logged_in_order(self, env):
        cloud, records, broker = build(env)
        dispatch(broker, make_job(q=16))
        env.run()
        names = [e.event for e in records.events_for(0)]
        assert names == ["arrival", "start", "fidelity", "finish"]


class TestContention:
    def test_jobs_queue_when_capacity_exhausted(self, env):
        cloud, records, broker = build(env)
        dispatch(broker, make_job(job_id=0, q=20), make_job(job_id=1, q=20))
        env.run()
        r0, r1 = records.record_for(0), records.record_for(1)
        # The second job cannot start before the first finishes (20 + 20 > 24).
        assert r1.start_time >= r0.finish_time
        assert r1.wait_time > 0

    def test_small_jobs_run_concurrently(self, env):
        cloud, records, broker = build(env)
        dispatch(broker, make_job(job_id=0, q=8), make_job(job_id=1, q=8))
        env.run()
        r0, r1 = records.record_for(0), records.record_for(1)
        assert r0.start_time == r1.start_time == 0.0

    def test_fifo_admission_order(self, env):
        cloud, records, broker = build(env)
        dispatch(broker, *[make_job(job_id=job_id, q=20) for job_id in range(4)])
        env.run()
        starts = [records.record_for(i).start_time for i in range(4)]
        assert starts == sorted(starts)

    def test_makespan_reflects_serialisation(self, env):
        cloud, records, broker = build(env)
        dispatch(broker, make_job(job_id=0, q=20, shots=5_000),
                 make_job(job_id=1, q=20, shots=5_000))
        env.run()
        single = records.record_for(0).finish_time
        total = max(records.record_for(i).finish_time for i in range(2))
        assert total >= 2 * records.record_for(0).processing_time
        assert total >= single


class TestPolicyInteraction:
    def test_error_aware_policy_prefers_low_error_device(self, env):
        cloud, records, broker = build(env, policy=ErrorAwarePolicy())
        dispatch(broker, make_job(q=8))
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
        dispatch(broker, make_job(q=16))
        with pytest.raises(RuntimeError):
            env.run()


class _ShortPlanPolicy(SpeedPolicy):
    """Places one qubit too few on the first planned device."""

    def plan(self, job, devices):
        plan = super().plan(job, devices)
        first = plan.allocations[0]
        return AllocationPlan.from_pairs(
            [(first.device, first.num_qubits - 1)]
            + [(a.device, a.num_qubits) for a in plan.allocations[1:]]
        )


class _OverfullPlanPolicy(SpeedPolicy):
    """Places the whole job on the first device, wider than it is."""

    name = "overfull"

    def plan(self, job, devices):
        return AllocationPlan.from_pairs([(devices[0], job.num_qubits)])


class TestPlanCheck:
    """A policy bug stops the run with an error naming the policy."""

    @pytest.mark.parametrize(
        "policy, message",
        [
            (_ShortPlanPolicy(), "allocated 15 qubits for a job needing 16"),
            (_OverfullPlanPolicy(), "returned an infeasible plan for job 0"),
        ],
        ids=["qubit-total", "infeasible"],
    )
    def test_broken_policy_raises(self, policy, message):
        profiles = [
            get_device_profile("ibm_strasbourg", num_qubits=12, quantum_volume=32),
            get_device_profile("ibm_kyiv", num_qubits=12, quantum_volume=32),
        ]
        env = QCloudSimEnv(
            devices=profiles, jobs=[make_job(q=16)], policy=policy
        )
        with pytest.raises(RuntimeError, match=f"policy {policy.name!r} {message}"):
            env.run_until_complete()


class TestCompletionStep:
    def test_counts_each_completed_job_once(self):
        # Kills, requeues and resumes: only the completing attempt counts.
        config = SimulationConfig(num_jobs=120, seed=1, scenario="flaky-fleet",
                                  qubit_range=(20, 90), checkpointing=True)
        env = QCloudSimEnv(config)
        env.run_until_complete()
        records = env.records.completed_records
        assert any(r.retries for r in records)
        assert any(r.resumed_shots for r in records)
        assert env.cloud.jobs_completed == len(records)


class TestAllEnded:
    def test_succeeds_when_the_last_expected_job_ends(self, env):
        cloud, records, broker = build(env)
        dispatch(broker, make_job(job_id=0, q=8, shots=2_000),
                 make_job(job_id=1, q=8, shots=9_000),
                 make_job(job_id=2, q=100))  # wider than the fleet: fails
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
