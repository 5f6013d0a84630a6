"""The flat-event engine: its workload tables, its same-instant rules and
its conservation guarantees.

The byte-identity contract, every record and event of 270 configurations,
is the records corpus (``test_records_corpus.py``); these tests cover what
a digest cannot state: the :class:`JobTable` plumbing, that streaming
tables end every job once, and the two same-instant rules of
:mod:`repro.cloud.fastpath`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.cloud.fastpath import JobTable
from repro.cloud.job_generator import generate_synthetic_jobs
from repro.cloud.qjob import QJob
from repro.dynamics import available_scenarios
from tests.cloud.test_records_corpus import STRESS_MIX, run_observed
from tests.timeline import timeline


class TestJobTableWorkloads:
    def test_streaming_table_runs(self):
        table = JobTable.synthetic(5, seed=1, qubit_range=(2, 8),
                                   depth_range=(5, 10), shots_range=(100, 200))
        env = QCloudSimEnv(config=SimulationConfig(), job_table=table)
        env.run()
        assert len(env.records.completed_records) == 5

    def test_streaming_table_with_adaptive_policy_ends_every_job(self):
        arrivals = np.cumsum(np.full(40, 3.0)) - 3.0
        table = JobTable.synthetic(40, seed=2, arrival_times=arrivals)
        env = QCloudSimEnv(config=SimulationConfig(adaptive="reactive"), job_table=table)
        records = env.run_until_complete()
        assert table.jobs is None
        assert len(records) == 40 and not env.broker.failed_jobs
        assert env.broker.unended == 0
        assert env.now == max(r.finish_time for r in records)
        signals = env.adaptive_report()["signals"]["tenants"]["__untenanted__"]
        assert signals["submitted"] == signals["completed"] == 40

    def test_streaming_table_with_outages_ends_every_job_once(self):
        arrivals = np.cumsum(np.full(200, 2.0))
        table = JobTable.synthetic(200, seed=5, qubit_range=(20, 90), arrival_times=arrivals)
        env = QCloudSimEnv(SimulationConfig(scenario="flaky-fleet", checkpointing=True),
                           job_table=table)
        records = env.run_until_complete()
        assert table.jobs is None
        assert env.broker.unended == 0
        ended = [r.job_id for r in records] + [j.job_id for j in env.broker.failed_jobs]
        assert sorted(ended) == list(range(200))
        assert all(device.used_qubits == 0 for device in env.cloud.devices)
        assert sum(device.aborted_subjobs for device in env.cloud.devices) > 0

    def test_job_table_accepts_any_scenario(self):
        for scenario in available_scenarios():
            table = JobTable.synthetic(3, seed=1)
            env = QCloudSimEnv(config=SimulationConfig(scenario=scenario), job_table=table)
            env.run_until_complete()
            assert env.broker.unended == 0, scenario

    def test_job_table_with_tenant_mix_needs_jobs(self):
        # A tenant mix reads each job's tenant tag: a table built from jobs
        # runs, a streaming table (no jobs) is refused at build.
        jobs = generate_synthetic_jobs(num_jobs=5, seed=1)
        env = QCloudSimEnv(config=SimulationConfig(tenants="free-tier-vs-premium"),
                           job_table=JobTable.from_jobs(jobs))
        assert len(env.run_until_complete()) == 5
        table = JobTable.synthetic(5, seed=1, qubit_range=(2, 8),
                                   depth_range=(5, 10), shots_range=(100, 200))
        with pytest.raises(ValueError, match="streaming JobTable has no jobs"):
            QCloudSimEnv(
                config=SimulationConfig(tenants="free-tier-vs-premium"),
                job_table=table,
            )

    def test_job_table_from_jobs_matches_job_list(self):
        from repro.serve import tenant_jobs

        config = SimulationConfig(num_jobs=150, seed=3, scenario="flaky-fleet",
                                  checkpointing=True)
        jobs = tenant_jobs(STRESS_MIX, config)
        listed = run_observed(config=config, tenants=STRESS_MIX,
                              jobs=[job.clone() for job in jobs])
        tabled = run_observed(config=config, tenants=STRESS_MIX,
                              job_table=JobTable.from_jobs([job.clone() for job in jobs]))
        assert tabled == listed
        assert listed["preempted_total"] > 0


class TestJobTable:
    def test_sorted_by_arrival_priority_job_id(self):
        table = JobTable(
            job_id=[3, 1, 2, 0],
            arrival=[5.0, 0.0, 5.0, 5.0],
            qubits=[4, 4, 4, 4],
            depth=[5, 5, 5, 5],
            shots=[10, 10, 10, 10],
            two_qubit_gates=[2, 2, 2, 2],
            priority=[0, 0, 1, 0],
        )
        assert table.job_id.tolist() == [1, 0, 3, 2]
        assert table.arrival.tolist() == [0.0, 5.0, 5.0, 5.0]

    def test_column_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length"):
            JobTable(job_id=[0, 1], arrival=[0.0], qubits=[2, 2],
                     depth=[5, 5], shots=[10, 10], two_qubit_gates=[1, 1])

    def test_negative_arrival_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            JobTable(job_id=[0], arrival=[-1.0], qubits=[2], depth=[5],
                     shots=[10], two_qubit_gates=[1])

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_arrival_raises(self, value):
        with pytest.raises(ValueError, match="finite and non-negative"):
            JobTable(job_id=[0, 1], arrival=[0.0, value], qubits=[2, 2], depth=[5, 5],
                     shots=[10, 10], two_qubit_gates=[1, 1])

    def test_synthetic_validation(self):
        with pytest.raises(ValueError):
            JobTable.synthetic(0)
        with pytest.raises(ValueError, match="arrival_times"):
            JobTable.synthetic(3, seed=1, arrival_times=[0.0, 1.0])

    @pytest.mark.parametrize("kwargs, message", [
        ({"two_qubit_density": 0.9}, "two_qubit_density must be in"),
        ({"qubit_range": (0, 10)}, "invalid qubit_range"),
        ({"depth_range": (20, 5)}, "invalid depth_range"),
        ({"shots_range": (0, 100)}, "invalid shots_range"),
    ], ids=["density", "zero-qubits", "inverted-depth", "zero-shots"])
    def test_synthetic_refuses_what_the_job_generator_refuses(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            JobTable.synthetic(5, seed=1, **kwargs)
        with pytest.raises(ValueError, match=message):
            generate_synthetic_jobs(5, seed=1, **kwargs)

    def test_from_jobs_round_trip(self):
        jobs = generate_synthetic_jobs(num_jobs=8, seed=5)
        table = JobTable.from_jobs(jobs)
        assert len(table) == 8
        assert table.jobs is not None
        for row in range(len(table)):
            job = table.jobs[row]
            assert table.job_id[row] == job.job_id
            assert table.qubits[row] == job.num_qubits
            assert table.shots[row] == job.num_shots


class TestArrivalGroups:
    """iter_arrival_groups must tile the table exactly like arrival_groups."""

    SHAPES = {
        "batch_t0": np.zeros(10),
        "all_distinct": np.arange(200, dtype=float),
        "small_runs": np.repeat(np.arange(40, dtype=float), 5),
        "ties_cross_chunks": np.repeat(np.arange(5, dtype=float), 130),
        "singleton": np.array([7.5]),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_lazy_matches_eager(self, shape):
        arrival = self.SHAPES[shape]
        n = len(arrival)
        table = JobTable(
            job_id=np.arange(n), arrival=arrival, qubits=np.full(n, 2),
            depth=np.full(n, 5), shots=np.full(n, 10),
            two_qubit_gates=np.full(n, 1),
        )
        eager = table.arrival_groups()
        lazy = list(table.iter_arrival_groups(_chunk=64))
        assert lazy == eager
        # Groups tile [0, n) with strictly increasing times.
        assert lazy[0][1] == 0 and lazy[-1][2] == n
        for (t0, _, stop0), (t1, start1, _) in zip(lazy, lazy[1:]):
            assert stop0 == start1
            assert t0 < t1
        for time, start, stop in lazy:
            seg = table.arrival[start:stop]
            assert np.all(seg == time)
            assert isinstance(time, float)


class TestTenantConservation:
    """Every mix under perpetual flaky-fleet with the predictive control
    plane, on the flat engine: each submitted job ends exactly once
    (completed, failed or rejected) and nothing is left held."""

    @pytest.mark.parametrize("tenants", ["single", "free-tier-vs-premium",
                                         "batch-vs-interactive", "noisy-neighbor",
                                         STRESS_MIX], ids=lambda t: getattr(t, "name", t))
    def test_every_job_ends_once(self, tenants):
        from collections import Counter

        env = QCloudSimEnv(SimulationConfig(num_jobs=150, seed=4, scenario="flaky-fleet",
                                            adaptive="predictive", checkpointing=True,
                                            max_requeues=2),
                           tenants=tenants)
        records = env.run_until_complete()
        broker = env.broker
        ends = Counter([r.job_id for r in records]
                       + [j.job_id for j in broker.failed_jobs]
                       + [j.job_id for j in broker.rejected_jobs])
        submitted = [job.job_id for job in env.job_generator.jobs]
        assert sorted(ends) == sorted(submitted)
        assert set(ends.values()) == {1}
        assert broker.unended == 0
        assert all(device.used_qubits == 0 for device in env.cloud.devices)
        for tenant in broker.mix.tenants:
            assert broker.admission_controller.queued(tenant.name) == 0, tenant.name


class _FleetStateAtPlan:
    """Policy wrapper recording, per plan, whether every device was idle."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.idle_fleet_at_plan = {}

    def plan(self, job, devices):
        self.idle_fleet_at_plan[job.job_id] = all(
            d.free_qubits == d.num_qubits for d in devices
        )
        return self.inner.plan(job, devices)


class TestArrivalAtCompletion:
    """The engine's rule for a job arriving at exactly the float time T at
    which another job completes: the arrival plans after every release at
    T, so it sees the post-release fleet."""

    @staticmethod
    def _run(policy, jobs, traced=False):
        from repro.des.monitoring import trace_events
        from repro.hardware.backends import get_device_profile
        from repro.scheduling.registry import create_policy

        recorder = _FleetStateAtPlan(create_policy(policy))
        env = QCloudSimEnv(
            config=SimulationConfig(num_jobs=len(jobs), policy=policy),
            devices=[get_device_profile("ibm_strasbourg"), get_device_profile("ibm_kyiv")],
            jobs=jobs,
            policy=recorder,
        )
        if traced:
            trace_events(env, lambda *event: None)
        env.run()
        return recorder, {r.job_id: r for r in env.records.completed_records}

    @staticmethod
    def _job(job_id, num_qubits, arrival_time, tenant=None):
        from repro.circuits.generators import random_circuit_spec

        rng = np.random.default_rng(job_id + 7 * num_qubits)
        circuit = random_circuit_spec(rng, qubit_range=(num_qubits, num_qubits))
        return QJob(job_id=job_id, circuit=circuit, arrival_time=arrival_time, tenant=tenant)

    @pytest.mark.parametrize("policy", ["speed", "fidelity", "fair"])
    @pytest.mark.parametrize("first", [60, 127, 180, 250])
    @pytest.mark.parametrize("second", [30, 100, 140])
    def test_arrival_plans_after_every_release(self, policy, first, second):
        # Job 0 alone fixes the collision time T = its finish time.
        _, alone = self._run(policy, [self._job(0, first, 0.0)])
        collide_at = alone[0].finish_time

        def jobs():
            return [self._job(0, first, 0.0), self._job(1, second, collide_at)]

        recorder, records = self._run(policy, jobs())
        assert records[0].finish_time == collide_at
        assert recorder.idle_fleet_at_plan[1]
        assert records[1].start_time == collide_at
        # The rule does not depend on how the event loop drains the
        # timestamp: a traced (one event per step) run agrees.
        _, traced = self._run(policy, jobs(), traced=True)
        assert [r.as_dict() for r in traced.values()] == [r.as_dict() for r in records.values()]


class TestKillAtCompletion:
    """The engine's rule for a kill popped before a completion due at the
    same float time T: the kill aborts that sub-job, its completion event
    is a tombstone when it pops, and the job is requeued."""

    @staticmethod
    def _run(kill_at=None, checkpointing=False):
        from repro.hardware.backends import get_device_profile

        env = QCloudSimEnv(
            config=SimulationConfig(num_jobs=1, policy="speed", checkpointing=checkpointing),
            devices=[get_device_profile("ibm_strasbourg"), get_device_profile("ibm_kyiv")],
            jobs=[TestArrivalAtCompletion._job(0, 100, 0.0)],
        )
        if kill_at is not None:
            # Started before the run, so the kill's timeout is scheduled
            # before the job launches and pops first at T.
            device = env.cloud.device("ibm_strasbourg")

            def back():
                device.set_online()
                env.cloud.signal_capacity_change()

            timeline(env, (kill_at, lambda: device.set_offline(kill_running=True)),
                     (10.0, back))
        (record,) = env.run_until_complete()
        return record, [e.event for e in env.records.events]

    @pytest.mark.parametrize("checkpointing", [False, True], ids=["restart", "checkpoint"])
    def test_kill_at_completion_time(self, checkpointing):
        alone, _ = self._run()
        assert alone.devices == ["ibm_strasbourg"] and alone.communication_time == 0.0
        collide_at = alone.finish_time

        record, events = self._run(collide_at, checkpointing)
        assert record.retries == 1
        assert "requeue" in events
        # The requeued attempt re-plans at T onto the surviving device.
        assert record.first_start_time == 0.0 and record.start_time == collide_at
        assert record.devices == ["ibm_kyiv"]
        # The checkpoint floor keeps one shot for the resumed attempt.
        assert record.resumed_shots == (alone.num_shots - 1 if checkpointing else 0)
