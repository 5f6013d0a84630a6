"""Byte-identity of the flat-event engine against the per-job engine.

The flat engine's contract (see :mod:`repro.cloud.fastpath`) is that every
eligible configuration reproduces the per-job record and event streams *bit
for bit*.  These tests sweep policies × arrival processes × traffic-only
scenarios comparing the full event log, every completed record and the
failed-job lists (the flat engine is the default; ``fast_path=False``
forces the per-job reference), plus the engine selection rules and the
:class:`JobTable` plumbing the dispatcher runs on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.circuit import CircuitSpec
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.cloud.fastpath import JobTable, flat_path_eligible
from repro.cloud.job_generator import generate_synthetic_jobs
from repro.cloud.qjob import QJob


def _run(fast, policy="speed", arrival=None, scenario=None, jobs=None, n=50, devices=None):
    """One simulation; returns (events, records, failed, fast_path_active).

    ``fast=None`` lets the environment choose the engine; ``False`` forces
    the per-job engine."""
    if jobs is None:
        jobs = generate_synthetic_jobs(
            num_jobs=n,
            seed=11,
            arrival="poisson" if arrival is not None else "batch",
            arrival_rate=arrival if arrival is not None else 0.01,
        )
    env = QCloudSimEnv(
        config=SimulationConfig(policy=policy),
        devices=devices,
        jobs=jobs,
        scenario=scenario,
        fast_path=fast,
    )
    env.run()
    events = [(e.job_id, e.event, e.time, e.detail) for e in env.records.events]
    records = [r.as_dict() for r in env.records.completed_records]
    failed = [(j.job_id, j.status.name) for j in env.broker.failed_jobs]
    return events, records, failed, env.fast_path_active


class TestByteIdentity:
    @pytest.mark.parametrize("policy", ["speed", "fidelity", "fair", "balanced"])
    def test_identical_streams(self, policy):
        for arrival in (None, 0.5):
            for scenario in (None, "rush-hour"):
                legacy = _run(False, policy, arrival, scenario)
                fast = _run(None, policy, arrival, scenario)
                assert not legacy[3], (policy, arrival, scenario)
                assert fast[3], (policy, arrival, scenario)
                assert legacy[0] == fast[0], (policy, arrival, scenario, "events")
                assert legacy[1] == fast[1], (policy, arrival, scenario, "records")
                assert legacy[2] == fast[2], (policy, arrival, scenario, "failed")

    def test_capacity_exceeding_job_fails_identically(self):
        # One job wider than the whole fleet exercises the can-ever-fit
        # guard; the giant must fail the same way on both engines while the
        # normal jobs complete.
        jobs = generate_synthetic_jobs(num_jobs=6, seed=3)
        giant = QJob(
            job_id=999,
            circuit=CircuitSpec(num_qubits=100_000, depth=5, num_shots=100,
                                num_two_qubit_gates=10),
            arrival_time=0.0,
        )
        legacy = _run(False, jobs=jobs + [giant])
        fast = _run(None, jobs=jobs + [giant])
        assert fast[3] and not legacy[3]
        assert legacy[:3] == fast[:3]
        assert (999, "FAILED") in fast[2]


    def test_same_time_completions_replan_after_every_release(self):
        # Jobs 0 and 1 are identical and share a device, so they complete at
        # the same float time T; the blocked head (job 3) must re-plan once,
        # after both releases — a plan after only the first release would
        # split it across the two devices.
        from repro.hardware.backends import get_device_profile

        def job(job_id, qubits, shots):
            circuit = CircuitSpec(num_qubits=qubits, depth=10, num_shots=shots,
                                  num_two_qubit_gates=3 * qubits)
            return QJob(job_id=job_id, circuit=circuit, arrival_time=0.0)

        def run(fast):
            jobs = [job(0, 60, 20_000), job(1, 60, 20_000), job(2, 100, 90_000),
                    job(3, 90, 20_000)]
            profiles = [get_device_profile("ibm_strasbourg"), get_device_profile("ibm_kyiv")]
            return _run(fast, jobs=jobs, devices=profiles)

        legacy, fast = run(False), run(None)
        assert fast[3] and not legacy[3]
        assert legacy[:3] == fast[:3]
        job3 = next(r for r in fast[1] if r["job_id"] == 3)
        assert job3["devices"] == "ibm_strasbourg"


class TestEligibility:
    def test_default_is_flat(self):
        env = QCloudSimEnv(config=SimulationConfig(),
                           jobs=generate_synthetic_jobs(num_jobs=3, seed=1))
        assert env.fast_path_active

    def test_fast_path_false_forces_per_job_engine(self):
        env = QCloudSimEnv(config=SimulationConfig(),
                           jobs=generate_synthetic_jobs(num_jobs=3, seed=1),
                           fast_path=False)
        assert not env.fast_path_active

    def test_dynamic_scenario_falls_back(self):
        # flaky-fleet injects outages — world dynamics select the per-job
        # engine.  (Engagement is decided at construction; don't run —
        # dynamic scenarios keep scheduling world events, so a bare run()
        # never drains the queue.)
        env = QCloudSimEnv(
            config=SimulationConfig(policy="speed"),
            jobs=generate_synthetic_jobs(num_jobs=5, seed=11),
            scenario="flaky-fleet",
        )
        assert not env.fast_path_active

    def test_tenant_mix_falls_back(self):
        env = QCloudSimEnv(
            config=SimulationConfig(tenants="free-tier-vs-premium"),
            jobs=generate_synthetic_jobs(num_jobs=5, seed=1),
        )
        env.run()
        assert not env.fast_path_active

    @pytest.mark.parametrize(
        "overrides",
        [{"scenario": "flaky-fleet"}, {"tenants": "single"}, {"adaptive": "reactive"}],
        ids=["scenario", "tenants", "adaptive"],
    )
    def test_explicit_fast_path_on_ineligible_config_raises(self, overrides):
        with pytest.raises(ValueError, match="fast_path=True requires a fast-path-eligible"):
            QCloudSimEnv(config=SimulationConfig(num_jobs=5, seed=1, **overrides),
                         fast_path=True)

    def test_job_table_refuses_per_job_engine(self):
        table = JobTable.synthetic(5, seed=1, qubit_range=(2, 8),
                                   depth_range=(5, 10), shots_range=(100, 200))
        with pytest.raises(ValueError, match="flat engine"):
            QCloudSimEnv(config=SimulationConfig(), job_table=table, fast_path=False)

    def test_custom_broker_ineligible(self):
        from repro.cloud.broker import Broker

        class CustomBroker(Broker):
            pass

        env = QCloudSimEnv(config=SimulationConfig(),
                           jobs=generate_synthetic_jobs(num_jobs=2, seed=1))
        assert flat_path_eligible(env.broker, None, None)
        custom = CustomBroker.__new__(CustomBroker)
        assert not flat_path_eligible(custom, None, None)

    def test_job_table_requires_eligible_config(self):
        table = JobTable.synthetic(5, seed=1, qubit_range=(2, 8),
                                   depth_range=(5, 10), shots_range=(100, 200))
        with pytest.raises(ValueError, match="fast-path-eligible"):
            QCloudSimEnv(
                config=SimulationConfig(tenants="free-tier-vs-premium"),
                job_table=table,
            )

    def test_job_table_implies_fast_path(self):
        table = JobTable.synthetic(5, seed=1, qubit_range=(2, 8),
                                   depth_range=(5, 10), shots_range=(100, 200))
        env = QCloudSimEnv(config=SimulationConfig(), job_table=table)
        env.run()
        assert env.fast_path_active
        assert len(env.records.completed_records) == 5


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

    def test_synthetic_validation(self):
        with pytest.raises(ValueError):
            JobTable.synthetic(0)
        with pytest.raises(ValueError, match="arrival_times"):
            JobTable.synthetic(3, seed=1, arrival_times=[0.0, 1.0])

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


class TestFallbackIdentity:
    """The engine the environment picks by default must never change the
    output: eligible configs run the flat dispatcher bit-identically to the
    per-job engine, ineligible ones run the per-job engine itself.
    Together with TestByteIdentity this covers every scenario preset, tenant
    mix and checkpointing setting."""

    @staticmethod
    def _run_config(fast, **overrides):
        config = SimulationConfig(num_jobs=15, seed=9, **overrides)
        env = QCloudSimEnv(config, fast_path=fast)
        records = env.run_until_complete()
        events = [(e.job_id, e.event, e.time, e.detail) for e in env.records.events]
        dicts = [r.as_dict() for r in records]
        return events, dicts, env.fast_path_active, env.now

    @pytest.mark.parametrize("scenario", ["static", "drift", "flaky-fleet",
                                          "rush-hour", "black-friday"])
    def test_scenario_presets(self, scenario):
        legacy = self._run_config(False, scenario=scenario)
        default = self._run_config(None, scenario=scenario)
        # Traffic-only presets engage; world dynamics keep the per-job engine.
        assert default[2] == (scenario in ("static", "rush-hour"))
        assert default[:2] == legacy[:2]
        assert default[3] == legacy[3]

    @pytest.mark.parametrize("tenants", ["single", "free-tier-vs-premium",
                                         "batch-vs-interactive", "noisy-neighbor"])
    def test_tenant_mixes(self, tenants):
        legacy = self._run_config(False, tenants=tenants)
        default = self._run_config(None, tenants=tenants)
        assert not default[2]  # the serve layer always runs the per-job engine
        assert default == legacy

    @pytest.mark.parametrize("checkpointing", [False, True])
    def test_checkpointing(self, checkpointing):
        legacy = self._run_config(False, scenario="flaky-fleet",
                                  checkpointing=checkpointing)
        default = self._run_config(None, scenario="flaky-fleet",
                                   checkpointing=checkpointing)
        assert not default[2]
        assert default == legacy


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
    """The flat engine's rule for a job arriving at exactly the float time
    T at which another job completes: the arrival plans after every release
    at T, so it sees the post-release fleet.  (The per-job engine plans some
    of these arrivals mid-completion; the two engines may differ here and
    only here.)"""

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
        assert env.fast_path_active
        if traced:
            trace_events(env, lambda *event: None)
        env.run()
        return recorder, {r.job_id: r for r in env.records.completed_records}

    @staticmethod
    def _job(job_id, num_qubits, arrival_time):
        from repro.circuits.generators import random_circuit_spec

        rng = np.random.default_rng(job_id + 7 * num_qubits)
        circuit = random_circuit_spec(rng, qubit_range=(num_qubits, num_qubits))
        return QJob(job_id=job_id, circuit=circuit, arrival_time=arrival_time)

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
