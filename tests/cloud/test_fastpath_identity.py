"""Byte-identity of the flat-event engine against the per-job engine.

The flat engine's contract (see :mod:`repro.cloud.fastpath`) is that every
configuration reproduces the per-job record and event streams *bit for
bit*.  These tests sweep policies × arrival processes × scenario presets
(× checkpointing × adaptive policies × tenant mixes) comparing the full
event log, every completed record, the failed-job lists, the end time and
the device statistics (the flat engine is the default; ``fast_path=False``
forces the per-job reference), plus the engine selection rule and the
:class:`JobTable` plumbing the dispatcher runs on.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.circuits.circuit import CircuitSpec
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.cloud.fastpath import JobTable
from repro.cloud.job_generator import generate_synthetic_jobs
from repro.cloud.qjob import QJob
from repro.dynamics import available_scenarios
from repro.dynamics.scenario import TrafficSpec
from repro.serve import AdmissionSpec, SLOSpec, TenantMix, TenantSpec


def _run(fast, policy="speed", arrival=None, scenario=None, jobs=None, n=50, devices=None,
         adaptive=None):
    """One simulation; returns (events, records, failed, fast_path_active,
    now, adaptive report as JSON or None).

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
        adaptive=adaptive,
    )
    env.run_until_complete()
    events = [(e.job_id, e.event, e.time, e.detail) for e in env.records.events]
    records = [r.as_dict() for r in env.records.completed_records]
    failed = [(j.job_id, j.status.name) for j in env.broker.failed_jobs]
    report = None
    if adaptive is not None:
        report = json.dumps(env.adaptive_report(), sort_keys=True)
    return events, records, failed, env.fast_path_active, env.now, report


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

    @pytest.mark.parametrize("arrival", [None, 0.5], ids=["batch", "poisson"])
    @pytest.mark.parametrize("scenario", [None, "rush-hour"])
    @pytest.mark.parametrize("adaptive", ["reactive", "predictive"])
    @pytest.mark.parametrize("policy", ["speed", "fidelity", "fair", "balanced"])
    def test_identical_adaptive_runs(self, policy, adaptive, scenario, arrival):
        # The control plane's signals, ticks and decisions must not depend
        # on which engine reported to it.
        legacy = _run(False, policy, arrival, scenario, adaptive=adaptive)
        fast = _run(None, policy, arrival, scenario, adaptive=adaptive)
        assert fast[3] and not legacy[3]
        assert legacy[0] == fast[0], "events"
        assert legacy[1] == fast[1], "records"
        assert legacy[2] == fast[2], "failed"
        assert legacy[4] == fast[4], "env.now"
        assert legacy[5] == fast[5], "adaptive_report"

    def test_streaming_table_with_adaptive_policy_ends_every_job(self):
        arrivals = np.cumsum(np.full(40, 3.0)) - 3.0
        table = JobTable.synthetic(40, seed=2, arrival_times=arrivals)
        env = QCloudSimEnv(config=SimulationConfig(adaptive="reactive"), job_table=table)
        assert env.fast_path_active
        records = env.run_until_complete()
        assert table.jobs is None
        assert len(records) == 40 and not env.broker.failed_jobs
        assert env.broker.unended == 0
        assert env.now == max(r.finish_time for r in records)
        signals = env.adaptive_report()["signals"]["tenants"]["__untenanted__"]
        assert signals["submitted"] == signals["completed"] == 40

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

    def test_dynamic_scenario_runs_flat(self):
        # flaky-fleet injects drift, outages and maintenance; the flat
        # engine aborts and requeues sub-jobs itself.
        env = QCloudSimEnv(
            config=SimulationConfig(policy="speed"),
            jobs=generate_synthetic_jobs(num_jobs=5, seed=11),
            scenario="flaky-fleet",
        )
        assert env.fast_path_active
        assert len(env.run_until_complete()) == 5

    def test_tenant_mix_runs_flat(self):
        env = QCloudSimEnv(
            config=SimulationConfig(tenants="free-tier-vs-premium"),
            jobs=generate_synthetic_jobs(num_jobs=5, seed=1),
        )
        env.run_until_complete()
        assert env.fast_path_active
        assert env.broker.unended == 0

    @pytest.mark.parametrize("overrides", [{}, {"tenants": "single"},
                                           {"tenants": "noisy-neighbor",
                                            "scenario": "flaky-fleet"}],
                             ids=["plain", "tenants", "tenants-scenario"])
    def test_explicit_fast_path_never_raises(self, overrides):
        env = QCloudSimEnv(config=SimulationConfig(num_jobs=5, seed=1, **overrides),
                           fast_path=True)
        assert env.fast_path_active

    def test_job_table_refuses_per_job_engine(self):
        table = JobTable.synthetic(5, seed=1, qubit_range=(2, 8),
                                   depth_range=(5, 10), shots_range=(100, 200))
        with pytest.raises(ValueError, match="flat engine"):
            QCloudSimEnv(config=SimulationConfig(), job_table=table, fast_path=False)

    def test_engine_rule(self, tmp_path):
        # Every configuration runs flat: every scenario preset, a replayed
        # trace and every tenant mix, alone or with a scenario; only
        # fast_path=False selects the per-job engine.
        from repro.dynamics import load_trace
        from repro.serve import available_tenant_mixes

        def engine(**kwargs):
            return QCloudSimEnv(config=SimulationConfig(num_jobs=3, seed=1),
                                **kwargs).fast_path_active

        assert engine()
        assert engine(scenario="flaky-fleet", fast_path=True)
        for scenario in available_scenarios():
            assert engine(scenario=scenario), scenario
        recorded = QCloudSimEnv(SimulationConfig(num_jobs=3, seed=1, scenario="flaky-fleet"))
        recorded.run_until_complete()
        trace = recorded.save_trace(str(tmp_path / "trace.jsonl"))
        assert engine(scenario=load_trace(trace))
        for tenants in available_tenant_mixes():
            assert engine(tenants=tenants), tenants
        assert engine(tenants="single", scenario="flaky-fleet", adaptive="predictive")
        assert not engine(tenants="noisy-neighbor", fast_path=False)

    def test_job_table_accepts_any_scenario(self):
        for scenario in available_scenarios():
            table = JobTable.synthetic(3, seed=1)
            env = QCloudSimEnv(config=SimulationConfig(scenario=scenario), job_table=table)
            assert env.fast_path_active, scenario

    def test_job_table_with_tenant_mix_needs_jobs(self):
        # A tenant mix reads each job's tenant tag: a table built from jobs
        # runs flat, a streaming table (no jobs) is refused at build.
        jobs = generate_synthetic_jobs(num_jobs=5, seed=1)
        env = QCloudSimEnv(config=SimulationConfig(tenants="free-tier-vs-premium"),
                           job_table=JobTable.from_jobs(jobs))
        assert env.fast_path_active
        assert len(env.run_until_complete()) == 5
        table = JobTable.synthetic(5, seed=1, qubit_range=(2, 8),
                                   depth_range=(5, 10), shots_range=(100, 200))
        with pytest.raises(ValueError, match="streaming JobTable has no jobs"):
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
    output: every config runs the flat dispatcher bit-identically to the
    per-job engine.  Together with TestByteIdentity,
    TestWorldDynamicsIdentity and TestTenantIdentity this covers every
    scenario preset, tenant mix and checkpointing setting."""

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
        # Every scenario runs on the flat engine.
        assert default[2] and not legacy[2]
        assert default[:2] == legacy[:2]
        assert default[3] == legacy[3]

    @pytest.mark.parametrize("tenants", ["single", "free-tier-vs-premium",
                                         "batch-vs-interactive", "noisy-neighbor"])
    def test_tenant_mixes(self, tenants):
        legacy = self._run_config(False, tenants=tenants)
        default = self._run_config(None, tenants=tenants)
        # Tenant mixes run on the flat engine.
        assert default[2] and not legacy[2]
        assert default[:2] == legacy[:2]
        assert default[3] == legacy[3]

    @pytest.mark.parametrize("checkpointing", [False, True])
    def test_checkpointing(self, checkpointing):
        legacy = self._run_config(False, scenario="flaky-fleet",
                                  checkpointing=checkpointing)
        default = self._run_config(None, scenario="flaky-fleet",
                                   checkpointing=checkpointing)
        assert default[2] and not legacy[2]
        assert default[:2] == legacy[:2]
        assert default[3] == legacy[3]


def _world_run(fast, config, setup=None, **kwargs):
    """One run compared in full: events, records, failed and rejected jobs,
    end time, device statistics, the adaptive report (JSON, or ``None``),
    the tenant reports and the preemption count (``None`` without a tenant
    mix).  *setup* is called with the environment before the run."""
    env = QCloudSimEnv(config, fast_path=fast, **kwargs)
    if setup is not None:
        setup(env)
    env.run_until_complete()
    assert env.fast_path_active == (fast is None)
    report = None
    if env.adaptive_engine is not None:
        report = json.dumps(env.adaptive_report(), sort_keys=True)
    serve = env.tenant_mix is not None
    return {
        "events": [(e.job_id, e.event, e.time, e.detail) for e in env.records.events],
        "records": [r.as_dict() for r in env.records.completed_records],
        "failed": [(j.job_id, j.status.name) for j in env.broker.failed_jobs],
        "rejected": [j.job_id for j in env.broker.rejected_jobs] if serve else None,
        "now": env.now,
        "devices": env.device_utilization_report(),
        "adaptive": report,
        "tenants": repr(env.tenant_reports()) if serve else None,
        "preempted": env.broker.preempted_total if serve else None,
    }


def _assert_identical(config, **kwargs):
    legacy = _world_run(False, config, **kwargs)
    flat = _world_run(None, config, **kwargs)
    for key in legacy:
        assert flat[key] == legacy[key], key
    return flat


def _count(run, event):
    return sum(1 for e in run["events"] if e[1] == event)


class TestWorldDynamicsIdentity:
    """Drift, outages, maintenance and replayed traces on the flat engine:
    killed sub-jobs are tombstoned, their attempts checkpointed, released
    and requeued exactly as the per-job engine does it."""

    @pytest.mark.parametrize("adaptive", [None, "predictive"])
    @pytest.mark.parametrize("checkpointing", [False, True], ids=["restart", "checkpoint"])
    @pytest.mark.parametrize("scenario", sorted(available_scenarios()))
    def test_scenario_presets(self, scenario, checkpointing, adaptive):
        config = SimulationConfig(num_jobs=30, seed=9, scenario=scenario, arrival="poisson",
                                  arrival_rate=0.05, checkpointing=checkpointing,
                                  adaptive=adaptive)
        _assert_identical(config)

    @pytest.mark.parametrize("checkpointing", [False, True], ids=["restart", "checkpoint"])
    def test_kills_requeue_and_resume(self, checkpointing):
        # A busy fleet under flaky-fleet: many kills, several at one instant.
        config = SimulationConfig(num_jobs=120, seed=1, scenario="flaky-fleet",
                                  qubit_range=(20, 90), checkpointing=checkpointing)
        run = _assert_identical(config)
        assert _count(run, "requeue") >= 10
        assert (_count(run, "resume") > 0) == checkpointing

    @pytest.mark.parametrize("max_requeues", [0, 1])
    def test_requeue_limit_with_blocked_heads(self, max_requeues):
        # Wide jobs block the queue head; a job failing at the requeue
        # limit releases qubits that must wake that head on both engines.
        config = SimulationConfig(num_jobs=80, seed=1, scenario="flaky-fleet",
                                  arrival="poisson", arrival_rate=0.05,
                                  qubit_range=(60, 250), max_requeues=max_requeues)
        run = _assert_identical(config)
        assert run["failed"]

    def test_requeue_limit(self):
        config = SimulationConfig(num_jobs=120, seed=1, scenario="flaky-fleet",
                                  qubit_range=(20, 90), max_requeues=1)
        run = _assert_identical(config)
        assert run["failed"] and all(status == "FAILED" for _, status in run["failed"])
        assert _count(run, "failed") == len(run["failed"])

    def test_replayed_trace(self, tmp_path):
        from repro.dynamics import load_trace

        config = SimulationConfig(num_jobs=60, seed=3, scenario="flaky-fleet",
                                  arrival="poisson", arrival_rate=0.05, checkpointing=True)
        recorded = QCloudSimEnv(config, fast_path=False)
        recorded.run_until_complete()
        trace = load_trace(recorded.save_trace(str(tmp_path / "flaky.jsonl")))
        run = _assert_identical(config, scenario=trace)
        assert _count(run, "requeue") > 0

    def test_drift_with_split_jobs(self):
        # 130-250-qubit jobs on 127-qubit devices all split; drift steps
        # the calibration while fragments run, so completion-time
        # breakdowns differ from launch-time ones.
        config = SimulationConfig(num_jobs=40, seed=4, scenario="drift",
                                  arrival="poisson", arrival_rate=0.05)
        run = _assert_identical(config)
        assert all(r["num_devices"] > 1 for r in run["records"])

    def test_streaming_table_with_outages_ends_every_job_once(self):
        arrivals = np.cumsum(np.full(200, 2.0))
        table = JobTable.synthetic(200, seed=5, qubit_range=(20, 90), arrival_times=arrivals)
        env = QCloudSimEnv(SimulationConfig(scenario="flaky-fleet", checkpointing=True),
                           job_table=table)
        assert env.fast_path_active
        records = env.run_until_complete()
        assert table.jobs is None
        assert env.broker.unended == 0
        ended = [r.job_id for r in records] + [j.job_id for j in env.broker.failed_jobs]
        assert sorted(ended) == list(range(200))
        assert all(device.used_qubits == 0 for device in env.cloud.devices)
        assert sum(device.aborted_subjobs for device in env.cloud.devices) > 0


#: Three priority classes under pressure: interactive jobs with a short
#: queueing deadline preempt a best-effort batch backlog queued at t=0, and
#: a bursty middle class is held back by a token bucket and a queue cap.
_STRESS_MIX = TenantMix(
    name="identity-stress",
    tenants=(
        TenantSpec(name="interactive", priority_class=0, weight=2.0, share=0.3,
                   traffic=TrafficSpec(model="poisson", rate=0.02),
                   qubit_range=(20, 120), shots_range=(10_000, 40_000),
                   slo=SLOSpec(queue_deadline=10.0)),
        TenantSpec(name="bursty", priority_class=1, share=0.1,
                   traffic=TrafficSpec(model="mmpp", rate=0.005, burst_rate=0.1,
                                       dwell_normal=200.0, dwell_burst=50.0),
                   qubit_range=(20, 160),
                   admission=AdmissionSpec(rate=0.01, burst=3.0, max_queued=5),
                   slo=SLOSpec(queue_deadline=300.0)),
        TenantSpec(name="batch", priority_class=3, share=0.6, qubit_range=(130, 250),
                   shots_range=(10_000, 40_000), job_priority=5),
    ),
)


class TestTenantIdentity:
    """Tenant mixes on the flat engine: the serve broker's admission, fair
    share, floor yielding and deadline preemption, driven through the
    broker hooks, reproduce the per-job engine exactly."""

    @pytest.mark.parametrize("adaptive", [None, "reactive"])
    @pytest.mark.parametrize("scenario", [None, "flaky-fleet", "black-friday"])
    @pytest.mark.parametrize("tenants", ["single", "free-tier-vs-premium",
                                         "batch-vs-interactive", "noisy-neighbor"])
    def test_presets(self, tenants, scenario, adaptive):
        for policy in ("speed", "fidelity", "fair"):
            for checkpointing in (False, True):
                config = SimulationConfig(num_jobs=60, seed=9, tenants=tenants, policy=policy,
                                          scenario=scenario, checkpointing=checkpointing,
                                          adaptive=adaptive)
                _assert_identical(config)

    @pytest.mark.parametrize("checkpointing", [False, True], ids=["restart", "checkpoint"])
    def test_preemptions_kills_and_requeue_limit(self, checkpointing):
        # Killing outages and deadline preemptions against a requeue limit
        # of one: victims re-run, or fail on their second abort.
        preempted = failed = rejected = 0
        for policy in ("speed", "fidelity", "fair", "balanced"):
            config = SimulationConfig(num_jobs=200, seed=1, policy=policy, scenario="flaky-fleet",
                                      checkpointing=checkpointing, adaptive="predictive",
                                      max_requeues=1)
            run = _assert_identical(config, tenants=_STRESS_MIX)
            preempted += run["preempted"]
            failed += len(run["failed"])
            rejected += len(run["rejected"])
        assert preempted >= 20 and failed > 0 and rejected > 0

    def test_plan_attempt_limit_with_floor_yields(self):
        # A yielding head keeps its failed-plan count; with three attempts
        # allowed, wide jobs fail on both engines alike.
        def limit(env):
            env.broker.max_plan_attempts = 3

        config = SimulationConfig(num_jobs=150, seed=1, policy="speed")
        run = _assert_identical(config, setup=limit, tenants=_STRESS_MIX)
        reasons = [e[3] for e in run["events"] if e[1] == "failed"]
        assert "no feasible allocation" in reasons

    def test_streaming_records_reports(self):
        from repro.cloud.records_stream import StreamingRecordsManager

        def run(fast):
            env = QCloudSimEnv(SimulationConfig(num_jobs=150, seed=2, scenario="flaky-fleet"),
                               tenants=_STRESS_MIX, records=StreamingRecordsManager(),
                               fast_path=fast)
            env.run_until_complete()
            return (repr(env.tenant_reports()), env.now, env.device_utilization_report(),
                    env.broker.preempted_total, len(env.broker.failed_jobs))

        flat, legacy = run(None), run(False)
        assert flat == legacy
        assert flat[3] > 0

    def test_job_table_from_jobs_matches_job_list(self):
        from repro.serve import tenant_jobs

        config = SimulationConfig(num_jobs=150, seed=3, scenario="flaky-fleet",
                                  checkpointing=True)
        jobs = tenant_jobs(_STRESS_MIX, config)
        listed = _world_run(None, config, tenants=_STRESS_MIX,
                            jobs=[job.clone() for job in jobs])
        tabled = _world_run(None, config, tenants=_STRESS_MIX,
                            job_table=JobTable.from_jobs([job.clone() for job in jobs]))
        assert tabled == listed
        assert listed["preempted"] > 0

    def test_head_preempts_job_dispatched_in_same_pump(self):
        # At t=5 a kill-and-restore of the premium job's device requeues it
        # behind the parked batch job 2.  One pump then dispatches job 2 on
        # the freed qubits and plans the premium job, which is past its
        # deadline and does not fit: it must preempt job 2, started in that
        # same pump (the latest-started victim), not job 0.
        from repro.hardware.backends import get_device_profile

        mix = TenantMix(name="two-class", tenants=(
            TenantSpec(name="premium", priority_class=0, slo=SLOSpec(queue_deadline=2.0)),
            TenantSpec(name="batch", priority_class=3),
        ))

        def jobs():
            return [TestArrivalAtCompletion._job(0, 127, 0.0, "batch"),
                    TestArrivalAtCompletion._job(1, 100, 0.0, "premium"),
                    TestArrivalAtCompletion._job(2, 100, 1.0, "batch")]

        def kill_and_restore(env):
            def outage():
                yield env.timeout(5.0)
                start = next(e for e in env.records.events
                             if e.job_id == 1 and e.event == "start")
                device = env.cloud.device(start.detail)
                device.set_offline(kill_running=True)
                device.set_online()
                env.cloud.signal_capacity_change()

            env.process(outage())

        config = SimulationConfig(num_jobs=3, policy="speed")
        devices = [get_device_profile("ibm_strasbourg"), get_device_profile("ibm_kyiv")]
        legacy = _world_run(False, config, setup=kill_and_restore, tenants=mix,
                            jobs=jobs(), devices=devices)
        flat = _world_run(None, config, setup=kill_and_restore, tenants=mix,
                          jobs=jobs(), devices=devices)
        assert flat == legacy
        assert [e for e in flat["events"] if e[1] == "preempted"] == [
            (2, "preempted", 5.0, "by job 1 (premium)")
        ]
        starts = [e[:3] for e in flat["events"] if e[1] == "start" and e[2] == 5.0]
        assert starts == [(2, "start", 5.0), (1, "start", 5.0)]


    def test_preemptions_logged_before_kills(self):
        # The premium job parks at t=1; its deadline at t=3 wakes it, and it
        # needs both running batch jobs preempted.  The flat engine kills a
        # victim at once, so both preemptions must be logged before the
        # first victim's requeue, as on the per-job engine.
        from repro.hardware.backends import get_device_profile

        mix = TenantMix(name="two-class", tenants=(
            TenantSpec(name="premium", priority_class=0, slo=SLOSpec(queue_deadline=2.0)),
            TenantSpec(name="batch", priority_class=3),
        ))
        jobs = [TestArrivalAtCompletion._job(0, 127, 0.0, "batch"),
                TestArrivalAtCompletion._job(1, 100, 0.0, "batch"),
                TestArrivalAtCompletion._job(2, 200, 1.0, "premium")]
        devices = [get_device_profile("ibm_strasbourg"), get_device_profile("ibm_kyiv")]
        config = SimulationConfig(num_jobs=3, policy="speed")
        run = _assert_identical(config, tenants=mix, jobs=jobs, devices=devices)
        at_deadline = [e[:2] for e in run["events"] if e[2] == 3.0]
        assert at_deadline == [(1, "preempted"), (0, "preempted"), (1, "requeue"),
                               (0, "requeue"), (2, "start")]


class TestTenantConservation:
    """Every mix under perpetual flaky-fleet with the predictive control
    plane, on the flat engine: each submitted job ends exactly once
    (completed, failed or rejected) and nothing is left held."""

    @pytest.mark.parametrize("tenants", ["single", "free-tier-vs-premium",
                                         "batch-vs-interactive", "noisy-neighbor",
                                         _STRESS_MIX], ids=lambda t: getattr(t, "name", t))
    def test_every_job_ends_once(self, tenants):
        from collections import Counter

        env = QCloudSimEnv(SimulationConfig(num_jobs=150, seed=4, scenario="flaky-fleet",
                                            adaptive="predictive", checkpointing=True,
                                            max_requeues=2),
                           tenants=tenants)
        assert env.fast_path_active
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

    def test_unknown_tenant_raises_the_same_error(self):
        def error(fast):
            jobs = generate_synthetic_jobs(num_jobs=3, seed=1)
            jobs[1].tenant = "nobody"
            env = QCloudSimEnv(SimulationConfig(tenants="free-tier-vs-premium"), jobs=jobs,
                               fast_path=fast)
            with pytest.raises(KeyError) as info:
                env.run_until_complete()
            return str(info.value)

        assert error(None) == error(False)
        assert "unknown tenant 'nobody'" in error(None)


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
    """The flat engine's rule for a kill popped before a completion due at
    the same float time T: the kill aborts that sub-job, and the job is
    requeued.  The per-job engine delivers its interrupt only after the
    batch that completes the sub-job, so there the job completes at T.
    This is the second corner where the engines differ; both sides are
    pinned so the divergence stays visible."""

    @staticmethod
    def _run(fast, kill_at=None, checkpointing=False):
        from repro.hardware.backends import get_device_profile

        env = QCloudSimEnv(
            config=SimulationConfig(num_jobs=1, policy="speed", checkpointing=checkpointing),
            devices=[get_device_profile("ibm_strasbourg"), get_device_profile("ibm_kyiv")],
            jobs=[TestArrivalAtCompletion._job(0, 100, 0.0)],
            fast_path=fast,
        )
        if kill_at is not None:
            # Created before the run, so the kill's timeout is scheduled
            # before the job launches and pops first at T.
            def outage():
                yield env.timeout(kill_at)
                env.cloud.device("ibm_strasbourg").set_offline(kill_running=True)
                yield env.timeout(10.0)
                env.cloud.device("ibm_strasbourg").set_online()
                env.cloud.signal_capacity_change()

            env.process(outage())
        (record,) = env.run_until_complete()
        return record, [e.event for e in env.records.events]

    @pytest.mark.parametrize("checkpointing", [False, True], ids=["restart", "checkpoint"])
    def test_kill_at_completion_time(self, checkpointing):
        alone, _ = self._run(None)
        assert alone.devices == ["ibm_strasbourg"] and alone.communication_time == 0.0
        collide_at = alone.finish_time

        flat, flat_events = self._run(None, collide_at, checkpointing)
        assert flat.retries == 1
        assert "requeue" in flat_events
        # The requeued attempt re-plans at T onto the surviving device.
        assert flat.first_start_time == 0.0 and flat.start_time == collide_at
        assert flat.devices == ["ibm_kyiv"]
        # The checkpoint floor keeps one shot for the resumed attempt.
        assert flat.resumed_shots == (alone.num_shots - 1 if checkpointing else 0)

        per_job, per_job_events = self._run(False, collide_at, checkpointing)
        assert per_job.retries == 0 and "requeue" not in per_job_events
        assert per_job.finish_time == collide_at
