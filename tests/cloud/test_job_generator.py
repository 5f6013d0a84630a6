"""Unit tests for synthetic workload creation and for feeding a workload
to the broker at its arrival times."""

import numpy as np
import pytest

from repro.circuits.circuit import CircuitSpec
from repro.cloud.broker import Broker
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.cloud.fastpath import FlatDispatcher, JobTable
from repro.cloud.job_generator import generate_synthetic_jobs
from repro.cloud.qcloud import QCloud
from repro.cloud.qjob import QJob
from repro.cloud.records import JobRecordsManager
from repro.hardware.backends import get_device_profile
from repro.scheduling.speed import SpeedPolicy


class TestSyntheticJobs:
    def test_case_study_ranges(self):
        jobs = generate_synthetic_jobs(100, seed=0)
        assert len(jobs) == 100
        for job in jobs:
            assert 130 <= job.num_qubits <= 250
            assert 5 <= job.depth <= 20
            assert 10_000 <= job.num_shots <= 100_000
            assert job.arrival_time == 0.0

    def test_seed_reproducibility(self):
        j1 = generate_synthetic_jobs(20, seed=42)
        j2 = generate_synthetic_jobs(20, seed=42)
        assert [j.circuit for j in j1] == [j.circuit for j in j2]
        j3 = generate_synthetic_jobs(20, seed=43)
        assert [j.circuit for j in j1] != [j.circuit for j in j3]

    def test_poisson_arrivals_increase(self):
        jobs = generate_synthetic_jobs(50, seed=1, arrival="poisson", arrival_rate=0.1)
        arrivals = [j.arrival_time for j in jobs]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] == 0.0
        assert arrivals[-1] > 0.0
        # Mean inter-arrival should be near 1/rate.
        gaps = np.diff(arrivals)
        assert np.mean(gaps) == pytest.approx(10.0, rel=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic_jobs(0)
        with pytest.raises(ValueError):
            generate_synthetic_jobs(5, arrival="burst")
        with pytest.raises(ValueError):
            generate_synthetic_jobs(5, arrival="poisson", arrival_rate=0.0)

    def test_unique_job_ids(self):
        jobs = generate_synthetic_jobs(200, seed=2)
        assert len({j.job_id for j in jobs}) == 200


class TestArrivalFeed:
    def _build(self, env):
        profiles = [
            get_device_profile("ibm_strasbourg", num_qubits=12, quantum_volume=32),
            get_device_profile("ibm_kyiv", num_qubits=12, quantum_volume=32),
        ]
        cloud = QCloud(env, profiles)
        records = JobRecordsManager()
        broker = Broker(env, cloud, SpeedPolicy(), records)
        return cloud, records, broker

    def _job(self, job_id, arrival, q=8):
        circuit = CircuitSpec(num_qubits=q, depth=4, num_shots=2_000, num_two_qubit_gates=5)
        return QJob(job_id=job_id, circuit=circuit, arrival_time=arrival)

    def test_jobs_dispatched_at_arrival_times(self, env):
        cloud, records, broker = self._build(env)
        jobs = [self._job(0, 0.0), self._job(1, 50.0), self._job(2, 120.0)]
        FlatDispatcher(env, broker, JobTable.from_jobs(jobs)).start()
        env.run()
        arrivals = {e.job_id: e.time for e in records.events if e.event == "arrival"}
        assert arrivals == {0: 0.0, 1: 50.0, 2: 120.0}
        assert len(records.completed_records) == 3

    def test_jobs_sorted_by_arrival(self, env):
        cloud, records, broker = self._build(env)
        jobs = [self._job(0, 30.0), self._job(1, 0.0)]
        dispatcher = FlatDispatcher(env, broker, JobTable.from_jobs(jobs))
        assert [j.job_id for j in dispatcher.jobs] == [1, 0]
        assert len(dispatcher) == 2

    def test_cannot_start_twice(self, env):
        cloud, records, broker = self._build(env)
        dispatcher = FlatDispatcher(env, broker, JobTable.from_jobs([self._job(0, 0.0)]))
        dispatcher.start()
        with pytest.raises(RuntimeError):
            dispatcher.start()


class TestEndOfRun:
    """Runs with perpetual event sources stop on the broker's ``all_ended``
    event: when the last job completes, fails or is rejected."""

    def test_empty_adaptive_workload_returns(self):
        env = QCloudSimEnv(SimulationConfig(adaptive="predictive"), jobs=[])
        assert env.adaptive_engine.perpetual
        assert env.run_until_complete() == []
        assert env.now == 0.0

    def test_shedding_serve_run_stops_at_the_last_end(self):
        env = QCloudSimEnv(
            SimulationConfig(
                num_jobs=60, seed=4, tenants="noisy-neighbor", scenario="flaky-fleet"
            )
        )
        assert env.scenario_engine.perpetual
        env.run_until_complete()
        ends = [
            e for e in env.records.events if e.event in ("finish", "failed", "rejected")
        ]
        assert any(e.event == "rejected" for e in ends)
        ended = sorted(e.job_id for e in ends)
        assert ended == sorted(job.job_id for job in env.job_generator.jobs)
        assert env.broker.unended == 0
        assert env.now == max(e.time for e in ends)
