"""Calibration drift: live scores, recalibration, and catalogue purity."""

import math

import pytest

from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.cloud.qdevice import IBMQuantumDevice
from repro.cloud.qjob import QJob
from repro.circuits.generators import random_circuit_spec
from repro.des.environment import Environment
from repro.dynamics import DriftSpec, Scenario
from repro.hardware.backends import get_device_profile
from repro.scheduling.error_aware import ErrorAwarePolicy
from tests.timeline import timeline

import numpy as np


def _job(job_id, num_qubits, arrival_time=0.0):
    rng = np.random.default_rng(job_id)
    circuit = random_circuit_spec(rng, qubit_range=(num_qubits, num_qubits))
    return QJob(job_id=job_id, circuit=circuit, arrival_time=arrival_time)


class TestLiveErrorScores:
    """The stale-score audit: scores must react to mid-run calibration swaps."""

    def test_device_aggregates_follow_calibration(self):
        env = Environment()
        device = IBMQuantumDevice(env, get_device_profile("ibm_kyiv"))
        before = device.error_score()
        device.calibration = device.calibration.scaled(readout=5.0, two_qubit=5.0)
        after = device.error_score()
        assert after > before
        assert device.avg_readout_error == device.calibration.average_readout_error()

    def test_calibration_setter_rejects_wrong_size(self):
        env = Environment()
        device = IBMQuantumDevice(env, get_device_profile("ibm_kyiv"))
        other = get_device_profile("ibm_kyiv", num_qubits=20).calibration
        with pytest.raises(ValueError):
            device.calibration = other

    def test_error_aware_plan_reacts_to_calibration_flip(self):
        """Flipping calibration changes the error-aware device choice."""
        env = Environment()
        kyiv = IBMQuantumDevice(env, get_device_profile("ibm_kyiv"))        # best
        brussels = IBMQuantumDevice(env, get_device_profile("ibm_brussels"))
        assert kyiv.error_score() < brussels.error_score()

        policy = ErrorAwarePolicy()
        job = _job(0, 100)
        plan = policy.plan(job, [kyiv, brussels])
        assert plan.device_names == ["ibm_kyiv"]

        # Degrade kyiv 10x: the next plan must move to brussels.
        kyiv.calibration = kyiv.calibration.scaled(readout=10.0, single_qubit=10.0, two_qubit=10.0)
        plan = policy.plan(job, [kyiv, brussels])
        assert plan.device_names == ["ibm_brussels"]

    def test_error_aware_choice_changes_mid_run(self):
        """End-to-end regression: a mid-run calibration flip redirects jobs."""
        profiles = [get_device_profile("ibm_kyiv"), get_device_profile("ibm_brussels")]
        jobs = [_job(0, 100, arrival_time=0.0), _job(1, 100, arrival_time=5000.0)]
        env = QCloudSimEnv(
            SimulationConfig(num_jobs=2, policy="fidelity"), devices=profiles, jobs=jobs
        )

        def flip():
            kyiv = env.cloud.device("ibm_kyiv")
            kyiv.calibration = kyiv.calibration.scaled(
                readout=10.0, single_qubit=10.0, two_qubit=10.0
            )

        timeline(env, (2500.0, flip))
        records = env.run_until_complete()
        assert records[0].devices == ["ibm_kyiv"]
        assert records[1].devices == ["ibm_brussels"]


class TestDriftScenario:
    def test_drift_mutates_device_calibration_not_catalogue(self):
        profile = get_device_profile("ibm_kyiv")
        baseline_readout = profile.avg_readout_error
        scenario = Scenario(
            name="drift-test",
            drift=DriftSpec(interval=120.0, volatility=0.2, recalibration_period=None),
        )
        env = QCloudSimEnv(
            SimulationConfig(num_jobs=15, policy="fidelity"), scenario=scenario
        )
        env.run_until_complete()
        device = env.cloud.device("ibm_kyiv")
        assert env.scenario_engine.applied_events  # drift actually fired
        assert device.calibration is not profile.calibration
        assert device.avg_readout_error != pytest.approx(baseline_readout, rel=1e-12)
        # The shared catalogue profile is untouched.
        assert profile.avg_readout_error == baseline_readout
        assert get_device_profile("ibm_kyiv").avg_readout_error == baseline_readout

    def test_full_recalibration_restores_baseline(self):
        scenario = Scenario(
            name="recal-test",
            drift=DriftSpec(
                interval=100.0,
                volatility=0.3,
                recalibration_period=10_000.0,
                recalibration_strength=1.0,
            ),
        )
        env = QCloudSimEnv(SimulationConfig(num_jobs=5, policy="speed"), scenario=scenario)
        env.run_until_complete()
        engine = env.scenario_engine
        device = env.cloud.device("ibm_kyiv")
        baseline = engine._baselines["ibm_kyiv"]
        # Apply a manual full recalibration and compare against the baseline.
        engine._recalibrate("ibm_kyiv", strength=1.0)
        assert device.calibration.average_readout_error() == pytest.approx(
            baseline.scaled().average_readout_error(), rel=1e-12
        )

    def test_partial_recalibration_shrinks_deviation(self):
        scenario = Scenario(name="partial", drift=DriftSpec(interval=50.0, volatility=0.5,
                                                            recalibration_period=None))
        env = QCloudSimEnv(SimulationConfig(num_jobs=5, policy="speed"), scenario=scenario)
        env.run_until_complete()
        engine = env.scenario_engine
        state = engine._log_factors["ibm_kyiv"]
        before = {k: abs(v) for k, v in state.items()}
        assert any(v > 0 for v in before.values())
        engine._recalibrate("ibm_kyiv", strength=0.5)
        for category, magnitude in before.items():
            assert abs(state[category]) == pytest.approx(0.5 * magnitude, rel=1e-12)

    def test_scaled_clips_and_clamps(self):
        calibration = get_device_profile("ibm_kyiv").calibration
        blown_up = calibration.scaled(readout=1e6, single_qubit=1e6, two_qubit=1e6, t2=100.0)
        assert blown_up.average_readout_error() <= 0.5
        assert blown_up.average_single_qubit_error() <= 0.1
        for qubit in blown_up.qubits:
            assert qubit.t2_us <= 2.0 * qubit.t1_us
        assert math.isclose(
            calibration.scaled().average_readout_error(),
            calibration.average_readout_error(),
            rel_tol=1e-12,
        )
