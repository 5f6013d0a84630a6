"""System-level invariants checked over full simulation runs.

These complement the per-module property tests: whatever the policy, a
completed simulation must conserve qubits, respect capacities, keep the
timeline consistent and produce fidelities that satisfy Eqs. (4)-(8).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.region  # noqa: F401 - registers the region scenario presets
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.dynamics import available_scenarios
from repro.metrics.fidelity import final_fidelity
from repro.scheduling.registry import create_policy
from repro.serve import available_tenant_mixes

POLICIES = ("speed", "fidelity", "fair", "even_split", "random", "round_robin")


@pytest.mark.parametrize("policy", POLICIES)
def test_invariants_hold_for_every_policy(policy):
    cfg = SimulationConfig(num_jobs=15, seed=17, policy=policy)
    env = QCloudSimEnv(cfg)
    records = env.run_until_complete()
    assert len(records) == 15

    for record in records:
        # Allocation covers the demand without exceeding device capacity.
        assert sum(record.allocation) == record.num_qubits
        assert all(0 < a <= cfg.device_qubits for a in record.allocation)
        assert record.num_devices == len(record.allocation) == len(record.devices)
        # Timeline consistency.
        assert record.arrival_time <= record.start_time <= record.finish_time
        assert record.finish_time >= record.start_time + record.processing_time - 1e-9
        # Fidelity is a probability and matches the analytic recombination.
        assert 0.0 < record.fidelity <= 1.0
        expected = final_fidelity(
            [b.device for b in record.breakdowns], phi=cfg.comm_fidelity_penalty
        )
        assert record.fidelity == pytest.approx(expected)
        # Communication time follows Eq. (9) with per-link accounting.
        expected_comm = (record.num_devices - 1) * record.num_qubits * cfg.comm_latency_per_qubit
        assert record.communication_time == pytest.approx(expected_comm)

    # All qubits returned to the pools at the end.
    assert env.cloud.free_qubits == env.cloud.total_qubits


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_jobs=st.integers(min_value=1, max_value=12),
    policy=st.sampled_from(["speed", "fidelity", "fair"]),
    latency=st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
    phi=st.floats(min_value=0.8, max_value=1.0, allow_nan=False),
)
def test_random_configurations_complete_and_conserve_qubits(seed, num_jobs, policy, latency, phi):
    cfg = SimulationConfig(
        num_jobs=num_jobs,
        seed=seed,
        policy=policy,
        comm_latency_per_qubit=latency,
        comm_fidelity_penalty=phi,
    )
    env = QCloudSimEnv(cfg)
    records = env.run_until_complete()
    assert len(records) == num_jobs
    assert env.cloud.free_qubits == env.cloud.total_qubits
    assert all(0.0 < r.fidelity <= 1.0 for r in records)
    assert all(sum(r.allocation) == r.num_qubits for r in records)


def test_workload_independent_of_policy_object_reuse():
    """Reusing one policy instance across runs must not leak state."""
    policy = create_policy("speed")
    results = []
    for _ in range(2):
        cfg = SimulationConfig(num_jobs=10, seed=5)
        env = QCloudSimEnv(cfg, policy=policy)
        env.run_until_complete()
        results.append(env.summary().mean_fidelity)
    assert results[0] == pytest.approx(results[1])


# ---------------------------------------------------------------------------
# The config lattice: every scenario x tenant mix x adaptive policy x
# checkpointing combination runs and keeps the conservation invariants.
# ---------------------------------------------------------------------------
LATTICE_SCENARIOS = (None, *available_scenarios())
LATTICE_TENANTS = (None, *available_tenant_mixes())
LATTICE_ADAPTIVE = (None, "reactive", "predictive")


@pytest.mark.parametrize("checkpointing", (False, True), ids=("plain", "ckpt"))
@pytest.mark.parametrize("adaptive", LATTICE_ADAPTIVE, ids=str)
@pytest.mark.parametrize("tenants", LATTICE_TENANTS, ids=str)
@pytest.mark.parametrize("scenario", LATTICE_SCENARIOS, ids=str)
def test_config_lattice_conserves_jobs_and_qubits(scenario, tenants, adaptive, checkpointing):
    cfg = SimulationConfig(
        num_jobs=8,
        seed=3,
        scenario=scenario,
        tenants=tenants,
        adaptive=adaptive,
        checkpointing=checkpointing,
    )
    env = QCloudSimEnv(cfg)
    records = env.run_until_complete()

    # Each submitted job ends exactly once: completed, failed or rejected.
    submitted = [e.job_id for e in env.records.events if e.event == "arrival"]
    completed = [r.job_id for r in records]
    failed = [job.job_id for job in env.broker.failed_jobs]
    rejected = [job.job_id for job in getattr(env.broker, "rejected_jobs", ())]
    ended = completed + failed + rejected
    assert len(set(submitted)) == len(submitted) == len(env.job_generator)
    assert sorted(ended) == sorted(submitted)

    # Every qubit is released.
    assert env.cloud.free_qubits == env.cloud.total_qubits

    # Wait + service = turnaround, record by record.  A requeued job's wait
    # is derived as turnaround - service, so the sum can differ from the
    # turnaround in the last bit.
    for record in records:
        assert record.wait_time + record.effective_service_time == pytest.approx(
            record.turnaround_time, rel=1e-12, abs=1e-9
        )

    # A seeded run replays bit for bit.
    again = QCloudSimEnv(cfg).run_until_complete()
    assert [r.as_dict() for r in again] == [r.as_dict() for r in records]
