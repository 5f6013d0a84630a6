"""Micro-benchmarks of the substrate layers.

Not a paper table/figure — these track the wall-clock cost of the building
blocks (the DES kernel, the policy planners and the NumPy policy network)
so simulator-scalability regressions are caught.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.des import Environment
from repro.gymapi.spaces import Box
from repro.rl.policies import ActorCriticPolicy
from repro.scheduling.registry import create_policy

from benchmarks.conftest import BENCHMARK_SEED


def test_des_event_throughput(benchmark):
    """Cost of scheduling and processing 10,000 chained timeout events."""

    def run():
        env = Environment()

        def clock(_event):
            if env.now < 10_000:
                env.timeout(1).callbacks.append(clock)

        env.start(clock)
        env.run()
        return env.now

    result = benchmark(run)
    assert result == 10_000


def test_experiment_runner_overhead(benchmark):
    """Engine overhead: a 3-cell serial spec vs three bare simulations."""
    from repro.engine import ExperimentRunner, ExperimentSpec

    spec = ExperimentSpec(
        base_config=SimulationConfig(num_jobs=10, seed=BENCHMARK_SEED),
        strategies=("speed", "fidelity", "fair"),
    )
    runner = ExperimentRunner()

    def run():
        return runner.run(spec)

    result = benchmark(run)
    assert len(result) == 3
    assert {r.cell.strategy for r in result} == {"speed", "fidelity", "fair"}


@pytest.mark.parametrize("policy_name", ["speed", "fidelity", "fair"])
def test_policy_planning_cost(benchmark, policy_name):
    """Cost of 1,000 planning decisions against a live five-device fleet."""
    config = SimulationConfig(num_jobs=1, seed=BENCHMARK_SEED)
    env = QCloudSimEnv(config)
    policy = create_policy(policy_name)
    jobs = [type("J", (), {"num_qubits": q})() for q in range(130, 251, 1)] * 9

    def run():
        count = 0
        for job in jobs:
            plan = policy.plan(job, env.cloud.devices)
            count += plan.num_devices
        return count

    total = benchmark(run)
    benchmark.extra_info["decisions"] = len(jobs)
    assert total >= len(jobs)


def test_policy_network_inference_cost(benchmark):
    """Cost of a batch-64 forward pass through the actor-critic MLP."""
    policy = ActorCriticPolicy(
        Box(0.0, np.inf, shape=(16,), dtype=np.float64),
        Box(0.0, 1.0, shape=(5,), dtype=np.float64),
        seed=0,
    )
    obs = np.random.default_rng(0).random((64, 16))

    def run():
        actions, values, log_probs = policy.forward(obs)
        return actions.shape

    shape = benchmark(run)
    assert shape == (64, 5)


def test_end_to_end_simulation_cost(benchmark):
    """Wall-clock cost of one complete 30-job simulation (speed policy)."""

    def run():
        env = QCloudSimEnv(SimulationConfig(num_jobs=30, seed=BENCHMARK_SEED))
        return len(env.run_until_complete())

    completed = benchmark(run)
    assert completed == 30
