"""Shared configuration for the benchmark harness.

Every benchmark runs a *scaled-down* version of the paper's experiment by
default so the whole harness completes in a couple of minutes.  Set
``REPRO_FULL=1`` to run the full-size experiments (1,000 jobs, 100,000 PPO
timesteps) — expect several minutes of wall-clock time.

Each benchmark prints the regenerated table/figure data to stdout (run pytest
with ``-s`` to see it) and stores the headline numbers in
``benchmark.extra_info`` so they appear in ``pytest-benchmark``'s JSON output.

The perf benchmarks also keep a ``BENCH_*.json`` artifact at the repository
root.  They rewrite it only when ``REPRO_BENCH_WRITE=1`` is set, so a plain
``pytest`` run leaves the tree clean; their assertions run either way and
gate the write.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.cloud.config import SimulationConfig

#: Opt-in for rewriting the ``BENCH_*.json`` artifacts.
WRITE_ARTIFACTS = os.environ.get("REPRO_BENCH_WRITE", "0") not in ("0", "", "false", "False")

#: Full-scale mode replicates the paper's exact experiment sizes.
FULL_SCALE = os.environ.get("REPRO_FULL", "0") not in ("0", "", "false", "False")

#: Number of case-study jobs (paper: 1,000).
CASE_STUDY_JOBS = 1000 if FULL_SCALE else 120
#: PPO training budget (paper: 100,000 timesteps).
TRAINING_TIMESTEPS = 100_000 if FULL_SCALE else 16_384
#: PPO rollout length used by the training benchmarks.
TRAINING_N_STEPS = 2048 if FULL_SCALE else 1024
#: Parallel rollout environments for the Fig. 5 / training-curve harness.
#: The vectorized stack (PR 2) makes rollout collection severalfold faster;
#: set ``REPRO_N_ENVS=1`` to reproduce the bit-exact serial training curve.
TRAINING_N_ENVS = int(os.environ.get("REPRO_N_ENVS", "8"))
#: Workload/calibration seed shared by all benchmarks.
BENCHMARK_SEED = 2025


def write_artifact(path: Path, payload: Dict[str, Any]) -> None:
    """Write a benchmark artifact as JSON when ``REPRO_BENCH_WRITE=1``.

    Call it after the benchmark's assertions, so a failing run never
    overwrites a good artifact.
    """
    if not WRITE_ARTIFACTS:
        print(f"not writing {path.name} (set REPRO_BENCH_WRITE=1 to write it)")
        return
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def case_study_config(**overrides) -> SimulationConfig:
    """The benchmark-harness simulation configuration (§7 parameters)."""
    params = dict(num_jobs=CASE_STUDY_JOBS, seed=BENCHMARK_SEED)
    params.update(overrides)
    return SimulationConfig(**params)


@pytest.fixture(scope="session")
def trained_rl_model():
    """PPO allocation policy shared by every benchmark that needs one."""
    from repro.rlenv.train import train_allocation_policy

    model, curve = train_allocation_policy(
        total_timesteps=TRAINING_TIMESTEPS,
        n_steps=TRAINING_N_STEPS,
        seed=0,
        n_envs=TRAINING_N_ENVS,
    )
    return model, curve
