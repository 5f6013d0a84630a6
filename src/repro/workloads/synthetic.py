"""Synthetic workload builders.

These functions assemble lists of :class:`~repro.cloud.qjob.QJob` for the
scenarios exercised by the examples and the benchmark harness.  All of them
are deterministic given a seed.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.circuits.generators import ghz_spec, qaoa_spec, random_circuit_spec
from repro.cloud.qjob import QJob

__all__ = ["ghz_sweep_jobs", "qaoa_portfolio_jobs", "mixed_tenant_jobs"]


def ghz_sweep_jobs(
    widths: Optional[List[int]] = None,
    num_shots: int = 20_000,
    arrival_spacing: float = 0.0,
) -> List[QJob]:
    """GHZ-state preparation circuits of increasing width.

    The default widths (130-250 qubits) all exceed a single 127-qubit device,
    so every job must be distributed — the scenario motivating the paper's
    introduction (Vazquez et al.'s two-QPU GHZ-style experiments).
    """
    if widths is None:
        widths = list(range(130, 251, 10))
    jobs: List[QJob] = []
    for i, width in enumerate(widths):
        circuit = ghz_spec(width, num_shots=num_shots)
        jobs.append(QJob(job_id=i, circuit=circuit, arrival_time=i * arrival_spacing))
    return jobs


def qaoa_portfolio_jobs(
    num_assets_list: Optional[List[int]] = None,
    num_layers: int = 3,
    num_shots: int = 50_000,
    seed: int = 7,
    arrival_spacing: float = 0.0,
) -> List[QJob]:
    """QAOA portfolio-optimisation-style circuits (one qubit per asset).

    Mirrors the financial-analytics use case cited in the paper's
    introduction: each job encodes a portfolio-selection QUBO over
    ``num_assets`` assets.
    """
    if num_assets_list is None:
        num_assets_list = [135, 150, 170, 190, 210, 230]
    rng = np.random.default_rng(seed)
    jobs: List[QJob] = []
    for i, num_assets in enumerate(num_assets_list):
        circuit = qaoa_spec(
            num_assets, num_layers=num_layers, edge_density=0.08, num_shots=num_shots, rng=rng
        )
        jobs.append(QJob(job_id=i, circuit=circuit, arrival_time=i * arrival_spacing))
    return jobs


def mixed_tenant_jobs(
    num_jobs: int = 60,
    seed: int = 11,
    arrival_rate: float = 0.005,
) -> List[QJob]:
    """A mixed multi-tenant trace with Poisson arrivals.

    One third GHZ-style, one third QAOA-style, one third random large
    circuits — all wide enough to require distribution across devices.
    """
    if num_jobs <= 0:
        raise ValueError("num_jobs must be positive")
    rng = np.random.default_rng(seed)
    jobs: List[QJob] = []
    time = 0.0
    for job_id in range(num_jobs):
        kind = job_id % 3
        if kind == 0:
            width = int(rng.integers(130, 251))
            circuit = ghz_spec(width, num_shots=int(rng.integers(10_000, 50_000)))
        elif kind == 1:
            width = int(rng.integers(130, 221))
            circuit = qaoa_spec(width, num_layers=int(rng.integers(2, 5)), edge_density=0.08, rng=rng)
        else:
            circuit = random_circuit_spec(rng, qubit_range=(130, 250), name=f"tenant_{job_id}")
        if job_id > 0:
            time += float(rng.exponential(1.0 / arrival_rate))
        jobs.append(QJob(job_id=job_id, circuit=circuit, arrival_time=time))
    return jobs
