"""Job sources (paper §3, ``JobGenerator``).

A workload is a list of :class:`~repro.cloud.qjob.QJob` objects, which the
dispatch engine (:class:`~repro.cloud.fastpath.FlatDispatcher`) submits to
the broker at their arrival times.  Three sources are supported, mirroring
Fig. 4:

* **synthetic** — randomized jobs drawn from configurable ranges (the §7 case
  study uses 1,000 jobs with 130-250 qubits, depth 5-20 and 10k-100k shots),
  arriving either all at once ("batch") or as a Poisson process
  (:func:`generate_synthetic_jobs`),
* **deterministic** — an explicit list of pre-built jobs,
* **file-based** — jobs loaded from CSV or JSON via :mod:`repro.cloud.io`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.circuits.generators import random_circuit_spec
from repro.cloud.qjob import QJob

__all__ = ["check_arrival", "generate_synthetic_jobs"]


def check_arrival(arrival: str, arrival_rate: float) -> None:
    """Raise ``ValueError`` unless *arrival* is ``"batch"`` or ``"poisson"``
    and a Poisson rate is positive and finite."""
    if arrival not in ("batch", "poisson"):
        raise ValueError(f"arrival must be 'batch' or 'poisson', got {arrival!r}")
    if arrival == "poisson" and not 0 < arrival_rate < math.inf:
        raise ValueError(
            f"arrival_rate must be positive and finite for poisson arrivals, got {arrival_rate}"
        )


def generate_synthetic_jobs(
    num_jobs: int,
    seed: Optional[int] = None,
    qubit_range: Tuple[int, int] = (130, 250),
    depth_range: Tuple[int, int] = (5, 20),
    shots_range: Tuple[int, int] = (10_000, 100_000),
    two_qubit_density: float = 0.30,
    arrival: str = "batch",
    arrival_rate: float = 0.01,
    start_time: float = 0.0,
) -> List[QJob]:
    """Generate the synthetic workload of the paper's case study (§7).

    Parameters
    ----------
    num_jobs:
        Number of jobs (1,000 in the paper).
    qubit_range, depth_range, shots_range:
        Inclusive uniform ranges (§7 defaults).
    two_qubit_density:
        Fraction of qubit-layer slots holding a two-qubit gate.
    arrival:
        ``"batch"`` — all jobs arrive at *start_time*; ``"poisson"`` —
        exponential inter-arrival times with rate *arrival_rate* (jobs/s).
    seed:
        Seed for reproducibility.
    """
    if num_jobs <= 0:
        raise ValueError("num_jobs must be positive")
    check_arrival(arrival, arrival_rate)

    rng = np.random.default_rng(seed)
    jobs: List[QJob] = []
    time = float(start_time)
    for job_id in range(num_jobs):
        circuit = random_circuit_spec(
            rng,
            qubit_range=qubit_range,
            depth_range=depth_range,
            shots_range=shots_range,
            two_qubit_density=two_qubit_density,
            name=f"synthetic_{job_id}",
        )
        if arrival == "poisson" and job_id > 0:
            time += float(rng.exponential(1.0 / arrival_rate))
        jobs.append(QJob(job_id=job_id, circuit=circuit, arrival_time=time))
    return jobs
