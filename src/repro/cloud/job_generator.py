"""Job sources (paper §3, ``JobGenerator``).

The generator produces :class:`~repro.cloud.qjob.QJob` objects and submits
them to the broker at their arrival times.  Three dispatching mechanisms are
supported, mirroring Fig. 4:

* **synthetic** — randomized jobs drawn from configurable ranges (the §7 case
  study uses 1,000 jobs with 130-250 qubits, depth 5-20 and 10k-100k shots),
  arriving either all at once ("batch") or as a Poisson process,
* **deterministic** — an explicit list of pre-built jobs,
* **file-based** — jobs loaded from CSV or JSON via :mod:`repro.cloud.io`.
"""

from __future__ import annotations

import math
from typing import Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.generators import random_circuit_spec
from repro.cloud.broker import Broker
from repro.cloud.qjob import QJob
from repro.des.environment import Environment
from repro.des.events import NORMAL, Event, Process

__all__ = ["JobGenerator", "check_arrival", "generate_synthetic_jobs"]


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


class JobGenerator:
    """Feeds jobs into the broker at their arrival times.

    Parameters
    ----------
    env:
        Simulation environment.
    broker:
        The broker jobs are submitted to.
    jobs:
        Pre-built jobs (deterministic mode).  Jobs are submitted in
        arrival-time order; jobs sharing an arrival time are submitted in
        priority order (smaller = more important, ties by job id), so the
        broker's FIFO admission honours job priority within a batch.  Jobs
        without an arrival time arrive immediately.  Arrivals are logged
        to the broker's records manager.
    """

    def __init__(self, env: Environment, broker: Broker, jobs: Sequence[QJob]) -> None:
        self.env = env
        self.broker = broker
        self.jobs: List[QJob] = sorted(
            jobs, key=lambda j: (j.arrival_time, j.priority, j.job_id)
        )
        #: The dispatch process (started by :meth:`start`).
        self.process: Optional[Process] = None

    @classmethod
    def synthetic(
        cls,
        env: Environment,
        broker: Broker,
        num_jobs: int,
        seed: Optional[int] = None,
        **kwargs: object,
    ) -> "JobGenerator":
        """Create a generator with a synthetic workload (see :func:`generate_synthetic_jobs`)."""
        jobs = generate_synthetic_jobs(num_jobs, seed=seed, **kwargs)  # type: ignore[arg-type]
        return cls(env, broker, jobs)

    def start(self) -> Process:
        """Start dispatching jobs; returns the dispatch process."""
        if self.process is not None:
            raise RuntimeError("JobGenerator already started")
        self.process = self.env.process(self._dispatch())
        return self.process

    def _arrival_batches(self) -> List[Tuple[float, List[QJob]]]:
        """Jobs grouped by distinct arrival time (jobs are already sorted)."""
        batches: List[Tuple[float, List[QJob]]] = []
        for job in self.jobs:
            if batches and batches[-1][0] == job.arrival_time:
                batches[-1][1].append(job)
            else:
                batches.append((job.arrival_time, [job]))
        return batches

    def _dispatch(self) -> Generator[object, object, int]:
        """DES process releasing each job at its arrival time.

        Jobs sharing an arrival time are released as one batch, and all
        future arrival markers are bulk-scheduled up front through
        :meth:`~repro.des.environment.Environment.schedule_batch` — one heap
        build instead of one ``timeout`` round-trip per job.
        """
        env = self.env
        batches = self._arrival_batches()

        markers: List[Optional[Event]] = []
        pending: List[Tuple[float, int, Event]] = []
        for time, _ in batches:
            if time > env.now:
                marker = Event(env)
                marker._ok = True
                marker._value = None
                pending.append((time, NORMAL, marker))
                markers.append(marker)
            else:
                markers.append(None)
        if pending:
            env.schedule_batch(pending)

        log_arrival = self.broker.records.log_arrival
        submit = self.broker.submit
        handle = self.broker._handle_job
        for (time, batch), marker in zip(batches, markers):
            if marker is not None:
                yield marker
            now = env.now
            for job in batch:
                log_arrival(job.job_id, now)
                if submit(job):
                    env.process(handle(job))
        return len(self.jobs)

    def __len__(self) -> int:
        return len(self.jobs)
