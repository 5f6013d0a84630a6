"""One workload from a weighted set of parts (tenants, regions).

A tenant mix and a region topology both describe their demand the same way:
a list of parts, each with a weight, sharing one job count.  This module is
the one place that turns such a list into jobs:

* :func:`apportion` — split a job count over the weights (largest
  remainder),
* :func:`split_workload` — generate each part's jobs, offset their ids,
  merge them in arrival order and renumber, reporting which part every job
  came from,
* :func:`draw_parts` — attribute an *existing* workload to parts by one
  seeded weighted draw per job,
* :func:`config_jobs` — the jobs a :class:`~repro.cloud.config.SimulationConfig`
  describes, optionally shaped by a
  :class:`~repro.dynamics.scenario.TrafficSpec` and range overrides.

What a part *means* (a tenant tag, an origin region) stays with the caller:
:mod:`repro.serve.workload` and :mod:`repro.region.cloud`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

# The generators are called through their modules, so a replacement bound on
# the module (a tracer's timing wrapper, a test double) is the one that runs.
from repro.cloud import job_generator
from repro.cloud.qjob import QJob
from repro.workloads import arrivals

__all__ = ["apportion", "config_jobs", "draw_parts", "split_workload"]


def apportion(weights: Sequence[float], num_jobs: int) -> List[int]:
    """Split *num_jobs* over *weights* (largest remainder).

    Deterministic: quotas ``num_jobs * w / sum(weights)`` are floored, then
    leftover jobs go to the largest fractional remainders (ties broken by
    position).
    """
    if num_jobs <= 0:
        raise ValueError("num_jobs must be positive")
    total = sum(weights)
    quotas = [num_jobs * w / total for w in weights]
    counts = [int(q) for q in quotas]
    remainders = [q - c for q, c in zip(quotas, counts)]
    leftover = num_jobs - sum(counts)
    for index in sorted(range(len(counts)), key=lambda i: (-remainders[i], i))[:leftover]:
        counts[index] += 1
    return counts


def split_workload(
    weights: Sequence[float],
    num_jobs: int,
    generate: Callable[[int, int], List[QJob]],
) -> Tuple[List[QJob], List[int]]:
    """Merge the parts' workloads into one arrival-ordered job list.

    Every part *i* gets its :func:`apportion`\\ ed count *n* of *num_jobs*
    and contributes ``generate(i, n)`` (jobs numbered ``0..n-1``); parts
    with no jobs are skipped.  The merged list is ordered by arrival time,
    ties by part then by the part's own job order, and renumbered from 0.
    Returns the jobs and, per job, the index of the part it came from.
    """
    merged: List[QJob] = []
    for index, count in enumerate(apportion(weights, num_jobs)):
        if count == 0:
            continue
        # Offset ids per part so the pre-renumber sort key is unique.
        offset = index * num_jobs
        for job in generate(index, count):
            job.job_id += offset
            merged.append(job)
    merged.sort(key=lambda j: (j.arrival_time, j.job_id))
    parts = [job.job_id // num_jobs for job in merged]
    for new_id, job in enumerate(merged):
        job.job_id = new_id
    return merged, parts


def draw_parts(weights: Sequence[float], count: int, seed: int) -> List[int]:
    """One part index per job, drawn with probability proportional to weight.

    A single part takes every job without drawing from the RNG.
    """
    if len(weights) == 1:
        return [0] * count
    p = np.array(weights, dtype=np.float64)
    p /= p.sum()
    return np.random.default_rng(seed).choice(len(p), size=count, p=p).tolist()


def config_jobs(
    config,
    num_jobs: int,
    seed: Optional[int],
    traffic=None,
    qubit_range: Optional[Tuple[int, int]] = None,
    depth_range: Optional[Tuple[int, int]] = None,
    shots_range: Optional[Tuple[int, int]] = None,
) -> List[QJob]:
    """The workload *config* describes, *num_jobs* long, drawn from *seed*.

    With a *traffic* spec the arrivals and sizes follow it
    (:func:`~repro.workloads.arrivals.generate_traffic_jobs`); otherwise the
    config's own arrival process applies
    (:func:`~repro.cloud.job_generator.generate_synthetic_jobs`).  A range
    override replaces the config's range when given.
    """
    ranges = dict(
        qubit_range=qubit_range or config.qubit_range,
        depth_range=depth_range or config.depth_range,
        shots_range=shots_range or config.shots_range,
        two_qubit_density=config.two_qubit_density,
    )
    if traffic is not None:
        return arrivals.generate_traffic_jobs(traffic, num_jobs=num_jobs, seed=seed, **ranges)
    return job_generator.generate_synthetic_jobs(
        num_jobs=num_jobs,
        seed=seed,
        arrival=config.arrival,
        arrival_rate=config.arrival_rate,
        **ranges,
    )
