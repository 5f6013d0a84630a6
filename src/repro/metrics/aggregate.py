"""Aggregation of simulation results into the paper's reported metrics.

Table 2 of the paper reports, per allocation strategy:

* total simulation time ``T_sim`` (wall-clock of the simulated schedule, i.e.
  the makespan until all jobs complete),
* average fidelity ``mu_F ± sigma_F`` over all jobs,
* total communication time ``T_comm`` summed over all jobs.

This module computes them from a sequence of completed job records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence

import numpy as np

__all__ = ["StrategySummary", "summarize_records", "empty_summary"]


def _get(record: Any, name: str) -> Any:
    """Fetch a field from either an object attribute or a mapping key."""
    if isinstance(record, dict):
        return record[name]
    return getattr(record, name)


def _get_wait(record: Any) -> float:
    """Per-job waiting time: the record's ``wait_time`` when it has one.

    Retried jobs' ``wait_time`` is cumulative time *not* executing, which
    differs from the naive ``start - arrival`` (that silently includes
    aborted attempts' execution time); minimal records without the field
    fall back to the legacy expression.
    """
    try:
        return float(_get(record, "wait_time"))
    except (AttributeError, KeyError):
        return float(_get(record, "start_time")) - float(_get(record, "arrival_time"))


@dataclass(frozen=True)
class StrategySummary:
    """One row of Table 2."""

    #: Name of the allocation strategy ("speed", "fidelity", "fair", "rlbase", ...).
    strategy: str
    #: Number of completed jobs aggregated.
    num_jobs: int
    #: Total simulated time until the last job completed (seconds).
    total_simulation_time: float
    #: Mean final fidelity over all jobs.
    mean_fidelity: float
    #: Standard deviation of the final fidelity.
    std_fidelity: float
    #: Total inter-device communication time summed over all jobs (seconds).
    total_communication_time: float
    #: Mean number of devices used per job.
    mean_devices_per_job: float
    #: Mean per-job turnaround (finish - arrival) in seconds.
    mean_turnaround_time: float
    #: Mean per-job waiting time (cumulative time not executing) in seconds.
    mean_wait_time: float

    def as_row(self) -> Dict[str, float]:
        """Table-friendly dictionary (column name -> value)."""
        return {
            "strategy": self.strategy,
            "num_jobs": self.num_jobs,
            "T_sim_s": self.total_simulation_time,
            "mean_fidelity": self.mean_fidelity,
            "std_fidelity": self.std_fidelity,
            "T_comm_s": self.total_communication_time,
            "mean_devices_per_job": self.mean_devices_per_job,
            "mean_turnaround_s": self.mean_turnaround_time,
            "mean_wait_s": self.mean_wait_time,
        }


def summarize_records(records: Sequence[Any], strategy: str = "") -> StrategySummary:
    """Aggregate completed job records into a :class:`StrategySummary`.

    Each record must expose (attribute or key): ``fidelity``, ``arrival_time``,
    ``start_time``, ``finish_time``, ``communication_time`` and
    ``num_devices``.
    """
    records = list(records)
    if not records:
        raise ValueError("cannot summarize an empty record list")

    fidelities = np.array([float(_get(r, "fidelity")) for r in records])
    arrivals = np.array([float(_get(r, "arrival_time")) for r in records])
    finishes = np.array([float(_get(r, "finish_time")) for r in records])
    comms = np.array([float(_get(r, "communication_time")) for r in records])
    devices = np.array([float(_get(r, "num_devices")) for r in records])

    return StrategySummary(
        strategy=strategy,
        num_jobs=len(records),
        total_simulation_time=float(finishes.max()),
        mean_fidelity=float(fidelities.mean()),
        std_fidelity=float(fidelities.std()),
        total_communication_time=float(comms.sum()),
        mean_devices_per_job=float(devices.mean()),
        mean_turnaround_time=float((finishes - arrivals).mean()),
        mean_wait_time=float(np.mean([_get_wait(r) for r in records])),
    )


def empty_summary(strategy: str = "") -> StrategySummary:
    """The summary of a run that completed zero jobs.

    Totals are zero and per-job means are NaN (there are no jobs to average
    over).  Lets zero-completion cells — e.g. every job shed by admission
    control or failed as infeasible — flow through the experiment engine and
    CLI instead of raising (:func:`summarize_records` still rejects an empty
    list, since callers passing one usually have a bug).
    """
    nan = float("nan")
    return StrategySummary(
        strategy=strategy,
        num_jobs=0,
        total_simulation_time=0.0,
        mean_fidelity=nan,
        std_fidelity=nan,
        total_communication_time=0.0,
        mean_devices_per_job=nan,
        mean_turnaround_time=nan,
        mean_wait_time=nan,
    )
