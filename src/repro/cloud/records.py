"""Job life-cycle tracking (paper §3, ``JobRecordsManager``).

The records manager logs the key events of every job — ``arrival``,
``start``, ``finish`` and ``fidelity`` — and assembles one
:class:`JobRecord` per completed job.  The completed records are the raw
material from which Table 2 and Fig. 6 are computed
(:mod:`repro.metrics.aggregate`).

Multi-tenant serving (:mod:`repro.serve`) adds two event kinds: ``rejected``
(the admission controller shed the job before it entered the dispatch queue)
and ``preempted`` (a running job's sub-jobs were aborted to make room for a
higher-priority class).  Records carry the owning tenant so per-tenant SLO
accounting can slice the results.

Checkpointed execution adds two more: ``checkpoint`` (an aborted job saved
the shots its attempt completed) and ``resume`` (a requeued job restarted
with only its remaining shots).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.metrics.fidelity import FidelityBreakdown

__all__ = ["JobEvent", "JobRecord", "JobRecordsManager", "records_to_csv"]


def records_to_csv(records: Sequence["JobRecord"], path: str) -> None:
    """Write job records to a CSV file (columns from ``JobRecord.as_dict``).

    An empty record set (e.g. a run where admission control shed every job)
    writes a header-only CSV instead of raising, so downstream tooling
    always finds a well-formed file with the full schema.
    """
    records = list(records)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(JobRecord.CSV_FIELDS))
        writer.writeheader()
        for record in records:
            writer.writerow(record.as_dict())


@dataclass(frozen=True, slots=True)
class JobEvent:
    """A single logged event in a job's life cycle."""

    job_id: int
    event: str
    time: float
    detail: Optional[str] = None


@dataclass(slots=True)
class JobRecord:
    """Aggregated outcome of one completed job.

    ``start_time`` is the start of the attempt that completed; jobs requeued
    after outages or preemptions additionally carry ``first_start_time``
    (when their first attempt started) and a cumulative ``service_time`` so
    queueing and execution time stay separable across attempts.
    """

    #: Column order of :meth:`as_dict` (the per-job CSV schema).
    CSV_FIELDS = (
        "job_id",
        "num_qubits",
        "depth",
        "num_shots",
        "arrival_time",
        "start_time",
        "first_start_time",
        "finish_time",
        "wait_time",
        "service_time",
        "turnaround_time",
        "processing_time",
        "fidelity",
        "communication_time",
        "num_devices",
        "devices",
        "allocation",
        "retries",
        "resumed_shots",
        "tenant",
    )

    job_id: int
    num_qubits: int
    depth: int
    num_shots: int
    arrival_time: float
    start_time: float
    finish_time: float
    fidelity: float
    communication_time: float
    num_devices: int
    devices: List[str] = field(default_factory=list)
    allocation: List[int] = field(default_factory=list)
    processing_time: float = 0.0
    breakdowns: List[FidelityBreakdown] = field(default_factory=list)
    #: Times the job was requeued after a device outage killed its sub-jobs
    #: (or a higher-priority class preempted it — see :mod:`repro.serve`).
    retries: int = 0
    #: Owning tenant (``None`` outside multi-tenant serving runs).
    tenant: Optional[str] = None
    #: Start of the job's *first* execution attempt (``None`` means the job
    #: completed on its first attempt, i.e. it equals ``start_time``).
    first_start_time: Optional[float] = None
    #: Cumulative time spent in execution attempts (aborted attempts'
    #: elapsed time plus the completing attempt, communication included).
    #: ``None`` means single-attempt legacy accounting (finish - start).
    service_time: Optional[float] = None
    #: Shots carried over from checkpoints of aborted attempts (0 when the
    #: whole job executed in the completing attempt).
    resumed_shots: int = 0

    @property
    def effective_first_start(self) -> float:
        """Start of the first execution attempt (falls back to ``start_time``)."""
        return self.start_time if self.first_start_time is None else self.first_start_time

    @property
    def effective_service_time(self) -> float:
        """Cumulative execution time (falls back to ``finish - start``)."""
        if self.service_time is None:
            return self.finish_time - self.start_time
        return self.service_time

    @property
    def wait_time(self) -> float:
        """Cumulative time spent *not* executing (queueing, including requeues).

        For a single-attempt job this is exactly ``start - arrival``.  For a
        requeued job it is ``turnaround - service``: the first-attempt
        queueing delay plus every inter-attempt requeue wait — neither the
        aborted attempts' execution time (which the old ``start - arrival``
        silently included) nor zero post-requeue queueing (which it silently
        dropped when an earlier ``start`` won).
        """
        if self.retries == 0 or self.service_time is None:
            return self.effective_first_start - self.arrival_time
        return self.turnaround_time - self.service_time

    @property
    def turnaround_time(self) -> float:
        """Total time in the system (finish - arrival)."""
        return self.finish_time - self.arrival_time

    def as_dict(self) -> Dict[str, object]:
        """Flat representation for CSV export / analysis."""
        return {
            "job_id": self.job_id,
            "num_qubits": self.num_qubits,
            "depth": self.depth,
            "num_shots": self.num_shots,
            "arrival_time": self.arrival_time,
            "start_time": self.start_time,
            "first_start_time": self.effective_first_start,
            "finish_time": self.finish_time,
            "wait_time": self.wait_time,
            "service_time": self.effective_service_time,
            "turnaround_time": self.turnaround_time,
            "processing_time": self.processing_time,
            "fidelity": self.fidelity,
            "communication_time": self.communication_time,
            "num_devices": self.num_devices,
            "devices": "|".join(self.devices),
            "allocation": "|".join(str(a) for a in self.allocation),
            "retries": self.retries,
            "resumed_shots": self.resumed_shots,
            "tenant": self.tenant or "",
        }


class JobRecordsManager:
    """Tracks job events and completed-job records during a simulation."""

    #: Whether :meth:`log_event` stores the ``detail`` string.  Managers
    #: that only count events (the streaming manager) set this to ``False``
    #: so hot paths can skip formatting strings nobody will read.
    KEEPS_EVENT_DETAIL = True

    #: Event names logged by the framework.
    EVENTS = (
        "arrival",
        "start",
        "finish",
        "fidelity",
        "failed",
        "requeue",
        "rejected",
        "preempted",
        "checkpoint",
        "resume",
    )

    def __init__(self) -> None:
        self._events: List[JobEvent] = []
        #: Per-job event index so :meth:`events_for` is O(own events).
        self._events_by_job: Dict[int, List[JobEvent]] = {}
        self._records: Dict[int, JobRecord] = {}
        #: Completed records in completion order (append-only).
        self._completed: List[JobRecord] = []
        #: Job-id-sorted view, rebuilt lazily after new completions.
        self._sorted_records: Optional[List[JobRecord]] = None

    # -- event logging -------------------------------------------------------
    def log_event(self, job_id: int, event: str, time: float, detail: Optional[str] = None) -> None:
        """Append a raw life-cycle event."""
        if event not in self.EVENTS:
            raise ValueError(f"unknown event {event!r}; expected one of {self.EVENTS}")
        entry = JobEvent(job_id=job_id, event=event, time=time, detail=detail)
        self._events.append(entry)
        bucket = self._events_by_job.get(job_id)
        if bucket is None:
            self._events_by_job[job_id] = [entry]
        else:
            bucket.append(entry)

    def log_arrival(self, job_id: int, time: float) -> None:
        """Record a job arriving at the cloud portal."""
        self.log_event(job_id, "arrival", time)

    def log_arrival_block(self, job_ids: Sequence[int], start: int, stop: int, time: float) -> None:
        """Record the arrival of rows ``start..stop`` of *job_ids* at *time*.

        Equivalent to calling :meth:`log_arrival` per row; managers that
        only count events override this with an O(1) bump (the fast-path
        dispatcher feeds arrivals in same-timestamp blocks).
        """
        for row in range(start, stop):
            self.log_event(int(job_ids[row]), "arrival", time)

    def log_failure(self, job_id: int, time: float, reason: str) -> None:
        """Record a job failing."""
        self.log_event(job_id, "failed", time, detail=reason)

    def log_requeue(self, job_id: int, time: float, detail: Optional[str] = None) -> None:
        """Record a job being requeued after an outage killed its sub-jobs."""
        self.log_event(job_id, "requeue", time, detail)

    def log_rejection(self, job_id: int, time: float, reason: str) -> None:
        """Record a job shed by the admission controller (multi-tenant serving)."""
        self.log_event(job_id, "rejected", time, detail=reason)

    def log_preemption(self, job_id: int, time: float, detail: Optional[str] = None) -> None:
        """Record a running job preempted in favour of a higher priority class."""
        self.log_event(job_id, "preempted", time, detail)

    def log_checkpoint(self, job_id: int, time: float, detail: Optional[str] = None) -> None:
        """Record an aborted job checkpointing the shots it completed."""
        self.log_event(job_id, "checkpoint", time, detail)

    def log_resume(self, job_id: int, time: float, detail: Optional[str] = None) -> None:
        """Record a checkpointed job resuming with only its remaining shots."""
        self.log_event(job_id, "resume", time, detail)

    def add_record(self, record: JobRecord) -> None:
        """Store the aggregated record of a completed job."""
        if record.job_id in self._records:
            raise ValueError(f"duplicate record for job {record.job_id}")
        self._records[record.job_id] = record
        self._completed.append(record)
        self._sorted_records = None

    # -- queries ---------------------------------------------------------------
    @property
    def events(self) -> List[JobEvent]:
        """All logged events in insertion order."""
        return list(self._events)

    def events_for(self, job_id: int) -> List[JobEvent]:
        """All events of one job (O(own events) via the per-job index)."""
        return list(self._events_by_job.get(job_id, ()))

    @property
    def completed_records(self) -> List[JobRecord]:
        """Records of all completed jobs, ordered by job id.

        The sorted view is cached between completions, so repeated reads
        (summaries, CSV export, SLO accounting) cost one list copy instead
        of a fresh O(n log n) sort each.
        """
        if self._sorted_records is None:
            self._sorted_records = sorted(self._completed, key=lambda r: r.job_id)
        return list(self._sorted_records)

    def record_for(self, job_id: int) -> Optional[JobRecord]:
        """Record of one job (or ``None`` if not completed)."""
        return self._records.get(job_id)

    def __len__(self) -> int:
        return len(self._records)
