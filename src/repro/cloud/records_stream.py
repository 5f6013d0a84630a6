"""Constant-memory record keeping for million-job runs.

The default :class:`~repro.cloud.records.JobRecordsManager` keeps every
:class:`~repro.cloud.records.JobEvent` and :class:`~repro.cloud.records.JobRecord`
in RAM — the right default for thousand-job experiments, where tests and
analysis want the full streams, but linear memory at a million jobs.

:class:`StreamingRecordsManager` is the opt-in O(1)-memory alternative: it
exposes the exact same logging interface the broker drives, but folds every
completion into streaming aggregates (counts, running means, P² percentile
sketches — :mod:`repro.metrics.quantiles`) instead of storing it, and can
additionally append each record to a chunked JSONL file so nothing is lost
when a post-hoc analysis does want per-job data.

The exact in-memory path stays the default everywhere; this manager is
selected explicitly: ``QCloudSimEnv(records=StreamingRecordsManager(...))``
(or ``RegionalCloud(records=...)`` for a merged multi-region stream),
``repro serve --stream`` and the scale benchmark
(``benchmarks/test_scale_bench.py``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.cloud.records import JobEvent, JobRecord, JobRecordsManager
from repro.metrics.quantiles import P2Quantile

__all__ = ["JsonlRecordWriter", "StreamingRecordsManager"]


class JsonlRecordWriter:
    """Chunked JSONL exporter: buffers record rows, flushes every *chunk_size*.

    One JSON object per line (the :meth:`JobRecord.as_dict` schema), so the
    output streams into pandas / ``jq`` without ever holding the full run in
    memory on either side.  Usable as a context manager.
    """

    def __init__(self, path: str, chunk_size: int = 1000) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.path = str(path)
        self.chunk_size = int(chunk_size)
        self.rows_written = 0
        self._buffer: List[str] = []
        self._fh = open(self.path, "w")

    def write(self, record: JobRecord) -> None:
        """Buffer one record, flushing when the chunk fills."""
        self._buffer.append(json.dumps(record.as_dict()))
        if len(self._buffer) >= self.chunk_size:
            self.flush()

    def flush(self) -> None:
        """Write any buffered rows to disk."""
        if self._buffer:
            self._fh.write("\n".join(self._buffer) + "\n")
            self.rows_written += len(self._buffer)
            self._buffer.clear()

    def close(self) -> None:
        """Flush and close the underlying file."""
        if not self._fh.closed:
            self.flush()
            self._fh.close()

    def __enter__(self) -> "JsonlRecordWriter":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


#: Percentiles tracked by every latency sketch.
_TRACKED = (0.5, 0.95, 0.99)


def _sketch_set() -> Dict[float, P2Quantile]:
    return {p: P2Quantile(p) for p in _TRACKED}


class StreamingRecordsManager(JobRecordsManager):
    """Drop-in records manager that aggregates instead of storing.

    Parameters
    ----------
    export_path:
        Optional JSONL path; every completed record is appended through a
        :class:`JsonlRecordWriter` (call :meth:`close` — or use the manager
        as a context manager — to flush the final chunk).
    chunk_size:
        Rows buffered between JSONL flushes.

    Memory is O(tenants + event kinds): per-kind event counters, a global
    and per-tenant latency sketch set, and running fidelity/shape sums.
    ``completed_records`` and ``events`` are intentionally empty — callers
    that need them want the exact default manager.
    """

    #: Event details are discarded (only counts are kept) — loggers may
    #: skip building them.
    KEEPS_EVENT_DETAIL = False

    def __init__(self, export_path: Optional[str] = None, chunk_size: int = 1000) -> None:
        super().__init__()
        self.completed = 0
        #: Per-event-kind counters (e.g. ``{"arrival": 100, "finish": 98}``).
        self.event_counts: Dict[str, int] = {}
        self._event_set = frozenset(self.EVENTS)
        self._fidelity_sum = 0.0
        self._wait = _sketch_set()
        self._turnaround = _sketch_set()
        #: Bound ``add`` methods of the global sketches — ``add_record`` runs
        #: once per completed job, so skip the dict iteration there.
        self._wait_adds = tuple(s.add for s in self._wait.values())
        self._turnaround_adds = tuple(s.add for s in self._turnaround.values())
        self._tenant_wait: Dict[str, Dict[float, P2Quantile]] = {}
        self._tenant_turnaround: Dict[str, Dict[float, P2Quantile]] = {}
        self._writer = (
            JsonlRecordWriter(export_path, chunk_size=chunk_size) if export_path else None
        )

    # -- logging (same validation, no storage) ------------------------------
    def log_event(self, job_id: int, event: str, time: float, detail: Optional[str] = None) -> None:
        if event not in self._event_set:
            raise ValueError(f"unknown event {event!r}; expected one of {self.EVENTS}")
        counts = self.event_counts
        counts[event] = counts.get(event, 0) + 1

    def log_arrival_block(self, job_ids, start: int, stop: int, time: float) -> None:
        counts = self.event_counts
        counts["arrival"] = counts.get("arrival", 0) + (stop - start)

    def add_record(self, record: JobRecord) -> None:
        self.completed += 1
        self._fidelity_sum += record.fidelity
        # Inline ``record.wait_time`` / ``record.turnaround_time`` (same
        # arithmetic as the properties): this runs once per completed job
        # and the property chain costs more than the sketch updates at a
        # million jobs.
        arrival = record.arrival_time
        turnaround = record.finish_time - arrival
        service = record.service_time
        if record.retries == 0 or service is None:
            first = record.first_start_time
            wait = (record.start_time if first is None else first) - arrival
        else:
            wait = turnaround - service
        for add in self._wait_adds:
            add(wait)
        for add in self._turnaround_adds:
            add(turnaround)
        if record.tenant is not None:
            tw = self._tenant_wait.get(record.tenant)
            if tw is None:
                tw = self._tenant_wait[record.tenant] = _sketch_set()
                self._tenant_turnaround[record.tenant] = _sketch_set()
            for sketch in tw.values():
                sketch.add(wait)
            for sketch in self._tenant_turnaround[record.tenant].values():
                sketch.add(turnaround)
        if self._writer is not None:
            self._writer.write(record)

    # -- queries -------------------------------------------------------------
    @property
    def events(self) -> List[JobEvent]:
        """Always empty: events are counted, not stored."""
        return []

    def events_for(self, job_id: int) -> List[JobEvent]:
        return []

    @property
    def completed_records(self) -> List[JobRecord]:
        """Always empty: records are aggregated (and optionally exported)."""
        return []

    def record_for(self, job_id: int) -> Optional[JobRecord]:
        return None

    def __len__(self) -> int:
        return self.completed

    @property
    def mean_fidelity(self) -> Optional[float]:
        """Running mean fidelity over completed jobs."""
        if not self.completed:
            return None
        return self._fidelity_sum / self.completed

    def tenant_completed(self, tenant: str) -> int:
        """Completed-job count of one tenant (from its wait sketch)."""
        sketches = self._tenant_wait.get(tenant)
        if not sketches:
            return 0
        return next(iter(sketches.values())).count

    def latency_percentiles(self, tenant: Optional[str] = None) -> Dict[str, Optional[float]]:
        """P² estimates of wait/turnaround p50/p95/p99 (optionally one tenant)."""
        wait = self._wait if tenant is None else self._tenant_wait.get(tenant, {})
        turnaround = (
            self._turnaround if tenant is None else self._tenant_turnaround.get(tenant, {})
        )
        out: Dict[str, Optional[float]] = {}
        for label, sketches in (("wait", wait), ("turnaround", turnaround)):
            for p in _TRACKED:
                sketch = sketches.get(p)
                out[f"{label}_p{int(p * 100)}"] = sketch.value if sketch is not None else None
        return out

    def aggregates(self) -> Dict[str, Any]:
        """JSON-safe summary of everything the stream accumulated."""
        payload: Dict[str, Any] = {
            "completed": self.completed,
            "mean_fidelity": self.mean_fidelity,
            "event_counts": dict(sorted(self.event_counts.items())),
        }
        payload.update(self.latency_percentiles())
        if self._writer is not None:
            payload["export_path"] = self._writer.path
            payload["rows_written"] = self._writer.rows_written + len(self._writer._buffer)
        return payload

    # -- export ---------------------------------------------------------------
    def close(self) -> None:
        """Flush and close the JSONL exporter (no-op without one)."""
        if self._writer is not None:
            self._writer.close()

    def __enter__(self) -> "StreamingRecordsManager":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
