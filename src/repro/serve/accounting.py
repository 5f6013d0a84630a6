"""Per-tenant SLO accounting: attainment, tail latency, shed/preempted counts.

Turns the raw output of a serving run — completed :class:`JobRecord`\\ s plus
the event log (``rejected`` / ``preempted`` / ``failed`` events) — into one
:class:`TenantSLOReport` per tenant: the metrics a cloud operator actually
watches.

Definitions
-----------
* **queueing latency** — a completed job's :attr:`JobRecord.wait_time`:
  cumulative time *not* executing.  For a single-attempt job that is exactly
  ``start - arrival``; for a job requeued after outages/preemptions it also
  counts every inter-attempt wait (but not the aborted attempts' execution
  time),
* **completion latency** — ``finish - arrival`` (turnaround),
* **SLO-violating job** — a *completed* job that breaks any of its tenant's
  targets (queue deadline, completion deadline, fidelity floor),
* **attainment** — the fraction of *submitted* jobs that completed within
  every target.  Rejected and failed jobs count against attainment: shedding
  a job is an SLO miss from the customer's point of view.  A tenant that
  submitted nothing has no attainment (``None``, rendered as ``-``),
* **p50/p95/p99** — linear-interpolation percentiles over completed jobs.

All quantities are deterministic functions of the run's records and events,
so reports are bit-reproducible whenever the run is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.cloud.records import JobEvent, JobRecord
from repro.serve.tenant import SLOSpec, TenantMix, TenantSpec

__all__ = [
    "TenantSLOReport",
    "slo_satisfied",
    "compute_tenant_reports",
    "compute_tenant_reports_streaming",
]


@dataclass(frozen=True)
class TenantSLOReport:
    """Operator-facing serving metrics of one tenant over one run."""

    tenant: str
    priority_class: int
    weight: float

    #: Jobs submitted (admitted + rejected).
    submitted: int
    #: Jobs completed successfully.
    completed: int
    #: Jobs shed by admission control.
    rejected: int
    #: Jobs that terminally failed (requeue limit, no feasible allocation).
    failed: int
    #: Preemption events suffered (one job may be preempted repeatedly).
    preemptions: int
    #: Completed jobs that broke at least one SLO target.
    violated: int

    #: Fraction of submitted jobs completed within every SLO target (0..1),
    #: or ``None`` for a tenant that submitted nothing — an idle tenant has
    #: no attainment, and must not read as perfectly served in tables or
    #: sweep aggregates.
    attainment: Optional[float]

    #: Queueing-latency percentiles over completed jobs (``None`` if none).
    queue_p50: Optional[float] = None
    queue_p95: Optional[float] = None
    queue_p99: Optional[float] = None
    #: Completion-latency percentiles over completed jobs (``None`` if none).
    completion_p50: Optional[float] = None
    completion_p95: Optional[float] = None
    completion_p99: Optional[float] = None
    #: Mean final fidelity over completed jobs (``None`` if none).
    mean_fidelity: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        """Flat JSON/CSV-friendly representation."""
        return {
            "tenant": self.tenant,
            "priority_class": self.priority_class,
            "weight": self.weight,
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "failed": self.failed,
            "preemptions": self.preemptions,
            "violated": self.violated,
            "attainment": self.attainment,
            "queue_p50": self.queue_p50,
            "queue_p95": self.queue_p95,
            "queue_p99": self.queue_p99,
            "completion_p50": self.completion_p50,
            "completion_p95": self.completion_p95,
            "completion_p99": self.completion_p99,
            "mean_fidelity": self.mean_fidelity,
        }


def slo_satisfied(record: JobRecord, slo: SLOSpec) -> bool:
    """Whether a completed job met every target of its tenant's SLO."""
    if slo.queue_deadline is not None and record.wait_time > slo.queue_deadline:
        return False
    if slo.completion_deadline is not None and record.turnaround_time > slo.completion_deadline:
        return False
    if slo.fidelity_floor is not None and record.fidelity < slo.fidelity_floor:
        return False
    return True


def _percentiles(values: List[float]) -> Dict[str, Optional[float]]:
    if not values:
        return {"p50": None, "p95": None, "p99": None}
    arr = np.asarray(values, dtype=np.float64)
    p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
    return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}


def _report_for(
    tenant: TenantSpec,
    records: Sequence[JobRecord],
    submitted: int,
    rejected: int,
    failed: int,
    preemptions: int,
) -> TenantSLOReport:
    completed = len(records)
    violated = sum(0 if slo_satisfied(r, tenant.slo) else 1 for r in records)
    attained = completed - violated
    attainment = attained / submitted if submitted else None

    queue = _percentiles([r.wait_time for r in records])
    completion = _percentiles([r.turnaround_time for r in records])
    mean_fidelity = (
        float(np.mean([r.fidelity for r in records])) if records else None
    )
    return TenantSLOReport(
        tenant=tenant.name,
        priority_class=tenant.priority_class,
        weight=tenant.weight,
        submitted=submitted,
        completed=completed,
        rejected=rejected,
        failed=failed,
        preemptions=preemptions,
        violated=violated,
        attainment=attainment,
        queue_p50=queue["p50"],
        queue_p95=queue["p95"],
        queue_p99=queue["p99"],
        completion_p50=completion["p50"],
        completion_p95=completion["p95"],
        completion_p99=completion["p99"],
        mean_fidelity=mean_fidelity,
    )


def compute_tenant_reports(
    mix: TenantMix,
    records: Sequence[JobRecord],
    events: Sequence[JobEvent],
    tenant_of: Mapping[int, str],
) -> List[TenantSLOReport]:
    """One :class:`TenantSLOReport` per tenant of *mix*, in mix order.

    Parameters
    ----------
    mix:
        The tenant mix served.
    records:
        Completed job records (their ``tenant`` field wins over *tenant_of*).
    events:
        The run's raw event log (supplies rejected/failed/preempted counts).
    tenant_of:
        Tenant attribution of every submitted job id (the serve broker's
        ``tenant_of`` mapping) — needed for jobs that never completed.

    Tail latencies are exact (``np.percentile`` over all values).
    """
    def tenant_name(job_id: int) -> Optional[str]:
        return tenant_of.get(job_id)

    records_by_tenant: Dict[str, List[JobRecord]] = {t.name: [] for t in mix.tenants}
    for record in records:
        name = record.tenant or tenant_name(record.job_id)
        if name in records_by_tenant:
            records_by_tenant[name].append(record)

    counts = {t.name: {"rejected": 0, "failed": 0, "preempted": 0} for t in mix.tenants}
    for event in events:
        if event.event not in ("rejected", "failed", "preempted"):
            continue
        name = tenant_name(event.job_id)
        if name in counts:
            counts[name][event.event] += 1

    submitted_by_tenant: Dict[str, int] = {t.name: 0 for t in mix.tenants}
    for name in tenant_of.values():
        if name in submitted_by_tenant:
            submitted_by_tenant[name] += 1

    return [
        _report_for(
            tenant,
            records_by_tenant[tenant.name],
            submitted=submitted_by_tenant[tenant.name],
            rejected=counts[tenant.name]["rejected"],
            failed=counts[tenant.name]["failed"],
            preemptions=counts[tenant.name]["preempted"],
        )
        for tenant in mix.tenants
    ]


def compute_tenant_reports_streaming(
    mix: TenantMix,
    manager,
    tenant_of: Mapping[int, str],
    rejected: Mapping[str, int],
    failed: Mapping[str, int],
    preemptions: Mapping[str, int],
) -> List[TenantSLOReport]:
    """Per-tenant reports from a :class:`StreamingRecordsManager`'s sketches.

    The closing piece of million-job serving runs: instead of materialising
    per-job latency lists, every percentile in the report is read straight
    from the manager's per-tenant P² sketches (O(1) memory in job count,
    ``method="p2"`` estimates).  Counts the manager cannot know come from
    the caller (the serve broker supplies admission rejections, terminal
    failures and preemption totals per tenant).

    Limitation, by construction: per-job SLO evaluation needs the exact
    records the stream discarded, so ``violated`` is 0 and ``attainment``
    is ``None`` in streaming reports — tail latencies and counts are the
    streaming observables.  Use the exact manager when attainment is the
    metric under study.
    """
    reports: List[TenantSLOReport] = []
    submitted_by_tenant: Dict[str, int] = {t.name: 0 for t in mix.tenants}
    for name in tenant_of.values():
        if name in submitted_by_tenant:
            submitted_by_tenant[name] += 1
    for tenant in mix.tenants:
        name = tenant.name
        percentiles = manager.latency_percentiles(name)
        reports.append(
            TenantSLOReport(
                tenant=name,
                priority_class=tenant.priority_class,
                weight=tenant.weight,
                submitted=submitted_by_tenant[name],
                completed=manager.tenant_completed(name),
                rejected=rejected.get(name, 0),
                failed=failed.get(name, 0),
                preemptions=preemptions.get(name, 0),
                violated=0,
                attainment=None,
                queue_p50=percentiles["wait_p50"],
                queue_p95=percentiles["wait_p95"],
                queue_p99=percentiles["wait_p99"],
                completion_p50=percentiles["turnaround_p50"],
                completion_p95=percentiles["turnaround_p95"],
                completion_p99=percentiles["turnaround_p99"],
                mean_fidelity=None,
            )
        )
    return reports
