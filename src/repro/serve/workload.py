"""Multi-tenant workload construction and traffic routing.

Two entry points, both deterministic in the config seed, both built on the
share-split helpers of :mod:`repro.workloads.split`:

* :func:`tenant_jobs` — build the merged workload a tenant mix imposes.
  Every tenant contributes its share of the configured job count, generated
  from its own arrival model (a per-tenant
  :class:`~repro.dynamics.scenario.TrafficSpec`, or the config's default
  arrival process) and its own size/depth/shot ranges, on an independent
  seed sub-stream.

* :func:`route_jobs_to_tenants` — attribute an *existing* workload (e.g. the
  one a :mod:`repro.dynamics` scenario's traffic model generated) to tenants
  by weighted random routing over their shares.  This is how scenario
  traffic events reach individual tenants: the scenario shapes *when* jobs
  arrive, the mix decides *whose* jobs they are.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, List, Optional, Sequence

from repro.cloud.qjob import QJob
from repro.engine.spec import derive_seed
from repro.serve.tenant import TenantMix, TenantSpec
from repro.workloads.split import config_jobs, draw_parts, split_workload

__all__ = ["tenant_jobs", "route_jobs_to_tenants"]


def _stamp(jobs: List[QJob], tenants: Iterable[TenantSpec]) -> List[QJob]:
    """Tag each job with its tenant; default-priority jobs take the
    tenant's ``job_priority``, explicitly prioritised jobs keep their own."""
    for job, tenant in zip(jobs, tenants):
        job.tenant = tenant.name
        if job.priority == 0:
            job.priority = tenant.job_priority
    return jobs


def tenant_jobs(mix: TenantMix, config) -> Optional[List[QJob]]:
    """The workload a tenant mix imposes, or ``None`` for passthrough mixes.

    A passthrough mix (the ``single`` preset) returns ``None`` so the
    environment generates the exact default workload — the serve broker then
    stamps the sole tenant at submission, keeping results byte-identical to
    the plain broker.

    Parameters
    ----------
    mix:
        The tenant mix.
    config:
        The run's :class:`~repro.cloud.config.SimulationConfig` (job count,
        default ranges/arrival model and base seed).
    """
    if mix.is_passthrough:
        return None

    def generate(index: int, count: int) -> List[QJob]:
        tenant = mix.tenants[index]
        seed = derive_seed(config.seed, "tenant-workload", mix.name, tenant.name)
        jobs = config_jobs(
            config,
            count,
            seed,
            traffic=tenant.traffic,
            qubit_range=tenant.qubit_range,
            depth_range=tenant.depth_range,
            shots_range=tenant.shots_range,
        )
        return _stamp(jobs, repeat(tenant))

    jobs, _ = split_workload([t.share for t in mix.tenants], config.num_jobs, generate)
    return jobs


def route_jobs_to_tenants(
    jobs: Sequence[QJob], mix: TenantMix, seed: Optional[int]
) -> List[QJob]:
    """Attribute *jobs* to the mix's tenants by weighted random routing.

    Each job is independently routed to a tenant with probability
    proportional to the tenant's ``share`` (one deterministic draw per job
    from a dedicated seed sub-stream) and stamped with the tenant's name.
    Jobs still carrying the default priority (0) inherit the tenant's
    ``job_priority``; explicitly prioritised jobs keep their own.  Arrival
    times and circuits are left untouched.
    """
    jobs = list(jobs)
    seed = derive_seed(seed, "serve-routing", mix.name)
    parts = draw_parts([t.share for t in mix.tenants], len(jobs), seed)
    return _stamp(jobs, map(mix.tenants.__getitem__, parts))
