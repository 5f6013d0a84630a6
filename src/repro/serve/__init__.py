"""repro.serve — the multi-tenant QoS layer.

The serve layer makes the *demand side* of the simulated cloud realistic:
instead of one anonymous stream of jobs, a named :class:`TenantMix` describes
tenants with priority classes, fair-share weights, arrival/workload mixes,
SLO targets and admission limits.  The :class:`ServeBroker` then dispatches
through a tenant-aware queue — admission control sheds excess load
(``rejected`` events), priority classes overtake, same-class tenants share
capacity by weighted fair queueing, and jobs past their queueing-delay SLO
preempt strictly lower classes (re-using the outage abort/requeue machinery
of :mod:`repro.dynamics`).  Per-tenant outcomes are summarised by
:func:`compute_tenant_reports`: SLO attainment, p50/p95/p99 queueing and
completion latency, and rejected/preempted/failed counts.

Selectable anywhere a config travels::

    env = QCloudSimEnv(SimulationConfig(num_jobs=200, tenants="free-tier-vs-premium"))
    env.run_until_complete()
    for report in env.tenant_reports():
        print(report.tenant, report.attainment)

Presets (``single``, ``free-tier-vs-premium``, ``batch-vs-interactive``,
``noisy-neighbor``) are registered in :mod:`repro.serve.presets`.  Every run
is bit-reproducible given its seed, and the ``single`` preset is
byte-identical to the plain pre-serve broker.
"""

from repro.serve.accounting import (
    TenantSLOReport,
    compute_tenant_reports,
    compute_tenant_reports_streaming,
    slo_satisfied,
)
from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.broker import ServeBroker
from repro.serve.presets import (
    TENANT_MIXES,
    available_tenant_mixes,
    get_tenant_mix,
    register_tenant_mix,
    resolve_tenant_mix,
)
from repro.serve.tenant import AdmissionSpec, SLOSpec, TenantMix, TenantSpec
from repro.serve.workload import route_jobs_to_tenants, tenant_jobs

__all__ = [
    "TENANT_MIXES",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionSpec",
    "SLOSpec",
    "ServeBroker",
    "TenantMix",
    "TenantSLOReport",
    "TenantSpec",
    "available_tenant_mixes",
    "compute_tenant_reports",
    "compute_tenant_reports_streaming",
    "get_tenant_mix",
    "register_tenant_mix",
    "resolve_tenant_mix",
    "route_jobs_to_tenants",
    "slo_satisfied",
    "tenant_jobs",
]
