"""Named tenant-mix presets and the tenant-mix registry.

:data:`TENANT_MIXES` (a :class:`~repro.registry.SpecRegistry`) maps mix
names to :class:`~repro.serve.tenant.TenantMix` instances so that
configurations, experiment grids and the CLI can select a demand mix by name
(``SimulationConfig(tenants="free-tier-vs-premium")``, ``repro serve
--tenants noisy-neighbor``).  Four presets ship built-in:

=======================  =====================================================
``single``               one unlimited tenant, default workload — byte-
                         identical to the plain broker
``free-tier-vs-premium`` a premium class with tight SLOs and 3x weight vs a
                         rate-limited, sheddable free tier
``batch-vs-interactive`` small latency-sensitive interactive jobs that may
                         preempt a best-effort batch backlog
``noisy-neighbor``       a bursty MMPP tenant held back by admission control
                         so a well-behaved victim tenant keeps its SLOs
=======================  =====================================================

Arrival-rate and deadline constants are sized against the paper's case-study
workload (a 100-job batch drains in roughly 5-6 k simulated seconds).
"""

from __future__ import annotations

from repro.dynamics.scenario import TrafficSpec
from repro.registry import SpecRegistry
from repro.serve.tenant import AdmissionSpec, SLOSpec, TenantMix, TenantSpec

__all__ = [
    "TENANT_MIXES",
    "register_tenant_mix",
    "get_tenant_mix",
    "available_tenant_mixes",
    "resolve_tenant_mix",
]

TENANT_MIXES: SpecRegistry[TenantMix] = SpecRegistry("tenant mix", TenantMix)
register_tenant_mix = TENANT_MIXES.register
get_tenant_mix = TENANT_MIXES.get
available_tenant_mixes = TENANT_MIXES.available
resolve_tenant_mix = TENANT_MIXES.resolve


def _register_presets() -> None:
    register_tenant_mix(
        TenantMix(
            name="single",
            description="one unlimited tenant, default workload (the plain broker's world)",
            tenants=(TenantSpec(name="default"),),
        )
    )
    register_tenant_mix(
        TenantMix(
            name="free-tier-vs-premium",
            description="premium tenants with SLOs and 3x weight vs a rate-limited free tier",
            tenants=(
                TenantSpec(
                    name="premium",
                    priority_class=0,
                    weight=3.0,
                    share=0.3,
                    traffic=TrafficSpec(model="poisson", rate=0.01),
                    slo=SLOSpec(queue_deadline=1200.0, completion_deadline=2400.0),
                ),
                TenantSpec(
                    name="free",
                    priority_class=2,
                    weight=1.0,
                    share=0.7,
                    traffic=TrafficSpec(model="poisson", rate=0.03),
                    admission=AdmissionSpec(rate=0.02, burst=5.0, max_queued=25),
                ),
            ),
        )
    )
    register_tenant_mix(
        TenantMix(
            name="batch-vs-interactive",
            description="latency-sensitive interactive jobs preempting a best-effort batch backlog",
            tenants=(
                TenantSpec(
                    name="interactive",
                    priority_class=0,
                    weight=2.0,
                    share=0.5,
                    traffic=TrafficSpec(model="diurnal", rate=0.005, peak_rate=0.06, period=7200.0),
                    qubit_range=(130, 180),
                    depth_range=(5, 10),
                    shots_range=(10_000, 40_000),
                    slo=SLOSpec(queue_deadline=600.0, completion_deadline=1500.0),
                ),
                TenantSpec(
                    name="batch",
                    priority_class=3,
                    weight=1.0,
                    share=0.5,
                    traffic=TrafficSpec(model="poisson", rate=0.01),
                    qubit_range=(200, 350),
                    depth_range=(10, 20),
                    shots_range=(50_000, 100_000),
                    job_priority=5,
                ),
            ),
        )
    )
    register_tenant_mix(
        TenantMix(
            name="noisy-neighbor",
            description="a bursty tenant shed by admission control next to a protected victim",
            tenants=(
                TenantSpec(
                    name="victim",
                    priority_class=1,
                    weight=1.0,
                    share=0.4,
                    traffic=TrafficSpec(model="poisson", rate=0.01),
                    slo=SLOSpec(queue_deadline=1800.0, fidelity_floor=0.05),
                ),
                TenantSpec(
                    name="neighbor",
                    priority_class=1,
                    weight=1.0,
                    share=0.6,
                    traffic=TrafficSpec(
                        model="mmpp",
                        rate=0.01,
                        burst_rate=0.2,
                        dwell_normal=900.0,
                        dwell_burst=300.0,
                        qubit_dist="heavy_tail",
                        tail_alpha=2.2,
                    ),
                    admission=AdmissionSpec(rate=0.015, burst=8.0, max_queued=15),
                ),
            ),
        )
    )


_register_presets()
