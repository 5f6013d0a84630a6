"""Tenant specifications: the demand side of multi-tenant serving.

A :class:`TenantSpec` describes one tenant of the quantum cloud — who is
sending jobs, how important they are, what they were promised and how much
they are allowed to submit:

* a **priority class** (smaller = more important) used by the serve broker's
  dispatch queue and preemption policy,
* a **fair-share weight** dividing capacity among tenants of the same class,
* an **arrival/workload mix** (a :class:`~repro.dynamics.scenario.TrafficSpec`
  reusing the generators of :mod:`repro.workloads.arrivals`, plus optional
  size/depth/shot overrides and a share of the total job count),
* **SLO targets** (:class:`SLOSpec`): a queueing-delay deadline, a completion
  deadline and a fidelity floor,
* **admission limits** (:class:`AdmissionSpec`): a token bucket on the
  submission rate and a cap on concurrently queued jobs.

A :class:`TenantMix` is a named, frozen collection of tenants — the unit the
configuration layer, the experiment grid and the CLI select by name (see
:mod:`repro.serve.presets`).  Like the scenario specs of PR 3, everything
here is a frozen dataclass: picklable, with a ``repr`` that doubles as a
stable content fingerprint for result caching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.dynamics.scenario import TrafficSpec

__all__ = ["SLOSpec", "AdmissionSpec", "TenantSpec", "TenantMix"]


@dataclass(frozen=True)
class SLOSpec:
    """Service-level objectives promised to one tenant.

    All targets are optional; ``None`` means the tenant has no promise on
    that axis.  The serve broker uses ``queue_deadline`` as its preemption
    trigger: once a job of this tenant has waited longer than the deadline,
    strictly lower-priority classes may be preempted to make room.
    """

    #: Max acceptable queueing delay (start - arrival), seconds.
    queue_deadline: Optional[float] = None
    #: Max acceptable completion latency (finish - arrival), seconds.
    completion_deadline: Optional[float] = None
    #: Min acceptable final fidelity of a completed job.
    fidelity_floor: Optional[float] = None

    def __post_init__(self) -> None:
        if self.queue_deadline is not None and not 0 < self.queue_deadline < math.inf:
            raise ValueError("queue_deadline must be positive and finite when given")
        if self.completion_deadline is not None and not 0 < self.completion_deadline < math.inf:
            raise ValueError("completion_deadline must be positive and finite when given")
        if self.fidelity_floor is not None and not 0.0 < self.fidelity_floor <= 1.0:
            raise ValueError("fidelity_floor must be in (0, 1] when given")

    @property
    def is_unbounded(self) -> bool:
        """Whether the tenant carries no SLO targets at all."""
        return (
            self.queue_deadline is None
            and self.completion_deadline is None
            and self.fidelity_floor is None
        )


@dataclass(frozen=True)
class AdmissionSpec:
    """Per-tenant admission limits (token bucket + queue cap).

    ``rate`` is the sustained submission rate in jobs/second; ``burst`` is
    the bucket depth (how many jobs may arrive back-to-back before the
    bucket empties).  ``max_queued`` caps the number of this tenant's jobs
    waiting in the dispatch queue; submissions beyond either limit are
    rejected with a ``rejected`` record event.  ``rate=None`` disables the
    token bucket, ``max_queued=None`` disables the queue cap — the default
    admits everything, like the plain broker.
    """

    #: Sustained admission rate, jobs/second (``None`` — unlimited).
    rate: Optional[float] = None
    #: Token-bucket depth (max burst admitted at once).
    burst: float = 10.0
    #: Max jobs of this tenant waiting in the dispatch queue (``None`` — no cap).
    max_queued: Optional[int] = None

    def __post_init__(self) -> None:
        if self.rate is not None and not 0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite when given")
        if not 1.0 <= self.burst < math.inf:
            raise ValueError("burst must be finite and at least 1 (one admissible job)")
        if self.max_queued is not None and self.max_queued <= 0:
            raise ValueError("max_queued must be positive when given")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: priority class, traffic mix, SLOs and admission limits."""

    #: Tenant name (unique within a mix).
    name: str
    #: Priority class, **smaller = more important** (mirrors ``QJob.priority``).
    priority_class: int = 0
    #: Fair-share weight among tenants of the same priority class.
    weight: float = 1.0
    #: Fraction of the configured job count this tenant contributes (shares
    #: are normalised over the mix).
    share: float = 1.0
    #: Arrival process / job-size shaping (``None`` — the config's default
    #: arrival model).
    traffic: Optional[TrafficSpec] = None
    #: Qubit-demand range override (``None`` — the config's range).
    qubit_range: Optional[Tuple[int, int]] = None
    #: Circuit-depth range override (``None`` — the config's range).
    depth_range: Optional[Tuple[int, int]] = None
    #: Shot-count range override (``None`` — the config's range).
    shots_range: Optional[Tuple[int, int]] = None
    #: ``QJob.priority`` stamped on this tenant's generated jobs.
    job_priority: int = 0
    #: Service-level objectives.
    slo: SLOSpec = field(default_factory=SLOSpec)
    #: Admission limits.
    admission: AdmissionSpec = field(default_factory=AdmissionSpec)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        # Written so that NaN fails too: every comparison with NaN is False.
        if not 0 < self.weight < math.inf:
            raise ValueError(f"weight must be positive and finite, got {self.weight}")
        if not 0 < self.share < math.inf:
            raise ValueError(f"share must be positive and finite, got {self.share}")
        for attr in ("qubit_range", "depth_range", "shots_range"):
            bounds = getattr(self, attr)
            if bounds is not None and bounds[0] > bounds[1]:
                raise ValueError(f"invalid {attr}: {bounds}")

    @property
    def shapes_workload(self) -> bool:
        """Whether this tenant overrides any part of the default workload."""
        return (
            self.traffic is not None
            or self.qubit_range is not None
            or self.depth_range is not None
            or self.shots_range is not None
        )


@dataclass(frozen=True)
class TenantMix:
    """A named set of tenants sharing one simulated cloud."""

    name: str
    tenants: Tuple[TenantSpec, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("mix name must be non-empty")
        if not self.tenants:
            raise ValueError("a tenant mix needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")

    def tenant(self, name: str) -> TenantSpec:
        """Look up a tenant by name."""
        for spec in self.tenants:
            if spec.name == name:
                return spec
        raise KeyError(f"no tenant named {name!r} in mix {self.name!r}")

    @property
    def default_tenant(self) -> TenantSpec:
        """The tenant untagged jobs are attributed to (the first in the mix)."""
        return self.tenants[0]

    @property
    def is_passthrough(self) -> bool:
        """Whether this mix leaves the configured workload untouched.

        A passthrough mix (one tenant, no traffic shaping, no overrides)
        runs the exact default workload — the property the single-tenant
        byte-equality guarantee is built on.
        """
        return len(self.tenants) == 1 and not self.tenants[0].shapes_workload

    @property
    def priority_classes(self) -> Tuple[int, ...]:
        """Distinct priority classes in the mix, most important first."""
        return tuple(sorted({t.priority_class for t in self.tenants}))

    @property
    def is_multiclass(self) -> bool:
        """Whether tenants span more than one priority class (enables the
        serve broker's cross-class overtaking and preemption paths)."""
        return len(self.priority_classes) > 1
