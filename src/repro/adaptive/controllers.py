"""The four closed-loop controllers ticked by the adaptive engine.

Each controller reads the :class:`~repro.adaptive.signals.SignalBus` (never
raw job lists), adjusts exactly one actuator, and records a trajectory of
its decisions so runs are auditable and replay-testable:

* :class:`AdaptiveAdmission` — AIMD adjustment of per-tenant token-bucket
  refill rates: multiplicative decrease on an SLO/backlog breach, additive
  increase while healthy, clamped to ``[floor, ceiling] × base rate``.
* :class:`SLOAwarePlanner` — a ``plan()`` wrapper around the configured
  allocation policy: deadline-pressured jobs are steered to the fastest
  subset of the fleet, fidelity-floored tenants to the lowest-error subset,
  falling back to the full fleet whenever the biased subset cannot host the
  job (liveness is never sacrificed for bias).
* :class:`ElasticPooler` — re-partitions the fleet into per-priority-class
  fidelity tiers sized by live demand, with hysteresis against flapping.
* :class:`ProactiveCheckpointer` — flips checkpointing on for jobs
  predicted to overlap an outage-risky or forecast rush window.

All controllers are deterministic: no RNG is consumed anywhere, so an
adaptive run under a fixed seed replays bit-for-bit.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Controller",
    "AdaptiveAdmission",
    "SLOAwarePlanner",
    "ElasticPooler",
    "ProactiveCheckpointer",
]

_EPS = 1e-12


class Controller(ABC):
    """One sense→decide→actuate loop, ticked by the adaptive engine."""

    #: Stable identifier used in reports and ``AdaptivePolicySpec.controller_names``.
    kind: str = "controller"

    def __init__(self, engine) -> None:
        self.engine = engine
        self.env = engine.env
        self.broker = engine.env.broker
        self.spec = engine.spec
        self.signals = engine.signals
        self.forecaster = engine.forecaster

    def install(self) -> None:
        """One-time wiring into the broker/environment (default: none)."""

    @abstractmethod
    def tick(self, now: float) -> None:
        """Run one control iteration at simulated time *now*."""

    def report(self) -> Dict[str, object]:
        """Decision counters/trajectories for analysis (default: empty)."""
        return {}


class AdaptiveAdmission(Controller):
    """AIMD token-rate control driven by queue depth and rolling p95."""

    kind = "adaptive-admission"

    def __init__(self, engine) -> None:
        super().__init__(engine)
        #: Per-tenant base (configured) rates — AIMD bounds are relative to these.
        self._base: Dict[str, float] = {}
        #: ``(time, tenant, new_rate)`` for every actuation, in tick order.
        self.trajectory: List[Tuple[float, str, float]] = []
        self.breaches = 0

    def install(self) -> None:
        controller = getattr(self.broker, "admission_controller", None)
        mix = getattr(self.broker, "mix", None)
        if controller is None or mix is None:
            return  # plain broker: nothing to actuate
        for tenant in mix.tenants:
            rate = controller.rate(tenant.name)
            if rate is not None:
                self._base[tenant.name] = rate

    def tick(self, now: float) -> None:
        if not self._base:
            return
        controller = self.broker.admission_controller
        mix = self.broker.mix
        spec = self.spec
        for name, base in self._base.items():
            current = controller.rate(name)
            if current is None:  # pragma: no cover - bucket removed externally
                continue
            slo = mix.tenant(name).slo
            p95 = self.signals.recent_p95(name)
            breach = (
                slo.queue_deadline is not None
                and p95 is not None
                and p95 > slo.queue_deadline
            ) or self.signals.queue_depth(name) > spec.queue_depth_high
            if breach:
                self.breaches += 1
                new = max(spec.aimd_floor * base, current * spec.aimd_decrease)
            else:
                new = min(spec.aimd_ceiling * base, current + spec.aimd_increase * base)
            if abs(new - current) > _EPS:
                controller.set_rate(name, new, now)
                self.trajectory.append((now, name, new))

    def report(self) -> Dict[str, object]:
        controller = getattr(self.broker, "admission_controller", None)
        rates = (
            {name: controller.rate(name) for name in sorted(self._base)}
            if controller is not None
            else {}
        )
        return {
            "breaches": self.breaches,
            "adjustments": len(self.trajectory),
            "rates": rates,
            "trajectory": list(self.trajectory),
        }


class SLOAwarePlanner(Controller):
    """A ``plan()`` wrapper biasing allocation by tenant SLO pressure.

    Installed by replacing ``broker.policy`` with this object; the wrapped
    policy does all actual planning, only the candidate device list is
    biased.  The elastic pooler's class pools (when enabled) are applied
    first, then SLO bias within the remaining candidates.
    """

    kind = "slo-planner"

    def __init__(self, engine) -> None:
        super().__init__(engine)
        self.inner = self.broker.policy
        self.latency_biased = 0
        self.fidelity_biased = 0
        self.pool_hits = 0
        self.pool_misses = 0
        #: Device-name → rank under each bias order, refreshed on ticks when
        #: the fleet's calibration actually moved.  ``plan()`` runs on the
        #: hot dispatch path and the control loop ticks far more often than
        #: calibration drifts, so the error scores are evaluated only when
        #: the cheap fingerprint below changes.
        self._rank_latency: Dict[str, int] = {}
        self._rank_fidelity: Dict[str, int] = {}
        self._rank_fingerprint: Optional[Tuple] = None

    @property
    def name(self) -> str:
        return f"adaptive({self.inner.name})"

    def install(self) -> None:
        self.broker.policy = self
        self._refresh_ranks()

    def tick(self, now: float) -> None:
        self._refresh_ranks()

    def _refresh_ranks(self) -> None:
        devices = self.env.cloud.devices
        fingerprint = tuple(
            (d.name, d.avg_readout_error, d.avg_single_qubit_error, d.avg_two_qubit_error)
            for d in devices
        )
        if fingerprint == self._rank_fingerprint:
            return
        self._rank_fingerprint = fingerprint
        by_speed = sorted(devices, key=lambda d: (-d.clops, d.name))
        self._rank_latency = {d.name: i for i, d in enumerate(by_speed)}
        by_error = sorted(devices, key=lambda d: (d.error_score(), d.name))
        self._rank_fidelity = {d.name: i for i, d in enumerate(by_error)}

    def plan(self, job, devices):
        devices = list(devices)
        pooler = self.engine.pooler
        if pooler is not None:
            pool = pooler.pool_for(job)
            if pool is not None:
                subset = [d for d in devices if d.name in pool]
                if subset:
                    plan = self.inner.plan(job, subset)
                    if plan is not None:
                        self.pool_hits += 1
                        return plan
                # Pool cannot host the job (offline/too small): fall through
                # to the full fleet rather than starve it.
                self.pool_misses += 1
        tenant = self._tenant_spec(job)
        if tenant is not None:
            slo = tenant.slo
            waited = self.env.now - job.arrival_time
            if (
                slo.queue_deadline is not None
                and waited >= self.spec.deadline_pressure * slo.queue_deadline
            ):
                plan = self._biased(job, devices, self._rank_latency)
                if plan is not None:
                    self.latency_biased += 1
                    return plan
            elif slo.fidelity_floor is not None:
                plan = self._biased(job, devices, self._rank_fidelity)
                if plan is not None:
                    self.fidelity_biased += 1
                    return plan
        return self.inner.plan(job, devices)

    def _biased(self, job, devices, ranks):
        k = max(1, math.ceil(self.spec.latency_pool_fraction * len(devices)))
        if k >= len(devices):
            return None  # no bias possible; let the unbiased fallback plan once
        # Devices unseen at the last rank refresh (e.g. freshly recovered)
        # sort to the back, deterministically by name, until the next tick.
        unseen = len(ranks)
        subset = sorted(devices, key=lambda d: (ranks.get(d.name, unseen), d.name))[:k]
        return self.inner.plan(job, subset)

    def _tenant_spec(self, job):
        mix = getattr(self.broker, "mix", None)
        tenant = getattr(job, "tenant", None)
        if mix is None or tenant is None:
            return None
        try:
            return mix.tenant(tenant)
        except KeyError:
            return None

    def report(self) -> Dict[str, object]:
        return {
            "inner_policy": self.inner.name,
            "latency_biased": self.latency_biased,
            "fidelity_biased": self.fidelity_biased,
            "pool_hits": self.pool_hits,
            "pool_misses": self.pool_misses,
        }


class ElasticPooler(Controller):
    """Demand-proportional fidelity-tier device pools with hysteresis.

    The fleet is sorted by error score (best first) and partitioned into
    one contiguous tier per priority class — the most important class gets
    the highest-fidelity tier.  Tier sizes follow live per-class demand
    (queued jobs, Laplace-smoothed) via largest-remainder apportionment,
    and only change when some tier would move by at least
    ``pool_hysteresis × fleet size`` devices (min 1).
    """

    kind = "elastic-pooler"

    def __init__(self, engine) -> None:
        super().__init__(engine)
        self.class_pools: Dict[int, Tuple[str, ...]] = {}
        #: ``(time, {class: size})`` for every re-partition.
        self.trajectory: List[Tuple[float, Dict[int, int]]] = []
        self.repartitions = 0
        self._classes: Tuple[int, ...] = ()
        self._tenants_by_class: Dict[int, Tuple[str, ...]] = {}

    def install(self) -> None:
        mix = getattr(self.broker, "mix", None)
        if mix is None or not mix.is_multiclass:
            return  # single class: one pool == the whole fleet, nothing to do
        self._classes = mix.priority_classes
        self._tenants_by_class = {
            cls: tuple(t.name for t in mix.tenants if t.priority_class == cls)
            for cls in self._classes
        }

    def tick(self, now: float) -> None:
        if not self._classes:
            return
        devices = sorted(self.env.cloud.devices, key=lambda d: (d.error_score(), d.name))
        n = len(devices)
        if n < len(self._classes):
            return
        demands = {
            cls: 1 + sum(self.signals.queue_depth(t) for t in self._tenants_by_class[cls])
            for cls in self._classes
        }
        sizes = self._apportion(demands, n)
        if self.class_pools:
            threshold = max(1, int(round(self.spec.pool_hysteresis * n)))
            drift = max(
                abs(sizes[cls] - len(self.class_pools.get(cls, ()))) for cls in self._classes
            )
            if drift < threshold:
                return
        pools: Dict[int, Tuple[str, ...]] = {}
        cursor = 0
        for cls in self._classes:  # most important class first → best tier
            pools[cls] = tuple(d.name for d in devices[cursor : cursor + sizes[cls]])
            cursor += sizes[cls]
        self.class_pools = pools
        self.repartitions += 1
        self.trajectory.append((now, dict(sizes)))

    def _apportion(self, demands: Dict[int, int], n: int) -> Dict[int, int]:
        """Largest-remainder apportionment of *n* devices, each class >= 1."""
        total = sum(demands.values())
        quotas = {cls: demands[cls] * n / total for cls in self._classes}
        sizes = {cls: max(1, int(quotas[cls])) for cls in self._classes}
        assigned = sum(sizes.values())
        while assigned > n:  # the max(1, ...) floors over-shot: shrink largest
            cls = max(self._classes, key=lambda c: (sizes[c], c))
            sizes[cls] -= 1
            assigned -= 1
        if assigned < n:
            remainders = sorted(
                self._classes,
                key=lambda c: (-(quotas[c] - int(quotas[c])), c),
            )
            for i in range(n - assigned):
                sizes[remainders[i % len(remainders)]] += 1
        return sizes

    def pool_for(self, job) -> Optional[Tuple[str, ...]]:
        """Device-name pool for *job*'s priority class (None = unpartitioned)."""
        if not self.class_pools:
            return None
        mix = getattr(self.broker, "mix", None)
        tenant = getattr(job, "tenant", None)
        if mix is None or tenant is None:
            return None
        try:
            return self.class_pools.get(mix.tenant(tenant).priority_class)
        except KeyError:
            return None

    def report(self) -> Dict[str, object]:
        return {
            "repartitions": self.repartitions,
            "pools": {str(cls): list(pool) for cls, pool in sorted(self.class_pools.items())},
            "trajectory": [(t, dict(s)) for t, s in self.trajectory],
        }


class ProactiveCheckpointer(Controller):
    """Flips checkpointing on ahead of predicted outage/rush windows.

    The broker asks the adaptive engine once per execution attempt whether
    to checkpoint, and the engine asks :meth:`decide`.  Risk is
    re-evaluated every tick: expected outages per job — ``max(observed,
    scenario-declared) outage rate × mean observed service time`` — above
    the spec threshold, or a forecast rush window (deep queues make aborted
    work expensive to redo), arms checkpointing for subsequent attempts.
    """

    kind = "proactive-checkpointer"

    def __init__(self, engine) -> None:
        super().__init__(engine)
        self._active = False
        self.flips = 0
        self.decisions = 0
        self.checkpointed = 0
        #: ``(time, active)`` for every flip.
        self.trajectory: List[Tuple[float, bool]] = []

    def tick(self, now: float) -> None:
        active = self._outage_risky(now) or (
            self.forecaster is not None
            and self.forecaster.is_rush(now, self.spec.forecast_horizon, self.spec.rush_factor)
        )
        if active != self._active:
            self._active = active
            self.flips += 1
            self.trajectory.append((now, active))

    def _outage_risky(self, now: float) -> bool:
        mean_service = self.signals.mean_service_time()
        if not mean_service or now <= 0.0:
            return False
        observed = self.signals.outage_count() / now
        rate = max(observed, self._declared_outage_rate())
        return rate * mean_service >= self.spec.outage_risk_threshold

    def _declared_outage_rate(self) -> float:
        scenario = getattr(self.env, "scenario", None)
        outages = getattr(scenario, "outages", None) if scenario is not None else None
        if outages is None:
            return 0.0
        n_failable = (
            len(outages.devices)
            if outages.devices is not None
            else len(self.env.cloud.devices)
        )
        return n_failable / outages.mtbf

    def decide(self, job) -> bool:
        """Checkpoint decision for *job*'s next execution attempt."""
        self.decisions += 1
        if self.broker.checkpointing:
            return True
        if self._active:
            self.checkpointed += 1
            return True
        return False

    def report(self) -> Dict[str, object]:
        return {
            "active": self._active,
            "flips": self.flips,
            "decisions": self.decisions,
            "checkpointed_attempts": self.checkpointed,
            "trajectory": list(self.trajectory),
        }
