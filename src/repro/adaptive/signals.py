"""The SignalBus: O(1) rolling metrics feeding the adaptive controllers.

Controllers never walk job lists or record managers — every signal they
read is maintained incrementally from the submit, completion and failure
reports that either dispatch engine makes only while an
:class:`~repro.adaptive.engine.AdaptiveEngine` is attached to the broker
(so an adaptive-less run pays nothing).  Per-tenant queue-latency tails
come from the PR 6 P² sketches (:class:`repro.metrics.quantiles.P2Quantile`),
so a signal read is O(1) regardless of how many jobs have flowed through.

Signals exposed:

* per-tenant counters — submitted / admitted / shed / completed / failed,
  plus derived admission and shed *rates*;
* per-tenant (and global) rolling p95 queue latency;
* per-tenant queue depth (admission-controller queue when serving, else an
  in-flight counter);
* per-device utilisation and fleet-wide outage counts;
* a running mean service time (for outage-risk estimates).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.metrics.quantiles import P2Quantile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adaptive.forecast import OnlineArrivalForecaster

__all__ = ["TenantSignals", "SignalBus"]

#: Tenant key used for jobs without a tenant stamp (plain-broker runs).
UNTENANTED = "__untenanted__"


class TenantSignals:
    """Rolling per-tenant counters plus a streaming p95 wait sketch."""

    __slots__ = ("submitted", "admitted", "shed", "completed", "failed", "wait_p95")

    def __init__(self) -> None:
        self.submitted = 0
        self.admitted = 0
        self.shed = 0
        self.completed = 0
        self.failed = 0
        self.wait_p95 = P2Quantile(0.95)

    @property
    def shed_rate(self) -> float:
        """Fraction of submissions rejected at admission."""
        return self.shed / self.submitted if self.submitted else 0.0

    def as_dict(self) -> Dict[str, object]:
        p95 = self.wait_p95.value if self.wait_p95.count else None
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "failed": self.failed,
            "shed_rate": self.shed_rate,
            "wait_p95": p95,
        }


class SignalBus:
    """Collects broker/record signals for the control loop.

    The dispatch engine calls :meth:`on_submit`, :meth:`on_completed` and
    :meth:`on_failed` through the broker's ``adaptive`` attachment, passing
    only what the bus reads: the tenant, whether the job was admitted, and
    the completed record.  The engine's streaming mode therefore reports
    straight from its job table, without a job object per row.
    """

    def __init__(self, env, forecaster: Optional["OnlineArrivalForecaster"] = None) -> None:
        self.env = env
        self.broker = env.broker
        self.forecaster = forecaster
        self.tenants: Dict[str, TenantSignals] = {}
        self.global_wait_p95 = P2Quantile(0.95)
        self._service_sum = 0.0
        self._service_count = 0

    # -- broker reports -----------------------------------------------------

    def _tenant(self, name: Optional[str]) -> TenantSignals:
        key = name if name is not None else UNTENANTED
        sig = self.tenants.get(key)
        if sig is None:
            sig = self.tenants[key] = TenantSignals()
        return sig

    def on_submit(self, tenant: Optional[str], admitted: bool) -> None:
        sig = self._tenant(tenant)
        sig.submitted += 1
        if admitted:
            sig.admitted += 1
        else:
            sig.shed += 1
        if self.forecaster is not None:
            self.forecaster.observe(self.env.now)

    def on_completed(self, record) -> None:
        sig = self._tenant(record.tenant)
        sig.completed += 1
        wait = record.wait_time
        sig.wait_p95.add(wait)
        self.global_wait_p95.add(wait)
        self._service_sum += record.effective_service_time
        self._service_count += 1

    def on_failed(self, tenant: Optional[str]) -> None:
        self._tenant(tenant).failed += 1

    # -- queries ------------------------------------------------------------

    def queue_depth(self, tenant: Optional[str] = None) -> int:
        """Jobs admitted but not yet started for *tenant* (all when None)."""
        controller = getattr(self.broker, "admission_controller", None)
        if controller is not None:
            if tenant is not None:
                return controller.queued(tenant)
            return sum(
                controller.queued(name) for name in controller._queued
            )
        # Plain broker: in-flight counter (queued + running) as the proxy.
        if tenant is not None:
            sig = self.tenants.get(tenant)
            if sig is None:
                return 0
            return max(0, sig.admitted - sig.completed - sig.failed)
        return sum(
            max(0, s.admitted - s.completed - s.failed) for s in self.tenants.values()
        )

    def recent_p95(self, tenant: Optional[str] = None) -> Optional[float]:
        """Rolling p95 queue latency for *tenant* (global when None)."""
        if tenant is None:
            sketch = self.global_wait_p95
        else:
            sig = self.tenants.get(tenant)
            sketch = sig.wait_p95 if sig is not None else None
        if sketch is None or not sketch.count:
            return None
        return sketch.value

    def mean_service_time(self) -> Optional[float]:
        """Running mean job service time, or ``None`` before any completion."""
        if not self._service_count:
            return None
        return self._service_sum / self._service_count

    def device_utilization(self) -> Dict[str, float]:
        """Busy time per device relative to elapsed simulated time.

        Can exceed 1.0: devices multi-program jobs across their qubit
        capacity, so busy time accumulates per concurrent job.
        """
        now = self.env.now
        if now <= 0.0:
            return {d.name: 0.0 for d in self.env.cloud.devices}
        return {d.name: d.busy_time / now for d in self.env.cloud.devices}

    def outage_count(self) -> int:
        """Total outages observed across the fleet so far."""
        return sum(d.outage_count for d in self.env.cloud.devices)

    def snapshot(self) -> Dict[str, object]:
        """Full signal snapshot (for reports / CLI)."""
        return {
            "tenants": {name: sig.as_dict() for name, sig in sorted(self.tenants.items())},
            "queue_depth": self.queue_depth(),
            "global_wait_p95": self.recent_p95(),
            "mean_service_time": self.mean_service_time(),
            "device_utilization": self.device_utilization(),
            "outages": self.outage_count(),
        }
