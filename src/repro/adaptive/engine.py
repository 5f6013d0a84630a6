"""The adaptive engine: the DES control loop driving the controllers.

:class:`AdaptiveEngine` is the runtime of one
:class:`~repro.adaptive.spec.AdaptivePolicySpec` inside one simulation.  At
install time it

1. attaches itself to the broker as ``broker.adaptive``: the dispatch
   engine (:class:`~repro.cloud.fastpath.FlatDispatcher`) reports every
   submission, completion and failure to its
   :class:`~repro.adaptive.signals.SignalBus` and asks it for each
   execution attempt's checkpoint decision (an adaptive-less run is
   byte-identical because the engine skips every call while the attribute
   is ``None``),
2. builds an :class:`~repro.adaptive.forecast.OnlineArrivalForecaster`
   (with a diurnal period hint when the scenario/tenant traffic declares
   one),
3. instantiates and installs the enabled controllers, and
4. starts the control loop: a timed DES callback that ticks every
   controller each ``tick_interval`` simulated seconds and then schedules
   its next tick.

A ``static`` spec (no controllers) installs nothing at all — mirroring how
a static :class:`~repro.dynamics.engine.ScenarioEngine` installs no event
sources.  The control loop never consumes RNG, so seeded runs replay
bit-for-bit; in a multi-region simulation each shard builds its own engine
from the shared spec (one control loop per shard).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.adaptive.controllers import (
    AdaptiveAdmission,
    Controller,
    ElasticPooler,
    ProactiveCheckpointer,
    SLOAwarePlanner,
)
from repro.adaptive.forecast import OnlineArrivalForecaster
from repro.adaptive.signals import SignalBus
from repro.adaptive.spec import AdaptivePolicySpec

__all__ = ["AdaptiveEngine"]


def _period_hint(env: Any) -> Optional[float]:
    """Diurnal period declared by the scenario (or any tenant's) traffic."""
    scenario = getattr(env, "scenario", None)
    traffic = getattr(scenario, "traffic", None) if scenario is not None else None
    if traffic is not None and getattr(traffic, "model", None) == "diurnal":
        return traffic.period
    mix = getattr(env.broker, "mix", None)
    if mix is not None:
        for tenant in mix.tenants:
            t = tenant.traffic
            if t is not None and getattr(t, "model", None) == "diurnal":
                return t.period
    return None


class AdaptiveEngine:
    """Runtime of one adaptive policy inside one simulation.

    Parameters
    ----------
    env:
        The :class:`~repro.cloud.environment.QCloudSimEnv` (duck-typed: any
        DES environment exposing ``broker``, ``cloud``, ``timeout`` and
        ``start``).
    spec:
        The resolved adaptive policy.
    """

    def __init__(self, env: Any, spec: AdaptivePolicySpec) -> None:
        self.env = env
        self.spec = spec
        self.ticks = 0
        self._installed = False
        self.forecaster = OnlineArrivalForecaster(
            window=spec.forecast_window,
            period=_period_hint(env),
        )
        self.signals = SignalBus(env, forecaster=self.forecaster)
        self.pooler: Optional[ElasticPooler] = None
        self.checkpointer: Optional[ProactiveCheckpointer] = None
        self.controllers: List[Controller] = []
        if not spec.is_static:
            if spec.adaptive_admission:
                self.controllers.append(AdaptiveAdmission(self))
            if spec.slo_planner:
                self.controllers.append(SLOAwarePlanner(self))
            if spec.elastic_pooling:
                self.pooler = ElasticPooler(self)
                self.controllers.append(self.pooler)
            if spec.proactive_checkpointing:
                self.checkpointer = ProactiveCheckpointer(self)
                self.controllers.append(self.checkpointer)

    # -- installation ---------------------------------------------------------
    @property
    def perpetual(self) -> bool:
        """Whether the control loop keeps the event queue non-empty forever."""
        return bool(self.controllers)

    def install(self) -> None:
        """Attach to the broker, install controllers and start the control
        loop.

        A static spec installs nothing — the run is byte-identical to one
        with no adaptive policy at all.  Idempotent.
        """
        if self._installed or not self.controllers:
            return
        self._installed = True
        self.env.broker.adaptive = self
        for controller in self.controllers:
            controller.install()
        self.env.start(self._wait)

    def _wait(self, _event: Any) -> None:
        self.env.timeout(self.spec.tick_interval).callbacks.append(self._tick)

    def _tick(self, _event: Any) -> None:
        now = self.env.now
        for controller in self.controllers:
            controller.tick(now)
        self.ticks += 1
        self._wait(None)

    # -- broker hook ------------------------------------------------------------
    def checkpoint(self, job: Any) -> bool:
        """Whether *job*'s next execution attempt should checkpoint."""
        if self.checkpointer is None:
            return self.env.broker.checkpointing
        return self.checkpointer.decide(job)

    # -- reporting ------------------------------------------------------------
    def report(self) -> Dict[str, object]:
        """Snapshot of the control plane: signals, forecast and decisions."""
        return {
            "policy": self.spec.name,
            "controllers": [c.kind for c in self.controllers],
            "ticks": self.ticks,
            "signals": self.signals.snapshot(),
            "forecast": self.forecaster.fitted(),
            "decisions": {c.kind: c.report() for c in self.controllers},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<AdaptiveEngine policy={self.spec.name!r} "
            f"controllers={[c.kind for c in self.controllers]} ticks={self.ticks}>"
        )
