"""Adaptive-QoS policy specs and the adaptive-policy registry.

An :class:`AdaptivePolicySpec` declares *which* controllers the closed-loop
control plane runs and with what gains.  Specs are frozen dataclasses so
their ``repr`` doubles as a content fingerprint for the experiment-engine
result cache (see :meth:`repro.registry.SpecRegistry.fingerprint`);
:data:`ADAPTIVE_POLICIES` is the registry.

Three presets ship built-in:

==============  ==============================================================
``static``      no controllers at all — byte-identical to an adaptive-less run
``reactive``    AIMD admission + SLO-aware planning + elastic pooling, all
                driven by *observed* signals (queue depth, rolling p95)
``predictive``  everything in ``reactive`` plus online arrival forecasting
                driving proactive checkpointing before rush/outage windows
==============  ==============================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.registry import SpecRegistry

__all__ = [
    "ADAPTIVE_POLICIES",
    "AdaptivePolicySpec",
    "register_adaptive_policy",
    "get_adaptive_policy",
    "available_adaptive_policies",
    "resolve_adaptive_policy",
]


@dataclass(frozen=True)
class AdaptivePolicySpec:
    """Configuration of the closed-loop control plane.

    Every gain is expressed relative to the *static* tenant spec it
    modulates (e.g. AIMD bounds are multiples of the configured token
    rate), so one preset works across tenant mixes.
    """

    name: str
    description: str = ""
    #: Simulated seconds between control-loop ticks.  The default is about
    #: one mean job service time: ticking much faster buys no information
    #: (signals move on job-completion timescales) and multiplies the
    #: control-plane's wall-clock cost across a run's long drain tail.
    tick_interval: float = 300.0

    # -- AdaptiveAdmission (AIMD token-rate control) -------------------------
    adaptive_admission: bool = False
    #: Additive increase per healthy tick, as a fraction of the base rate.
    aimd_increase: float = 0.25
    #: Multiplicative decrease factor applied on an SLO/backlog breach.
    aimd_decrease: float = 0.5
    #: Lower bound on the adapted rate, as a multiple of the base rate.
    aimd_floor: float = 0.1
    #: Upper bound on the adapted rate, as a multiple of the base rate.
    aimd_ceiling: float = 3.0
    #: Per-tenant queued-job count treated as a backlog breach.
    queue_depth_high: int = 12

    # -- SLOAwarePlanner (deadline/fidelity-biased plan()) -------------------
    slo_planner: bool = False
    #: Fraction of the queue deadline after which a waiting job counts as
    #: deadline-pressured and is steered to the fastest devices.
    deadline_pressure: float = 0.5
    #: Fraction of the fleet (by CLOPS / error score) forming a bias subset.
    latency_pool_fraction: float = 0.5

    # -- ElasticPooler (fidelity-tier pool re-partitioning) ------------------
    elastic_pooling: bool = False
    #: Minimum pool-size change, as a fraction of the fleet, required to
    #: actually re-partition (hysteresis against flapping).
    pool_hysteresis: float = 0.25

    # -- Forecasting + ProactiveCheckpointer ---------------------------------
    proactive_checkpointing: bool = False
    #: Observation window (simulated seconds) for online rate estimation.
    forecast_window: float = 900.0
    #: Look-ahead horizon for ``predicted_rate`` / rush detection.
    forecast_horizon: float = 600.0
    #: Predicted/baseline rate ratio above which a rush window is declared.
    rush_factor: float = 1.5
    #: Expected outages-per-job threshold above which checkpointing flips on.
    outage_risk_threshold: float = 0.05

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("adaptive policy name must be non-empty")
        if self.tick_interval <= 0:
            raise ValueError("tick_interval must be positive")
        if not 0.0 < self.aimd_decrease <= 1.0:
            raise ValueError("aimd_decrease must be in (0, 1]")
        if self.aimd_increase < 0:
            raise ValueError("aimd_increase must be non-negative")
        if not 0.0 < self.aimd_floor <= self.aimd_ceiling:
            raise ValueError("need 0 < aimd_floor <= aimd_ceiling")
        if self.queue_depth_high < 1:
            raise ValueError("queue_depth_high must be >= 1")
        if not 0.0 <= self.deadline_pressure <= 1.0:
            raise ValueError("deadline_pressure must be in [0, 1]")
        if not 0.0 < self.latency_pool_fraction <= 1.0:
            raise ValueError("latency_pool_fraction must be in (0, 1]")
        if self.pool_hysteresis < 0:
            raise ValueError("pool_hysteresis must be non-negative")
        if self.forecast_window <= 0 or self.forecast_horizon <= 0:
            raise ValueError("forecast window/horizon must be positive")
        if self.rush_factor <= 0:
            raise ValueError("rush_factor must be positive")
        if self.outage_risk_threshold < 0:
            raise ValueError("outage_risk_threshold must be non-negative")

    @property
    def is_static(self) -> bool:
        """True when no controller is enabled — the engine installs nothing."""
        return not (
            self.adaptive_admission
            or self.slo_planner
            or self.elastic_pooling
            or self.proactive_checkpointing
        )

    @property
    def controller_names(self) -> Tuple[str, ...]:
        """Names of the controllers this spec enables, in tick order."""
        names: List[str] = []
        if self.adaptive_admission:
            names.append("adaptive-admission")
        if self.slo_planner:
            names.append("slo-planner")
        if self.elastic_pooling:
            names.append("elastic-pooler")
        if self.proactive_checkpointing:
            names.append("proactive-checkpointer")
        return tuple(names)


ADAPTIVE_POLICIES: SpecRegistry[AdaptivePolicySpec] = SpecRegistry(
    "adaptive policy", AdaptivePolicySpec
)
register_adaptive_policy = ADAPTIVE_POLICIES.register
get_adaptive_policy = ADAPTIVE_POLICIES.get
available_adaptive_policies = ADAPTIVE_POLICIES.available
resolve_adaptive_policy = ADAPTIVE_POLICIES.resolve


def _register_presets() -> None:
    register_adaptive_policy(
        AdaptivePolicySpec(
            name="static",
            description="No-op control plane: every controller disabled "
            "(byte-identical to adaptive=None).",
        )
    )
    register_adaptive_policy(
        AdaptivePolicySpec(
            name="reactive",
            description="Observed-signal feedback: AIMD admission rates, "
            "SLO-aware planning and elastic device pools.",
            adaptive_admission=True,
            slo_planner=True,
            elastic_pooling=True,
        )
    )
    register_adaptive_policy(
        AdaptivePolicySpec(
            name="predictive",
            description="Reactive controllers plus online arrival "
            "forecasting driving proactive checkpointing.",
            adaptive_admission=True,
            slo_planner=True,
            elastic_pooling=True,
            proactive_checkpointing=True,
        )
    )


_register_presets()
