"""repro.adaptive — the closed-loop adaptive QoS control plane.

Senses queue depth, tail latency, utilisation and arrivals
(:mod:`~repro.adaptive.signals`), forecasts load online
(:mod:`~repro.adaptive.forecast`), and feeds both back into admission,
planning, pooling and checkpointing through ticked controllers
(:mod:`~repro.adaptive.controllers`) driven by one DES control loop
(:mod:`~repro.adaptive.engine`).  Select a policy with
``SimulationConfig(adaptive="reactive")`` or ``repro serve --adaptive
predictive``; ``adaptive=None`` (and the ``static`` preset) is
byte-identical to a run without the subsystem.
"""

from repro.adaptive.controllers import (
    AdaptiveAdmission,
    Controller,
    ElasticPooler,
    ProactiveCheckpointer,
    SLOAwarePlanner,
)
from repro.adaptive.engine import AdaptiveEngine
from repro.adaptive.forecast import OnlineArrivalForecaster
from repro.adaptive.signals import SignalBus, TenantSignals
from repro.adaptive.spec import (
    ADAPTIVE_POLICIES,
    AdaptivePolicySpec,
    available_adaptive_policies,
    get_adaptive_policy,
    register_adaptive_policy,
    resolve_adaptive_policy,
)

__all__ = [
    "ADAPTIVE_POLICIES",
    "AdaptivePolicySpec",
    "AdaptiveEngine",
    "AdaptiveAdmission",
    "Controller",
    "ElasticPooler",
    "OnlineArrivalForecaster",
    "ProactiveCheckpointer",
    "SLOAwarePlanner",
    "SignalBus",
    "TenantSignals",
    "available_adaptive_policies",
    "get_adaptive_policy",
    "register_adaptive_policy",
    "resolve_adaptive_policy",
]
