"""Scenario specifications: declarative descriptions of non-stationary clouds.

A :class:`Scenario` bundles the three world-dynamics families the simulator
can inject into a run — calibration drift, device availability and traffic
shaping — plus an RNG seed, so that a named scenario is a complete, bit-
reproducible description of *how the world changes over time*:

* :class:`DriftSpec` — per-device stochastic drift of the calibration error
  rates and coherence times (a lognormal random walk), with periodic
  recalibration pulling the device back toward its baseline snapshot,
* :class:`OutageSpec` — stochastic failures and repairs (exponential
  time-to-failure / time-to-repair) that take devices offline mid-run,
* :class:`MaintenanceWindow` — scheduled, deterministic offline windows,
* :class:`TrafficSpec` — non-Poisson arrival processes (MMPP bursts, diurnal
  rate modulation) and heavy-tailed job sizes.

All specs are frozen dataclasses: they are picklable (so experiment cells
carrying a scenario name stay shippable to process-pool workers), their
``repr`` is a stable content fingerprint (so results remain cacheable), and
they carry no runtime state — the :class:`~repro.dynamics.engine
.ScenarioEngine` owns all mutable world state during a run.

A scenario built from a recorded trace (see :mod:`repro.dynamics.trace`)
carries the pre-computed world events and workload instead of stochastic
specs; replaying it reproduces the original run exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = [
    "CALIBRATION_CATEGORIES",
    "WORLD_EVENT_KINDS",
    "WorldEvent",
    "DriftSpec",
    "OutageSpec",
    "MaintenanceWindow",
    "TrafficSpec",
    "Scenario",
]

#: Calibration quantities the drift process perturbs (multiplicative factors).
CALIBRATION_CATEGORIES = ("readout", "single_qubit", "two_qubit", "t1", "t2")

#: The kinds of world event :meth:`~repro.dynamics.engine.ScenarioEngine.apply`
#: knows.
WORLD_EVENT_KINDS = ("calibration", "recalibration", "offline", "online")


@dataclass(frozen=True)
class WorldEvent:
    """One applied world change: the unit of scenario recording and replay.

    Attributes
    ----------
    time:
        Simulation time the event was applied at.
    source:
        Identifier of the event source that produced it (``"drift"``,
        ``"outage:<device>"``, ``"maintenance"``).  Replay re-creates one
        event source per recorded source so same-time event interleaving is
        preserved.
    kind:
        ``"calibration"`` | ``"recalibration"`` | ``"offline"`` | ``"online"``.
    device:
        Target device name, or ``None`` for a fleet-wide event.
    payload:
        Kind-specific parameters (drift factors, recalibration strength,
        ``kill_running`` flag …).  Must be JSON-serialisable.
    """

    time: float
    source: str
    kind: str
    device: Optional[str]
    payload: Mapping[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (one trace line)."""
        return {
            "time": self.time,
            "source": self.source,
            "kind": self.kind,
            "device": self.device,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WorldEvent":
        """Rebuild an event from :meth:`as_dict` output.

        Raises ``ValueError`` for an unknown kind and for a time that is
        not a finite, non-negative number.
        """
        time = float(payload["time"])
        if not (math.isfinite(time) and time >= 0):
            raise ValueError(f"world-event time must be finite and non-negative, got {time}")
        kind = str(payload["kind"])
        if kind not in WORLD_EVENT_KINDS:
            raise ValueError(f"unknown world-event kind {kind!r}")
        return cls(
            time=time,
            source=str(payload["source"]),
            kind=kind,
            device=None if payload.get("device") is None else str(payload["device"]),
            payload=dict(payload.get("payload", {})),
        )


@dataclass(frozen=True)
class DriftSpec:
    """Stochastic calibration drift with periodic recalibration.

    Every *interval* simulated seconds each affected device's error rates take
    one step of a lognormal random walk (``rate *= exp(volatility * N(0,1))``)
    and its T1/T2 take one step with *coherence_volatility*.  Every
    *recalibration_period* seconds the accumulated log-deviation from the
    baseline snapshot is scaled by ``1 - recalibration_strength`` — strength
    1.0 snaps the device exactly back to its baseline calibration.
    """

    #: Seconds between drift steps.
    interval: float = 600.0
    #: Lognormal step volatility of the error rates.
    volatility: float = 0.05
    #: Lognormal step volatility of T1/T2.
    coherence_volatility: float = 0.02
    #: Seconds between recalibrations (``None`` — never recalibrate).
    recalibration_period: Optional[float] = 3600.0
    #: Fraction of accumulated drift removed per recalibration (0..1].
    recalibration_strength: float = 1.0
    #: Device names to drift (``None`` — the whole fleet).
    devices: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.volatility < 0 or self.coherence_volatility < 0:
            raise ValueError("volatilities must be non-negative")
        if self.recalibration_period is not None and self.recalibration_period <= 0:
            raise ValueError("recalibration_period must be positive when given")
        if not 0.0 < self.recalibration_strength <= 1.0:
            raise ValueError("recalibration_strength must be in (0, 1]")


@dataclass(frozen=True)
class OutageSpec:
    """Stochastic device outages and repairs.

    Each affected device independently alternates between up-time drawn from
    ``Exp(mtbf)`` and down-time drawn from ``Exp(mttr)``.  When a device goes
    down with ``kill_running=True`` its in-flight sub-jobs are interrupted and
    the owning jobs are requeued by the broker.
    """

    #: Mean time between failures (seconds of up-time).
    mtbf: float = 4000.0
    #: Mean time to repair (seconds of down-time).
    mttr: float = 300.0
    #: Device names that can fail (``None`` — the whole fleet).
    devices: Optional[Tuple[str, ...]] = None
    #: Interrupt in-flight sub-jobs when the device fails.
    kill_running: bool = True

    def __post_init__(self) -> None:
        if self.mtbf <= 0 or self.mttr <= 0:
            raise ValueError("mtbf and mttr must be positive")


@dataclass(frozen=True)
class MaintenanceWindow:
    """A scheduled offline window for one device (or the whole fleet)."""

    #: Window start (simulation seconds).
    start: float
    #: Window length (simulation seconds).
    duration: float
    #: Device name, or ``None`` for the whole fleet.
    device: Optional[str] = None
    #: Interrupt in-flight sub-jobs at window start (default: drain gracefully).
    kill_running: bool = False

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("start must be non-negative")
        if self.duration <= 0:
            raise ValueError("duration must be positive")


@dataclass(frozen=True)
class TrafficSpec:
    """Arrival-process and job-size shaping for the synthetic workload.

    ``model`` selects the arrival process:

    * ``"poisson"`` — homogeneous Poisson at *rate* (like the seed generator),
    * ``"mmpp"`` — a two-state Markov-modulated Poisson process alternating
      between a normal phase (*rate*, mean dwell *dwell_normal*) and a burst
      phase (*burst_rate*, mean dwell *dwell_burst*),
    * ``"diurnal"`` — a nonhomogeneous Poisson process whose rate swings
      sinusoidally between *rate* (trough) and *peak_rate* (crest) with the
      given *period*, sampled by thinning.

    ``qubit_dist = "heavy_tail"`` replaces the uniform qubit demand with a
    Pareto-tailed distribution (shape *tail_alpha*, scale = the configured
    minimum demand) clipped to ``max_qubits``.
    """

    model: str = "poisson"
    #: Base arrival rate (jobs/second).
    rate: float = 0.02
    #: Burst-phase arrival rate (``"mmpp"``).
    burst_rate: float = 0.25
    #: Mean dwell time of the normal phase, seconds (``"mmpp"``).
    dwell_normal: float = 1200.0
    #: Mean dwell time of the burst phase, seconds (``"mmpp"``).
    dwell_burst: float = 240.0
    #: Crest arrival rate (``"diurnal"``).
    peak_rate: float = 0.12
    #: Rate-modulation period, seconds (``"diurnal"``).
    period: float = 7200.0
    #: Phase offset of the diurnal modulation, radians (``"diurnal"``).  Two
    #: specs differing only in phase see the same rate envelope shifted in
    #: time — how multi-region topologies model timezones (a region ``pi``
    #: ahead peaks while another troughs; see :mod:`repro.region`).
    phase: float = 0.0
    #: Job-size distribution: ``"uniform"`` or ``"heavy_tail"``.
    qubit_dist: str = "uniform"
    #: Pareto tail index of the heavy-tail size distribution.
    tail_alpha: float = 2.2
    #: Upper clip of heavy-tailed demands (``None`` — 2x the configured max).
    max_qubits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.model not in ("poisson", "mmpp", "diurnal"):
            raise ValueError("model must be 'poisson', 'mmpp' or 'diurnal'")
        if self.qubit_dist not in ("uniform", "heavy_tail"):
            raise ValueError("qubit_dist must be 'uniform' or 'heavy_tail'")
        for name in ("rate", "burst_rate", "dwell_normal", "dwell_burst", "peak_rate", "period"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 1.0 < self.tail_alpha < math.inf:
            raise ValueError("tail_alpha must be finite and > 1 (finite mean)")
        if not math.isfinite(self.phase):
            raise ValueError("phase must be finite")
        if self.max_qubits is not None and self.max_qubits <= 0:
            raise ValueError("max_qubits must be positive when given")


@dataclass(frozen=True)
class Scenario:
    """A named, seeded composition of world-dynamics specs.

    A scenario with no specs at all (the ``static`` preset) injects nothing:
    a run with it is byte-identical to a run without any scenario.

    Replay scenarios (built by :func:`repro.dynamics.trace.load_trace`) carry
    ``replay_events``/``replay_sources``/``replay_jobs`` instead of stochastic
    specs; the engine then schedules exactly the recorded events.
    """

    name: str
    #: Scenario RNG seed; combined with the config seed per event source.
    seed: int = 0
    drift: Optional[DriftSpec] = None
    outages: Optional[OutageSpec] = None
    maintenance: Tuple[MaintenanceWindow, ...] = ()
    traffic: Optional[TrafficSpec] = None
    description: str = ""
    #: Recorded world events to replay verbatim (replay scenarios only).
    replay_events: Optional[Tuple[WorldEvent, ...]] = None
    #: Event-source creation order of the recorded run (replay scenarios only).
    replay_sources: Tuple[str, ...] = ()
    #: Recorded workload to replay verbatim (replay scenarios only).
    replay_jobs: Optional[tuple] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.replay_events is not None and (
            self.drift or self.outages or self.maintenance or self.traffic
        ):
            raise ValueError("a replay scenario cannot also carry stochastic specs")

    @property
    def is_replay(self) -> bool:
        """Whether this scenario replays a recorded trace."""
        return self.replay_events is not None

    @property
    def has_world_dynamics(self) -> bool:
        """Whether any world events will be injected into the DES."""
        if self.is_replay:
            return bool(self.replay_events)
        return bool(self.drift or self.outages or self.maintenance)

    @property
    def is_perpetual(self) -> bool:
        """Whether any event source runs forever (the run must stop on job
        completion rather than queue exhaustion)."""
        return not self.is_replay and bool(self.drift or self.outages)

    @property
    def is_static(self) -> bool:
        """Whether the scenario injects nothing at all."""
        return not self.has_world_dynamics and self.traffic is None and not self.is_replay
