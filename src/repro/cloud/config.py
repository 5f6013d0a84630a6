"""Simulation configuration (paper §3, "Configurations Layer").

Users specify scheduling policies, simulation parameters and hardware
configurations up front; :class:`SimulationConfig` gathers all of them in one
typed, validated object that the experiment runners consume.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hardware.backends import DEFAULT_DEVICE_NAMES
from repro.registry import AXES

__all__ = ["SimulationConfig"]


@dataclass
class SimulationConfig:
    """All knobs of one simulation run.

    The defaults reproduce the paper's case study (§7): five 127-qubit IBM
    devices, 1,000 synthetic jobs with 130-250 qubits, depth 5-20 and
    10k-100k shots, λ = 0.02 s/qubit and φ = 0.95.

    The dispatch engine is not a knob: :class:`~repro.cloud.environment
    .QCloudSimEnv` runs the flat-event dispatcher for every configuration
    (any tenant mix, scenario or adaptive policy); only its ``fast_path=False``
    argument selects the per-job reference engine.  Both give byte-identical
    results.
    """

    #: Allocation policy name (see :mod:`repro.scheduling.registry`).
    policy: str = "speed"
    #: Devices to instantiate (catalogue names).
    device_names: List[str] = field(default_factory=lambda: list(DEFAULT_DEVICE_NAMES))
    #: Number of qubits per device.
    device_qubits: int = 127
    #: Quantum volume per device.
    quantum_volume: float = 127.0

    #: Number of synthetic jobs.
    num_jobs: int = 1000
    #: Qubit demand range of the synthetic jobs (inclusive).
    qubit_range: Tuple[int, int] = (130, 250)
    #: Circuit depth range (inclusive).
    depth_range: Tuple[int, int] = (5, 20)
    #: Shot count range (inclusive).
    shots_range: Tuple[int, int] = (10_000, 100_000)
    #: Fraction of qubit-layer slots occupied by two-qubit gates.
    two_qubit_density: float = 0.30
    #: Arrival process: "batch" (all at t=0) or "poisson".
    arrival: str = "batch"
    #: Poisson arrival rate (jobs/second) when ``arrival == "poisson"``.
    arrival_rate: float = 0.01

    #: Per-qubit classical communication latency λ (seconds).
    comm_latency_per_qubit: float = 0.02
    #: Per-link fidelity penalty φ.
    comm_fidelity_penalty: float = 0.95
    #: Communication qubit accounting ("per_link" or "non_primary").
    comm_accounting: str = "per_link"

    #: Workload / calibration seed.
    seed: int = 2025

    #: Named scenario injecting non-stationary world dynamics (calibration
    #: drift, outages, traffic shaping — see :mod:`repro.dynamics`), or a
    #: ``.jsonl`` trace path to replay.  ``None`` keeps the static world.
    scenario: Optional[str] = None

    #: Named multi-tenant mix (see :mod:`repro.serve`): tenants with priority
    #: classes, SLOs and admission limits sharing the fleet through the
    #: preemptive fair-share serve broker.  ``None`` keeps the plain
    #: single-queue broker (byte-identical to pre-serve runs).
    tenants: Optional[str] = None

    #: Starvation guard: a job terminally fails after this many requeues
    #: (outage kills + preemptions combined).
    max_requeues: int = 100

    #: Checkpointed preemption: aborted attempts (outage kills, maintenance
    #: windows, serve-layer preemptions) save their completed shots and the
    #: requeued job resumes with only the remainder, shot-weight-merging the
    #: partial fidelities.  Off by default — requeued jobs then re-execute
    #: from scratch, byte-identical to historical behaviour.
    checkpointing: bool = False

    #: Named multi-region topology (see :mod:`repro.region`): the run becomes
    #: a sharded cloud — one broker shard per region behind a routing tier,
    #: with inter-region transfer latency and fidelity penalties.  ``None``
    #: keeps the plain single-broker cloud; a one-region topology is
    #: byte-identical to it.
    regions: Optional[str] = None

    #: Routing policy of the multi-region front tier (only meaningful when
    #: ``regions`` is set): "locality", "least-loaded", "calibration-aware"
    #: or "round-robin".
    routing: str = "locality"

    #: Named adaptive QoS policy (see :mod:`repro.adaptive`): a closed-loop
    #: control plane sensing queue depth / tail latency / forecast arrivals
    #: and feeding them back into admission rates, allocation planning,
    #: device pooling and checkpointing.  ``None`` (and the ``static``
    #: preset) keeps the open-loop engine, byte-identical to pre-adaptive
    #: runs.  In a multi-region run every shard gets its own control loop.
    adaptive: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_jobs <= 0:
            raise ValueError("num_jobs must be positive")
        if self.device_qubits <= 0:
            raise ValueError("device_qubits must be positive")
        if not self.device_names:
            raise ValueError("at least one device is required")
        if self.qubit_range[0] > self.qubit_range[1]:
            raise ValueError("invalid qubit_range")
        if self.arrival not in ("batch", "poisson"):
            raise ValueError("arrival must be 'batch' or 'poisson'")
        if not 0.0 <= self.comm_fidelity_penalty <= 1.0:
            raise ValueError("comm_fidelity_penalty must be in [0, 1]")
        if self.comm_latency_per_qubit < 0:
            raise ValueError("comm_latency_per_qubit must be non-negative")
        if self.max_requeues < 0:
            raise ValueError("max_requeues must be non-negative")
        for axis in AXES:
            if getattr(self, axis.field) == "":
                raise ValueError(f"{axis.field} must be None or a non-empty name")
        if self.regions is not None:
            from repro.region.router import ROUTING_POLICIES

            if self.routing not in ROUTING_POLICIES:
                raise ValueError(
                    f"routing must be one of {ROUTING_POLICIES}, got {self.routing!r}"
                )

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view (for logging next to results)."""
        return asdict(self)

    def with_policy(self, policy: str) -> "SimulationConfig":
        """Copy of the configuration with a different allocation policy."""
        payload = asdict(self)
        payload["policy"] = policy
        return SimulationConfig(**payload)

    def scaled(self, num_jobs: int) -> "SimulationConfig":
        """Copy of the configuration with a different job count (for quick runs)."""
        payload = asdict(self)
        payload["num_jobs"] = num_jobs
        return SimulationConfig(**payload)
