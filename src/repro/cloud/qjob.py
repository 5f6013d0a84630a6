"""Quantum jobs (paper §3, ``QJob``).

A :class:`QJob` encapsulates one quantum task: a unique identifier, the
abstract circuit it carries (qubits, depth, shots, gate counts) and its
arrival time.  In this work each job contains exactly one circuit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.circuits.circuit import CircuitSpec

__all__ = ["QJobStatus", "QJob"]


class QJobStatus(enum.Enum):
    """Life-cycle states of a quantum job."""

    #: Created but not yet submitted to the broker.
    PENDING = "pending"
    #: Submitted and waiting for devices/qubits.
    QUEUED = "queued"
    #: Sub-jobs executing on one or more devices.
    RUNNING = "running"
    #: Devices exchanging classical data after execution.
    COMMUNICATING = "communicating"
    #: Finished successfully.
    COMPLETED = "completed"
    #: Failed (e.g. no feasible allocation).
    FAILED = "failed"
    #: Shed by the admission controller before entering the dispatch queue
    #: (multi-tenant serving only — see :mod:`repro.serve`).
    REJECTED = "rejected"


@dataclass
class QJob:
    """A quantum job: one circuit plus scheduling metadata.

    Attributes
    ----------
    job_id:
        Unique identifier.
    circuit:
        The abstract circuit to execute.
    arrival_time:
        Simulation time at which the job arrives (default 0).
    priority:
        Job importance, **smaller = more important** (any integer; negative
        values outrank the default 0).  Jobs sharing an arrival time are
        submitted in priority order, and the multi-tenant dispatch queue
        breaks fair-share ties by priority.
    tenant:
        Owning tenant name (``None`` outside multi-tenant serving runs; the
        serve broker stamps untagged jobs with its default tenant).
    """

    job_id: int
    circuit: CircuitSpec
    arrival_time: float = 0.0
    priority: int = 0
    tenant: Optional[str] = None
    status: QJobStatus = field(default=QJobStatus.PENDING, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.arrival_time < math.inf:
            raise ValueError("arrival_time must be finite and non-negative")
        if isinstance(self.priority, bool) or not isinstance(self.priority, int):
            raise TypeError(
                f"priority must be an int (smaller = more important), got {self.priority!r}"
            )

    # -- convenience accessors matching the paper's notation ----------------
    @property
    def num_qubits(self) -> int:
        """Total qubits required ``q``."""
        return self.circuit.num_qubits

    @property
    def depth(self) -> int:
        """Circuit depth ``d``."""
        return self.circuit.depth

    @property
    def num_shots(self) -> int:
        """Shots to execute ``s``."""
        return self.circuit.num_shots

    @property
    def num_two_qubit_gates(self) -> int:
        """Number of two-qubit gates ``t2``."""
        return self.circuit.num_two_qubit_gates

    def clone(self) -> "QJob":
        """A fresh copy with reset scheduling state (status back to PENDING).

        Used wherever one workload feeds several simulations (experiment
        cells, trace replays): the immutable circuit is shared, the mutable
        life-cycle fields start over.
        """
        return QJob(
            job_id=self.job_id,
            circuit=self.circuit,
            arrival_time=self.arrival_time,
            priority=self.priority,
            tenant=self.tenant,
        )

    def as_dict(self) -> Dict[str, object]:
        """CSV/JSON-friendly representation."""
        payload = self.circuit.as_dict()
        payload.update(
            {
                "job_id": self.job_id,
                "arrival_time": self.arrival_time,
                "priority": self.priority,
            }
        )
        if self.tenant is not None:
            payload["tenant"] = self.tenant
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "QJob":
        """Rebuild a job from :meth:`as_dict` output (also accepts CSV rows)."""
        circuit = CircuitSpec(
            num_qubits=int(payload["num_qubits"]),
            depth=int(payload["depth"]),
            num_shots=int(payload["num_shots"]),
            num_two_qubit_gates=int(payload.get("num_two_qubit_gates", 0)),
            num_single_qubit_gates=int(payload.get("num_single_qubit_gates", 0)),
            name=str(payload.get("name", f"job_{payload['job_id']}")),
        )
        tenant = payload.get("tenant")
        return cls(
            job_id=int(payload["job_id"]),
            circuit=circuit,
            arrival_time=float(payload.get("arrival_time", 0.0)),
            priority=int(payload.get("priority", 0)),
            tenant=str(tenant) if tenant else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QJob(id={self.job_id}, q={self.num_qubits}, d={self.depth}, "
            f"shots={self.num_shots}, arrival={self.arrival_time}, status={self.status.value})"
        )
