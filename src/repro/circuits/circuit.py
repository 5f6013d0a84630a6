"""Abstract circuit specification.

The simulator never executes gates; what matters for scheduling and for the
analytic fidelity model are the circuit's resource demands: width (qubits),
depth, shot count and the number of single-/two-qubit gates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

__all__ = ["CircuitSpec"]


@dataclass(frozen=True)
class CircuitSpec:
    """Resource footprint of a quantum circuit.

    Attributes
    ----------
    num_qubits:
        Circuit width ``q``.
    depth:
        Circuit depth ``d`` (number of layers).
    num_shots:
        Number of measurement repetitions ``s``.
    num_two_qubit_gates:
        Total two-qubit gate count ``t2``.
    num_single_qubit_gates:
        Total single-qubit gate count (informational; the fidelity model uses
        depth for single-qubit error compounding, Eq. 4).
    name:
        Optional human-readable label (e.g. ``"ghz_150"``).
    """

    num_qubits: int
    depth: int
    num_shots: int
    num_two_qubit_gates: int
    num_single_qubit_gates: int = 0
    name: str = "circuit"

    def __post_init__(self) -> None:
        if self.num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        if self.depth <= 0:
            raise ValueError("depth must be positive")
        if self.num_shots <= 0:
            raise ValueError("num_shots must be positive")
        if self.num_two_qubit_gates < 0:
            raise ValueError("num_two_qubit_gates must be non-negative")
        if self.num_single_qubit_gates < 0:
            raise ValueError("num_single_qubit_gates must be non-negative")

    # -- derived quantities -------------------------------------------------
    def subcircuit(self, num_qubits: int, name: Optional[str] = None) -> "CircuitSpec":
        """Resource footprint of the fragment placed on one device.

        When a job is partitioned, each device receives a fragment of
        ``num_qubits`` qubits; gate counts are apportioned proportionally to
        the fragment's share of the original width, while depth and shots are
        preserved (all fragments execute the same number of layers/shots in
        lock-step, synchronised through classical communication).
        """
        if not 0 < num_qubits <= self.num_qubits:
            raise ValueError(
                f"fragment width {num_qubits} must be in (0, {self.num_qubits}]"
            )
        fraction = num_qubits / self.num_qubits
        return replace(
            self,
            num_qubits=num_qubits,
            num_two_qubit_gates=int(round(self.num_two_qubit_gates * fraction)),
            num_single_qubit_gates=int(round(self.num_single_qubit_gates * fraction)),
            name=name if name is not None else f"{self.name}[{num_qubits}q]",
        )

    def with_shots(self, num_shots: int) -> "CircuitSpec":
        """The same circuit with a different shot count.

        Used by checkpointed resume: a requeued job re-executes only the
        shots its aborted attempts did not complete, so the broker rebuilds
        the circuit with the remaining shot budget (width, depth and gate
        counts unchanged).
        """
        if num_shots <= 0:
            raise ValueError("num_shots must be positive")
        return replace(self, num_shots=num_shots)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view (JSON/CSV-safe)."""
        return {
            "name": self.name,
            "num_qubits": self.num_qubits,
            "depth": self.depth,
            "num_shots": self.num_shots,
            "num_two_qubit_gates": self.num_two_qubit_gates,
            "num_single_qubit_gates": self.num_single_qubit_gates,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CircuitSpec":
        """Rebuild a spec from :meth:`as_dict` output."""
        return cls(
            num_qubits=int(payload["num_qubits"]),
            depth=int(payload["depth"]),
            num_shots=int(payload["num_shots"]),
            num_two_qubit_gates=int(payload["num_two_qubit_gates"]),
            num_single_qubit_gates=int(payload.get("num_single_qubit_gates", 0)),
            name=str(payload.get("name", "circuit")),
        )
