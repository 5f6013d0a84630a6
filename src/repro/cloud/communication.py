"""Inter-device classical communication model (paper §6.4-§6.5).

When a job is split over ``k`` devices, the devices must exchange
intermediate measurement outcomes over real-time classical channels:

* every inter-device link degrades the final fidelity by a factor ``phi``
  (Eq. 8, default 0.95),
* the classical transfer is a *blocking* delay proportional to the number of
  qubits communicated (Eq. 9, default 0.02 s per qubit).

The accounting of "qubits communicated" is configurable; the default counts
the full job width once per inter-device link (all fragments broadcast their
measurement outcomes across each of the ``k - 1`` links), which is the
per-link model implied by the paper's Table 2 numbers.  The alternative
``"non_primary"`` mode counts only the qubits residing away from the largest
fragment and is explored in the ablation benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.metrics.fidelity import DEFAULT_COMMUNICATION_PENALTY, communication_penalty
from repro.metrics.timing import DEFAULT_COMM_LATENCY_PER_QUBIT, communication_time

__all__ = ["ClassicalCommunicationModel"]


@dataclass(frozen=True)
class ClassicalCommunicationModel:
    """Parameters of the classical inter-device communication model.

    Attributes
    ----------
    latency_per_qubit:
        Per-qubit classical communication latency λ in seconds (Eq. 9).
    fidelity_penalty:
        Per-link fidelity penalty φ (Eq. 8).
    accounting:
        ``"per_link"`` (default): each of the ``k-1`` links transfers the full
        job width; ``"non_primary"``: only qubits outside the largest fragment
        are transferred (once).
    """

    latency_per_qubit: float = DEFAULT_COMM_LATENCY_PER_QUBIT
    fidelity_penalty: float = DEFAULT_COMMUNICATION_PENALTY
    accounting: str = "per_link"

    _ACCOUNTING_MODES = ("per_link", "non_primary")

    def __post_init__(self) -> None:
        if not 0 <= self.latency_per_qubit < math.inf:
            raise ValueError(
                f"latency_per_qubit must be finite and non-negative, got {self.latency_per_qubit}"
            )
        if not 0.0 <= self.fidelity_penalty <= 1.0:
            raise ValueError("fidelity_penalty must be in [0, 1]")
        if self.accounting not in self._ACCOUNTING_MODES:
            raise ValueError(
                f"accounting must be one of {self._ACCOUNTING_MODES}, got {self.accounting!r}"
            )

    # -- qubit accounting -----------------------------------------------------
    def qubits_communicated(self, allocation: Sequence[int]) -> int:
        """Number of qubits whose outcomes must be exchanged classically."""
        allocation = [int(a) for a in allocation if int(a) > 0]
        if len(allocation) <= 1:
            return 0
        total = sum(allocation)
        if self.accounting == "per_link":
            return (len(allocation) - 1) * total
        # "non_primary": everything that is not on the largest fragment moves once.
        return total - max(allocation)

    # -- derived quantities -----------------------------------------------------
    def communication_delay(self, allocation: Sequence[int]) -> float:
        """Blocking classical-communication delay for the given allocation (Eq. 9)."""
        return communication_time(self.qubits_communicated(allocation), self.latency_per_qubit)

    def penalty(self, num_devices: int) -> float:
        """Fidelity penalty factor ``phi^(k-1)`` (Eq. 8)."""
        return communication_penalty(num_devices, self.fidelity_penalty)
