"""Allocation-policy interface and allocation plans.

A policy looks at the incoming job and the *current* state of the device
fleet (free qubits, error scores, CLOPS, utilisation) and either returns an
:class:`AllocationPlan` — which devices to use and how many qubits to place
on each — or ``None`` when no acceptable allocation is currently feasible
(in which case the broker waits for capacity to be released and asks again).

Policies never mutate devices; reservation and execution are handled by the
broker (Algorithm 1, steps 6-14).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

__all__ = ["DeviceAllocation", "AllocationPlan", "AllocationPolicy"]


@dataclass(frozen=True)
class DeviceAllocation:
    """Assignment of a number of qubits to one device."""

    #: The device object (duck-typed; any object with the QDevice interface).
    device: Any
    #: Number of qubits placed on that device (``a_i > 0``).
    num_qubits: int

    def __post_init__(self) -> None:
        if self.num_qubits <= 0:
            raise ValueError("num_qubits must be positive")


@dataclass(frozen=True)
class AllocationPlan:
    """A complete allocation of one job across one or more devices."""

    #: Per-device assignments, in execution order.
    allocations: tuple

    def __post_init__(self) -> None:
        if not self.allocations:
            raise ValueError("an allocation plan needs at least one device")
        names = [a.device.name for a in self.allocations]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate devices in allocation plan: {names}")

    @classmethod
    def from_pairs(cls, pairs: Sequence) -> "AllocationPlan":
        """Build a plan from ``(device, num_qubits)`` pairs, dropping zeros."""
        allocations = tuple(
            DeviceAllocation(device=device, num_qubits=int(qubits))
            for device, qubits in pairs
            if int(qubits) > 0
        )
        return cls(allocations=allocations)

    @property
    def num_devices(self) -> int:
        """Number of devices used (``k``)."""
        return len(self.allocations)

    @property
    def total_qubits(self) -> int:
        """Total qubits allocated (must equal the job's demand)."""
        return sum(a.num_qubits for a in self.allocations)

    @property
    def devices(self) -> List[Any]:
        """The device objects in plan order."""
        return [a.device for a in self.allocations]

    @property
    def device_names(self) -> List[str]:
        """Names of the devices in plan order."""
        return [a.device.name for a in self.allocations]

    @property
    def qubit_counts(self) -> List[int]:
        """Per-device qubit counts in plan order."""
        return [a.num_qubits for a in self.allocations]


class AllocationPolicy(abc.ABC):
    """Base class of all device-selection policies (§5)."""

    #: Short identifier used in tables, the registry and result records.
    name: str = "base"

    @abc.abstractmethod
    def plan(self, job: Any, devices: Sequence[Any]) -> Optional[AllocationPlan]:
        """Propose an allocation of *job* over *devices*.

        Parameters
        ----------
        job:
            The :class:`~repro.cloud.qjob.QJob` to place; only its resource
            requirements are inspected.
        devices:
            The fleet of devices (duck-typed QDevice objects exposing
            ``free_qubits``, ``num_qubits``, ``clops``, ``error_score()`` and
            ``utilization``).

        Returns
        -------
        An :class:`AllocationPlan` that is feasible *right now* (every device
        has the planned number of free qubits), or ``None`` if the policy
        prefers to wait for capacity to be released.
        """

    # -- helpers shared by concrete policies ---------------------------------
    @staticmethod
    def _greedy_fill(job: Any, ordered_devices: Sequence[Any]) -> Optional[AllocationPlan]:
        """Fill the ordered devices' free capacity until the job fits.

        Equivalent to ``partition_greedy_fill`` over the devices' free
        capacities followed by :meth:`AllocationPlan.from_pairs`, fused into
        one pass — this helper sits on the per-job hot path of every
        list-based policy, so it avoids the intermediate capacity/allocation
        lists and the redundant re-validation of a freshly built greedy fill.
        """
        total = job.num_qubits
        if total <= 0:
            raise ValueError("total must be positive")
        remaining = total
        allocations = []
        for device in ordered_devices:
            if remaining > 0:
                free = device.free_qubits
                take = free if free < remaining else remaining
                if take > 0:
                    allocations.append(DeviceAllocation(device=device, num_qubits=take))
                    remaining -= take
        if remaining > 0:
            return None
        return AllocationPlan(allocations=tuple(allocations))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
