"""Speed-optimised allocation (paper §5, "Speed-based Mode").

The policy prioritises minimising execution time: devices are ordered by
processing capability (CLOPS, highest first) without considering noise
levels, and the job's qubits are packed greedily into the free capacity of
the fastest devices.  When the fastest devices are partially busy the job
spills over onto slower ones, which is what produces the higher
fragmentation (and hence communication overhead) reported for this strategy
in Table 2.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.scheduling.base import AllocationPlan, AllocationPolicy

__all__ = ["SpeedPolicy"]


class SpeedPolicy(AllocationPolicy):
    """Select the fastest (highest-CLOPS) devices first."""

    name = "speed"

    def __init__(self, prefer_idle: bool = True) -> None:
        #: When two devices have the same CLOPS, prefer the one with more free
        #: qubits (reduces unnecessary fragmentation among equals).
        self.prefer_idle = bool(prefer_idle)
        # CLOPS is static per device but free capacity is not, so the full
        # sort key is per-call — yet only the free-qubit tie-break between
        # equal-CLOPS devices can actually change between calls.  Partition
        # the fleet once per devices sequence (the fast-path dispatcher
        # passes the same list object every plan; keyed by identity, with
        # the sequence kept referenced so the identity stays valid) into
        # descending-CLOPS groups, then each plan only re-sorts the
        # multi-device groups.  The concatenated order is exactly the
        # ``(-clops, -free_qubits, name)`` global sort.  Callers must treat
        # the passed sequence as an immutable snapshot (``QCloud`` builds a
        # fresh list when the fleet changes).
        self._groups_for: Optional[Sequence[Any]] = None
        self._groups: List[List[Any]] = []
        self._static_order: List[Any] = []

    def _partition(self, devices: Sequence[Any]) -> None:
        ordered = sorted(devices, key=lambda d: (-d.clops, d.name))
        groups: List[List[Any]] = []
        last_clops = None
        for device in ordered:
            if groups and device.clops == last_clops:
                groups[-1].append(device)
            else:
                groups.append([device])
                last_clops = device.clops
        self._groups = groups
        self._static_order = ordered
        self._groups_for = devices

    def plan(self, job: Any, devices: Sequence[Any]) -> Optional[AllocationPlan]:
        if devices is not self._groups_for:
            self._partition(devices)
        if not self.prefer_idle:
            # No dynamic tie-break: the CLOPS/name order is fully static.
            return self._greedy_fill(job, self._static_order)
        ordered: List[Any] = []
        for group in self._groups:
            if len(group) == 1:
                ordered.append(group[0])
            else:
                ordered.extend(sorted(group, key=lambda d: (-d.free_qubits, d.name)))
        return self._greedy_fill(job, ordered)
