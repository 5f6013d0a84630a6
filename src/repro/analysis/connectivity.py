"""Connectivity audit: how often does the §5.2 black-box assumption hold?

The allocation workflow assumes every sub-job's qubits form a connected
subgraph of its device's topology (§4) but never searches for one (§5.2).
:func:`audit_connectivity` replays a completed simulation against the real
coupling maps: sub-jobs are mapped to physical qubit regions in start-time
order (connected regions preferred, BFS heuristic) and released at their
finish times, exactly mirroring the simulated schedule.  The result reports,
per device and overall, the fraction of sub-job placements for which a
connected region was actually available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.hardware.qubit_regions import QubitRegionTracker

__all__ = ["ConnectivityAudit", "audit_connectivity"]


@dataclass
class ConnectivityAudit:
    """Result of replaying one strategy's schedule against the coupling maps."""

    #: Total sub-job placements replayed.
    total_placements: int
    #: Placements for which a connected free region existed.
    connected_placements: int
    #: Per-device connected fraction.
    per_device: Dict[str, float] = field(default_factory=dict)

    @property
    def connected_fraction(self) -> float:
        """Overall fraction of placements that found a connected region."""
        if self.total_placements == 0:
            return 1.0
        return self.connected_placements / self.total_placements


def audit_connectivity(records: Sequence[object], devices: Sequence[object]) -> ConnectivityAudit:
    """Replay completed job records against the devices' coupling maps.

    Parameters
    ----------
    records:
        Completed :class:`~repro.cloud.records.JobRecord` objects (need
        ``start_time``, ``finish_time``, ``devices`` and ``allocation``).
    devices:
        Device objects or profiles exposing ``name`` and ``coupling``.

    Returns
    -------
    A :class:`ConnectivityAudit` with overall and per-device statistics.
    """
    trackers = {d.name: QubitRegionTracker(d.coupling) for d in devices}

    # Build the event list: (time, order, kind, record). Releases at a given
    # time are processed before allocations at the same time, matching the
    # simulator (qubits are released before the capacity-released signal lets
    # the next job reserve them).
    events: List[tuple] = []
    for record in records:
        events.append((record.start_time, 1, "allocate", record))
        events.append((record.finish_time, 0, "release", record))
    events.sort(key=lambda e: (e[0], e[1]))

    held: Dict[int, List[tuple]] = {}
    total = 0
    connected = 0
    for _time, _order, kind, record in events:
        if kind == "allocate":
            handles = []
            for device_name, amount in zip(record.devices, record.allocation):
                allocation = trackers[device_name].allocate(amount)
                handles.append((device_name, allocation.handle))
                total += 1
                if allocation.connected:
                    connected += 1
            held[record.job_id] = handles
        else:
            for device_name, handle in held.pop(record.job_id, []):
                trackers[device_name].release(handle)

    per_device = {name: tracker.connected_fraction for name, tracker in trackers.items()}
    return ConnectivityAudit(
        total_placements=total, connected_placements=connected, per_device=per_device
    )
