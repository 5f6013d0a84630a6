"""Connected-region tracking on device coupling maps.

The paper's allocation workflow assumes that the qubits allocated to a
sub-job form a connected subgraph of the device topology, but deliberately
treats that as a black box because searching for optimal connected subgraphs
is combinatorially expensive (§5.2).  This module provides the machinery to
*check* that assumption:

* :class:`QubitRegionTracker` maintains the set of free physical qubits of
  one device, hands out regions (preferring connected ones, found with a
  cheap BFS heuristic over the free subgraph) and takes them back on release,
  while counting how often a connected region was actually available.

It is used by :mod:`repro.analysis.connectivity` to replay completed
simulations and quantify how often the black-box assumption holds under each
scheduling strategy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional

import networkx as nx

__all__ = ["RegionAllocation", "QubitRegionTracker"]


@dataclass(frozen=True)
class RegionAllocation:
    """One granted qubit region."""

    #: Opaque handle used to release the region later.
    handle: int
    #: The physical qubit indices granted.
    qubits: FrozenSet[int]
    #: Whether the region is connected in the device coupling map.
    connected: bool

    @property
    def size(self) -> int:
        """Number of qubits in the region."""
        return len(self.qubits)


class QubitRegionTracker:
    """Tracks free/busy physical qubits of one device and allocates regions.

    Parameters
    ----------
    coupling:
        The device coupling map (nodes = physical qubits).
    """

    def __init__(self, coupling: nx.Graph) -> None:
        if coupling.number_of_nodes() == 0:
            raise ValueError("coupling map must contain at least one qubit")
        self.coupling = coupling
        self._free = set(coupling.nodes())
        self._regions: Dict[int, FrozenSet[int]] = {}
        self._handles = itertools.count()
        #: Total allocations granted.
        self.allocations_total = 0
        #: Allocations whose region was connected.
        self.allocations_connected = 0

    # -- state -------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Total number of physical qubits."""
        return self.coupling.number_of_nodes()

    @property
    def num_free(self) -> int:
        """Number of currently free qubits."""
        return len(self._free)

    @property
    def utilization(self) -> float:
        """Fraction of qubits currently allocated."""
        return 1.0 - self.num_free / self.num_qubits

    @property
    def connected_fraction(self) -> float:
        """Fraction of granted allocations that were connected regions."""
        if self.allocations_total == 0:
            return 1.0
        return self.allocations_connected / self.allocations_total

    def free_qubits(self) -> FrozenSet[int]:
        """The currently free physical qubits."""
        return frozenset(self._free)

    # -- allocation ----------------------------------------------------------
    def _find_connected_region(self, size: int) -> Optional[FrozenSet[int]]:
        """BFS heuristic: a connected set of *size* free qubits, or ``None``."""
        free_subgraph = self.coupling.subgraph(self._free)
        for component in nx.connected_components(free_subgraph):
            if len(component) < size:
                continue
            start = min(component)
            order = list(nx.bfs_tree(free_subgraph.subgraph(component), start).nodes())
            return frozenset(order[:size])
        return None

    def allocate(self, size: int) -> RegionAllocation:
        """Grant *size* qubits, preferring a connected region.

        Falls back to an arbitrary set of free qubits (``connected=False``)
        when the free subgraph is too fragmented — this is exactly the case
        the paper's black-box abstraction glosses over.

        Raises ``ValueError`` when fewer than *size* qubits are free.
        """
        if size <= 0:
            raise ValueError("size must be positive")
        if size > self.num_free:
            raise ValueError(f"requested {size} qubits but only {self.num_free} are free")

        region = self._find_connected_region(size)
        connected = region is not None
        if region is None:
            region = frozenset(sorted(self._free)[:size])

        self._free -= region
        handle = next(self._handles)
        self._regions[handle] = region
        self.allocations_total += 1
        if connected:
            self.allocations_connected += 1
        return RegionAllocation(handle=handle, qubits=region, connected=connected)

    def release(self, handle: int) -> None:
        """Return a previously granted region to the free pool."""
        try:
            region = self._regions.pop(handle)
        except KeyError:
            raise KeyError(f"unknown or already-released region handle {handle}") from None
        self._free |= region

    def reset(self) -> None:
        """Free every qubit and clear the statistics."""
        self._free = set(self.coupling.nodes())
        self._regions.clear()
        self.allocations_total = 0
        self.allocations_connected = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<QubitRegionTracker free={self.num_free}/{self.num_qubits} "
            f"connected={self.connected_fraction:.2%}>"
        )
