"""Unit and property tests for the qubit-region tracker."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.coupling import ibm_eagle_coupling, line_graph, ring_graph
from repro.hardware.qubit_regions import QubitRegionTracker


class TestAllocate:
    def test_connected_region_on_idle_device(self):
        tracker = QubitRegionTracker(ibm_eagle_coupling(50))
        allocation = tracker.allocate(20)
        assert allocation.size == 20
        assert allocation.connected
        assert nx.is_connected(tracker.coupling.subgraph(allocation.qubits))
        assert tracker.num_free == 30

    def test_allocation_exhausts_capacity(self):
        tracker = QubitRegionTracker(line_graph(10))
        tracker.allocate(10)
        assert tracker.num_free == 0
        with pytest.raises(ValueError):
            tracker.allocate(1)

    def test_invalid_size(self):
        tracker = QubitRegionTracker(line_graph(5))
        with pytest.raises(ValueError):
            tracker.allocate(0)
        with pytest.raises(ValueError):
            tracker.allocate(6)

    def test_fragmentation_forces_disconnected_region(self):
        # Occupy the middle of a line so the free qubits split into two
        # components of 4 and 4; a request for 6 cannot be connected.
        tracker = QubitRegionTracker(line_graph(12))
        middle = tracker.allocate(4)  # takes a connected block
        # Free the ends only if the block is in the middle; build explicitly:
        tracker.reset()
        # Manually occupy qubits 4..7 by allocating after shrinking free set:
        tracker._free -= {4, 5, 6, 7}
        allocation = tracker.allocate(6)
        assert not allocation.connected
        assert allocation.size == 6

    def test_connected_fraction_statistics(self):
        tracker = QubitRegionTracker(line_graph(12))
        tracker._free -= {4, 5, 6, 7}
        first = tracker.allocate(3)    # fits inside the {0,1,2,3} component
        second = tracker.allocate(5)   # only 1 + 4 qubits left in two components
        assert first.connected
        assert not second.connected
        assert tracker.allocations_total == 2
        assert tracker.allocations_connected == 1
        assert tracker.connected_fraction == pytest.approx(0.5)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            QubitRegionTracker(nx.Graph())


class TestRelease:
    def test_release_returns_qubits(self):
        tracker = QubitRegionTracker(ring_graph(16))
        a = tracker.allocate(10)
        tracker.release(a.handle)
        assert tracker.num_free == 16
        assert tracker.utilization == 0.0

    def test_release_unknown_handle(self):
        tracker = QubitRegionTracker(ring_graph(8))
        with pytest.raises(KeyError):
            tracker.release(42)

    def test_double_release_rejected(self):
        tracker = QubitRegionTracker(ring_graph(8))
        a = tracker.allocate(3)
        tracker.release(a.handle)
        with pytest.raises(KeyError):
            tracker.release(a.handle)

    def test_reset(self):
        tracker = QubitRegionTracker(ring_graph(8))
        tracker.allocate(5)
        tracker.reset()
        assert tracker.num_free == 8
        assert tracker.allocations_total == 0


@settings(max_examples=50, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=10))
def test_allocate_release_conserves_qubits(sizes):
    """Allocating and releasing arbitrary sequences never loses or duplicates qubits."""
    tracker = QubitRegionTracker(ibm_eagle_coupling(60))
    granted = []
    for size in sizes:
        if size > tracker.num_free:
            with pytest.raises(ValueError):
                tracker.allocate(size)
            continue
        allocation = tracker.allocate(size)
        # No overlap with still-held regions.
        for other in granted:
            assert not (allocation.qubits & other.qubits)
        granted.append(allocation)
    held = sum(a.size for a in granted)
    assert tracker.num_free == 60 - held
    for allocation in granted:
        tracker.release(allocation.handle)
    assert tracker.num_free == 60
