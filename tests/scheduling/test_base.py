"""Unit tests for allocation plans and the policy base class."""

import pytest

from repro.scheduling.base import AllocationPlan, AllocationPolicy, DeviceAllocation


class FakeDevice:
    def __init__(self, name, free, capacity=127, clops=100_000, score=0.01, utilization=None):
        self.name = name
        self.free_qubits = free
        self.num_qubits = capacity
        self.clops = clops
        self._score = score
        self.utilization = (
            utilization if utilization is not None else 1.0 - free / capacity
        )

    def error_score(self, **kwargs):
        return self._score


class TestDeviceAllocation:
    def test_positive_qubits_required(self):
        with pytest.raises(ValueError):
            DeviceAllocation(FakeDevice("d", 10), 0)


class TestAllocationPlan:
    def test_from_pairs_drops_zeros(self):
        devices = [FakeDevice("a", 100), FakeDevice("b", 100), FakeDevice("c", 100)]
        plan = AllocationPlan.from_pairs(zip(devices, [60, 0, 40]))
        assert plan.num_devices == 2
        assert plan.device_names == ["a", "c"]
        assert plan.qubit_counts == [60, 40]
        assert plan.total_qubits == 100

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            AllocationPlan.from_pairs([])

    def test_duplicate_devices_rejected(self):
        device = FakeDevice("a", 100)
        with pytest.raises(ValueError):
            AllocationPlan.from_pairs([(device, 10), (device, 20)])


class TestGreedyHelper:
    class _Policy(AllocationPolicy):
        name = "test"

        def plan(self, job, devices):
            return self._greedy_fill(job, list(devices))

    class _Job:
        def __init__(self, q):
            self.num_qubits = q

    def test_greedy_fill_uses_order(self):
        devices = [FakeDevice("a", 100), FakeDevice("b", 100)]
        plan = self._Policy().plan(self._Job(150), devices)
        assert plan.device_names == ["a", "b"]
        assert plan.qubit_counts == [100, 50]

    def test_greedy_fill_returns_none_when_infeasible(self):
        devices = [FakeDevice("a", 60), FakeDevice("b", 60)]
        assert self._Policy().plan(self._Job(150), devices) is None
