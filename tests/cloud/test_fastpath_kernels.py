"""Bit-identity of the fast-path device kernels against the legacy methods.

The flat dispatcher computes durations and fidelities through the scalar and
batch kernels on :class:`~repro.cloud.qdevice.IBMQuantumDevice`; byte
identity of the engines rests on these being *exactly* the legacy
``calculate_process_time`` / ``compute_fidelity_breakdown`` results — same
IEEE operations in the same order, not merely close.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.circuit import CircuitSpec
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.cloud.qdevice import BaseQDevice, IBMQuantumDevice
from repro.des.environment import Environment


@pytest.fixture
def device(small_profile):
    return IBMQuantumDevice(Environment(), small_profile)


def _spec(qubits=4, depth=7, shots=500, t2=9):
    return CircuitSpec(num_qubits=qubits, depth=depth, num_shots=shots,
                       num_two_qubit_gates=t2)


class TestProcessTimeKernels:
    SHOTS = [1, 7, 100, 999, 10_000, 100_000, 123_457]

    def test_scalar_matches_legacy_bitwise(self, device):
        for shots in self.SHOTS:
            legacy = device.calculate_process_time(_spec(shots=shots))
            assert device.scalar_process_time(shots) == legacy

    def test_batch_matches_scalar_bitwise(self, device):
        batch = device.batch_process_times(self.SHOTS)
        assert batch.dtype == np.float64
        for shots, value in zip(self.SHOTS, batch):
            assert float(value) == device.scalar_process_time(shots)

    def test_nonpositive_shots_rejected(self, device):
        with pytest.raises(ValueError):
            device.scalar_process_time(0)
        with pytest.raises(ValueError):
            device.batch_process_times([100, 0, 50])

    def test_empty_batch(self, device):
        assert len(device.batch_process_times([])) == 0

    def test_log2_qv_cache_tracks_reassignment(self, device):
        before = device.scalar_process_time(100)
        device.quantum_volume *= 2.0
        after = device.scalar_process_time(100)
        assert after != before
        assert after == device.calculate_process_time(_spec(shots=100))


class TestFidelityKernels:
    CASES = [
        # (qubits, depth, t2, total_qubits, num_devices)
        (4, 7, 9, 4, 1),
        (3, 5, 0, 9, 3),
        (8, 20, 48, 16, 2),
        (1, 1, 0, 5, 5),
    ]

    def test_scalar_matches_legacy_bitwise(self, device):
        for qubits, depth, t2, total, ndev in self.CASES:
            legacy = device.compute_fidelity_breakdown(
                _spec(qubits=qubits, depth=depth, t2=t2),
                num_devices=ndev,
                total_qubits=total,
            )
            fast = device.scalar_fidelity_breakdown(qubits, depth, t2, total, ndev)
            assert fast.device_name == legacy.device_name
            assert fast.qubits_allocated == legacy.qubits_allocated
            assert fast.single_qubit == legacy.single_qubit
            assert fast.two_qubit == legacy.two_qubit
            assert fast.readout == legacy.readout

    def test_batch_matches_scalar_bitwise(self, device):
        qubits, depths, t2s, totals, ndevs = zip(*self.CASES)
        batch = device.batch_fidelity_breakdowns(qubits, depths, t2s, totals, ndevs)
        assert len(batch) == len(self.CASES)
        for got, case in zip(batch, self.CASES):
            want = device.scalar_fidelity_breakdown(*case)
            assert got.qubits_allocated == want.qubits_allocated
            assert got.single_qubit == want.single_qubit
            assert got.two_qubit == want.two_qubit
            assert got.readout == want.readout


class TestDirectQubitArithmetic:
    """Both engines reserve through the one synchronous counter pair."""

    def test_reserve_then_release_round_trip(self, device):
        free = device.free_qubits
        device.reserve_qubits(4)
        assert device.free_qubits == free - 4
        device.release_qubits(4)
        assert device.free_qubits == free

    def test_both_engines_make_the_same_reservations(self, monkeypatch):
        """The flat and per-job engines make the same reservations.

        Both call :meth:`BaseQDevice.reserve_qubits` /
        :meth:`BaseQDevice.release_qubits` at dispatch and completion, so the
        logged (time, device, amount) calls agree and every device ends the
        run with all of its qubits free.
        """
        reserve, release = BaseQDevice.reserve_qubits, BaseQDevice.release_qubits

        def run(fast_path):
            calls = []

            def logged(method, op):
                def wrapper(self, amount):
                    calls.append((op, self.env.now, self.name, amount))
                    method(self, amount)
                return wrapper

            monkeypatch.setattr(BaseQDevice, "reserve_qubits", logged(reserve, "reserve"))
            monkeypatch.setattr(BaseQDevice, "release_qubits", logged(release, "release"))
            sim = QCloudSimEnv(SimulationConfig(num_jobs=40, seed=3), fast_path=fast_path)
            sim.run_until_complete()
            assert sim.fast_path_active is fast_path
            assert all(d.free_qubits == d.num_qubits for d in sim.cloud.devices)
            return sorted(calls)

        flat, per_job = run(True), run(False)
        assert flat == per_job
        assert sum(op == "reserve" for op, *_ in flat) >= 40

    def test_aborted_runs_release_their_reservations(self):
        """Outage aborts release through the same pair as completions."""
        sim = QCloudSimEnv(
            SimulationConfig(num_jobs=200, policy="fidelity"), scenario="flaky-fleet"
        )
        records = sim.run_until_complete()
        assert len(records) == 200
        assert sum(r.retries for r in records) > 0
        assert all(d.free_qubits == d.num_qubits for d in sim.cloud.devices)

    def test_validation(self, device):
        with pytest.raises(ValueError):
            device.reserve_qubits(0)
        with pytest.raises(ValueError):
            device.release_qubits(-1)
        with pytest.raises(RuntimeError, match="cannot reserve"):
            device.reserve_qubits(device.free_qubits + 1)
        with pytest.raises(RuntimeError, match="exceed"):
            device.release_qubits(1)  # already at capacity
