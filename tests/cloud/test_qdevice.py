"""Unit tests for the QDevice hierarchy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import CircuitSpec
from repro.cloud.qdevice import BaseQDevice, IBMQuantumDevice
from repro.des.environment import Environment
from repro.hardware.backends import get_device_profile
from repro.metrics.error_score import error_score_from_averages
from repro.metrics.timing import processing_time_minutes


@pytest.fixture
def device(env, small_profile):
    return IBMQuantumDevice(env, small_profile)


def fragment(q=5, depth=8, shots=10_000, t2=12):
    return CircuitSpec(num_qubits=q, depth=depth, num_shots=shots, num_two_qubit_gates=t2)


class TestBaseQDevice:
    def test_capacity_accounting(self, env):
        dev = BaseQDevice(env, "dev", 20)
        assert dev.free_qubits == 20
        assert dev.used_qubits == 0
        assert dev.utilization == 0.0

    def test_reserve_and_release(self, env):
        dev = BaseQDevice(env, "dev", 20)
        dev.reserve_qubits(15)
        assert (dev.free_qubits, dev.utilization) == (5, 0.75)
        dev.release_qubits(15)
        assert (dev.free_qubits, dev.utilization) == (20, 0.0)

    def test_amount_must_be_positive(self, env):
        dev = BaseQDevice(env, "dev", 10)
        with pytest.raises(ValueError):
            dev.reserve_qubits(0)
        with pytest.raises(ValueError):
            dev.release_qubits(-1)

    def test_over_draw_raises(self, env):
        dev = BaseQDevice(env, "dev", 10)
        with pytest.raises(RuntimeError, match="cannot reserve"):
            dev.reserve_qubits(11)
        dev.reserve_qubits(6)
        with pytest.raises(RuntimeError, match=r"cannot reserve 5 qubits on dev \(4 free\)"):
            dev.reserve_qubits(5)
        assert dev.free_qubits == 4

    def test_over_release_raises(self, env):
        dev = BaseQDevice(env, "dev", 10)
        with pytest.raises(RuntimeError, match="would exceed capacity"):
            dev.release_qubits(3)
        assert dev.free_qubits == 10
        dev.reserve_qubits(2)
        with pytest.raises(RuntimeError, match=r"exceed capacity \(8/10\)"):
            dev.release_qubits(3)
        assert dev.free_qubits == 8

    def test_reserve_whole_device_then_release_in_parts(self, env):
        dev = BaseQDevice(env, "dev", 12)
        dev.reserve_qubits(12)
        assert (dev.free_qubits, dev.used_qubits, dev.utilization) == (0, 12, 1.0)
        for expected_free in (5, 9, 12):
            dev.release_qubits(expected_free - dev.free_qubits)
            assert dev.free_qubits == expected_free
        assert type(dev.free_qubits) is int

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            BaseQDevice(env, "dev", 0)


@settings(max_examples=75, deadline=None)
@given(
    jobs=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=40),
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
        ),
        min_size=1,
        max_size=20,
    ),
    capacity=st.integers(min_value=40, max_value=200),
)
def test_qubit_counter_conserved_under_concurrent_churn(jobs, capacity):
    """Interleaved reserve/release keeps the level in [0, capacity]; a
    refused over-draw leaves it unchanged; balanced churn restores it."""
    env = Environment()
    dev = BaseQDevice(env, "dev", capacity)
    observed = []

    def churn(amount, hold):
        def attempt(_event):
            if dev.free_qubits < amount:
                free = dev.free_qubits
                with pytest.raises(RuntimeError):
                    dev.reserve_qubits(amount)
                assert dev.free_qubits == free
                env.timeout(1).callbacks.append(attempt)
                return
            dev.reserve_qubits(amount)
            observed.append(dev.free_qubits)
            env.timeout(hold).callbacks.append(release)

        def release(_event):
            dev.release_qubits(amount)
            observed.append(dev.free_qubits)

        return attempt

    for amount, arrive, hold in jobs:
        env.timeout(arrive).callbacks.append(churn(amount, hold))
    env.run()

    assert dev.free_qubits == capacity
    assert len(observed) == 2 * len(jobs)
    assert all(0 <= level <= capacity for level in observed)
    with pytest.raises(RuntimeError):
        dev.release_qubits(1)


class TestIBMQuantumDevice:
    def test_profile_attributes(self, device, small_profile):
        assert device.name == small_profile.name
        assert device.clops == small_profile.clops
        assert device.num_qubits == 10
        assert device.error_score() == pytest.approx(small_profile.error_score())

    def test_process_time_matches_model(self, device):
        frag = fragment(shots=40_000)
        expected = processing_time_minutes(40_000, device.clops, device.quantum_volume)
        assert device.calculate_process_time(frag) == pytest.approx(expected)

    def test_fidelity_breakdown_components(self, device):
        frag = fragment(q=5, depth=10, t2=30)
        b = device.compute_fidelity_breakdown(frag, num_devices=2, total_qubits=10)
        assert 0 < b.single_qubit <= 1
        assert 0 < b.two_qubit <= 1
        assert 0 < b.readout <= 1
        assert b.device == pytest.approx(b.single_qubit * b.two_qubit * b.readout)
        assert b.device_name == device.name

    def test_complete_subjob_accounts_busy_time(self, env, small_profile):
        device = IBMQuantumDevice(env, small_profile)
        frag = fragment()
        elapsed = device.calculate_process_time(frag)
        device.complete_subjob(frag.num_qubits, elapsed)
        assert device.completed_subjobs == 1
        assert device.busy_time == elapsed
        assert device.qubit_seconds == frag.num_qubits * elapsed

    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_abort_subjob_checkpoints_the_elapsed_shots(self, env, small_profile, checkpoint):
        device = IBMQuantumDevice(env, small_profile)
        frag = fragment(shots=1_000)
        duration = device.calculate_process_time(frag)
        completed, breakdown = device.abort_subjob(
            frag, 0.25 * duration, duration, checkpoint, 1, frag.num_qubits
        )
        assert device.aborted_subjobs == 1 and device.completed_subjobs == 0
        assert device.busy_time == 0.25 * duration
        if checkpoint:
            assert completed == 250
            assert breakdown == device.compute_fidelity_breakdown(frag, 1, frag.num_qubits)
        else:
            assert (completed, breakdown) == (0, None)
        # A kill at the very end still leaves one shot for the resume.
        assert device.abort_subjob(frag, duration, duration, True)[0] == 999


class TestErrorScoreCache:
    """``error_score`` is computed once per calibration snapshot and weight
    triple."""

    @staticmethod
    def _expected(device, alpha=0.5, theta=0.3, gamma=0.2):
        return error_score_from_averages(
            device.avg_readout_error, device.avg_single_qubit_error,
            device.avg_two_qubit_error, alpha=alpha, theta=theta, gamma=gamma,
        )

    @pytest.fixture
    def calls(self, monkeypatch):
        import repro.cloud.qdevice as qdevice

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return error_score_from_averages(*args, **kwargs)

        monkeypatch.setattr(qdevice, "error_score_from_averages", counting)
        return calls

    def test_repeated_call_computes_once(self, device, calls):
        first = device.error_score()
        assert device.error_score() == first == self._expected(device)
        assert len(calls) == 1

    def test_new_snapshot_gives_new_score(self, device, calls):
        before = device.error_score()
        # A drift step: the scenario engine assigns a fresh scaled snapshot.
        device.calibration = device.calibration.scaled(readout=1.5, two_qubit=0.5)
        after = device.error_score()
        assert after != before
        assert after == self._expected(device)
        assert len(calls) == 2

    def test_snapshot_with_equal_means_keeps_the_score(self, device, calls):
        before = device.error_score()
        # A zero-volatility drift step: a new snapshot object, same means.
        device.calibration = device.calibration.scaled()
        assert device.error_score() == before
        assert len(calls) == 1

    def test_weight_triples_are_separate_entries(self, device):
        default = device.error_score()
        readout_only = device.error_score(alpha=1.0, theta=0.0, gamma=0.0)
        assert readout_only == device.avg_readout_error
        assert readout_only != default
        assert device.error_score() == default
        assert device.error_score(alpha=1.0, theta=0.0, gamma=0.0) == readout_only

    def test_invalid_weights_raise_on_every_call(self, device):
        device.error_score()
        for _ in range(3):
            with pytest.raises(ValueError, match="alpha"):
                device.error_score(alpha=-0.5)
            with pytest.raises(ValueError, match="positive"):
                device.error_score(alpha=0.0, theta=0.0, gamma=0.0)
