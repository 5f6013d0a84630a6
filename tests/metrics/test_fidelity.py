"""Unit and property tests for the fidelity model (Eqs. 4-8)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.fidelity import (
    DEFAULT_COMMUNICATION_PENALTY,
    FidelityBreakdown,
    communication_penalty,
    final_fidelity,
    readout_fidelity,
    single_qubit_fidelity,
    two_qubit_fidelity,
)


class TestSingleQubitFidelity:
    def test_formula(self):
        assert single_qubit_fidelity(0.001, depth=10) == pytest.approx((1 - 0.001) ** 10)

    def test_zero_depth_is_perfect(self):
        assert single_qubit_fidelity(0.01, depth=0) == 1.0

    def test_monotone_in_depth(self):
        assert single_qubit_fidelity(0.001, 5) > single_qubit_fidelity(0.001, 50)

    def test_validation(self):
        with pytest.raises(ValueError):
            single_qubit_fidelity(-0.1, 5)
        with pytest.raises(ValueError):
            single_qubit_fidelity(0.1, -1)


class TestTwoQubitFidelity:
    def test_formula_square_root_exponent(self):
        assert two_qubit_fidelity(0.008, 400) == pytest.approx((1 - 0.008) ** 20)

    def test_zero_gates_is_perfect(self):
        assert two_qubit_fidelity(0.01, 0) == 1.0

    def test_monotone_in_gate_count(self):
        assert two_qubit_fidelity(0.008, 100) > two_qubit_fidelity(0.008, 900)


class TestReadoutFidelity:
    def test_formula(self):
        expected = (1 - 0.02) ** math.sqrt(190 / 2)
        assert readout_fidelity(0.02, 190, 2) == pytest.approx(expected)

    def test_more_devices_reduces_per_device_readout_burden(self):
        assert readout_fidelity(0.02, 190, 5) > readout_fidelity(0.02, 190, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            readout_fidelity(0.02, 190, 0)


class TestDeviceAndFinalFidelity:

    def test_communication_penalty_values(self):
        assert communication_penalty(1) == 1.0
        assert communication_penalty(2) == pytest.approx(0.95)
        assert communication_penalty(5) == pytest.approx(0.95**4)
        assert communication_penalty(3, phi=0.9) == pytest.approx(0.81)

    def test_final_fidelity_single_device_no_penalty(self):
        assert final_fidelity([0.8]) == pytest.approx(0.8)

    def test_final_fidelity_average_and_penalty(self):
        value = final_fidelity([0.8, 0.9])
        assert value == pytest.approx(0.85 * 0.95)

    def test_final_fidelity_adds_left_to_right(self):
        # A compensated sum (the built-in sum since Python 3.12) gives 0.6
        # here; the left-to-right one gives 0.6000000000000001 on every
        # interpreter, so records hash the same on all of them.
        assert final_fidelity([0.1, 0.2, 0.3], phi=1.0) == ((0.1 + 0.2) + 0.3) / 3
        assert final_fidelity([0.1, 0.2, 0.3], phi=1.0) != 0.6 / 3

    def test_final_fidelity_validation(self):
        with pytest.raises(ValueError):
            final_fidelity([])
        with pytest.raises(ValueError):
            final_fidelity([1.5])

    def test_default_penalty_constant(self):
        assert DEFAULT_COMMUNICATION_PENALTY == 0.95


class TestFidelityBreakdown:
    def test_device_product_and_dict(self):
        b = FidelityBreakdown("ibm_kyiv", 95, single_qubit=0.99, two_qubit=0.9, readout=0.88)
        assert b.device == pytest.approx(0.99 * 0.9 * 0.88)
        payload = b.as_dict()
        assert payload["device_name"] == "ibm_kyiv"
        assert payload["device"] == pytest.approx(b.device)


# ---------------------------------------------------------------------------
# Property-based tests: fidelities are probabilities and degrade monotonically.
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    fids=st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=5),
    phi=st.floats(min_value=0.5, max_value=1.0, allow_nan=False),
)
def test_final_fidelity_bounded_by_mean(fids, phi):
    value = final_fidelity(fids, phi=phi)
    mean = sum(fids) / len(fids)
    assert 0.0 <= value <= mean + 1e-12


@settings(max_examples=100, deadline=None)
@given(
    e=st.floats(min_value=1e-4, max_value=0.2, allow_nan=False),
    depth=st.integers(min_value=1, max_value=30),
)
def test_single_qubit_fidelity_monotone_in_error(e, depth):
    assert single_qubit_fidelity(e, depth) >= single_qubit_fidelity(min(e * 2, 1.0), depth)


class TestArrayKernels:
    """The elementary kernels accept ndarray inputs (vectorized env path)."""

    def test_single_qubit_matches_scalar_elementwise(self):
        errors = np.array([0.001, 0.01, 0.05])
        depths = np.array([5, 10, 20])
        result = single_qubit_fidelity(errors, depths)
        assert isinstance(result, np.ndarray)
        for i in range(3):
            assert result[i] == single_qubit_fidelity(float(errors[i]), int(depths[i]))

    def test_two_qubit_matches_scalar_elementwise(self):
        errors = np.array([0.005, 0.02])
        gates = np.array([0.0, 137.5])
        result = two_qubit_fidelity(errors, gates)
        for i in range(2):
            assert result[i] == two_qubit_fidelity(float(errors[i]), float(gates[i]))

    def test_readout_matches_scalar_elementwise(self):
        errors = np.array([0.01, 0.03])
        result = readout_fidelity(errors, np.array([200, 150]), np.array([2, 3]))
        for i, (q, k) in enumerate([(200, 2), (150, 3)]):
            assert result[i] == readout_fidelity(float(errors[i]), q, k)

    def test_communication_penalty_array(self):
        result = communication_penalty(np.array([1, 2, 3]))
        assert result[0] == 1.0
        for i, k in enumerate([1, 2, 3]):
            assert result[i] == pytest.approx(communication_penalty(k), rel=1e-15)

    def test_broadcasting_scalar_against_array(self):
        # One error rate against a (2, 3) depth grid broadcasts elementwise.
        depths = np.arange(6).reshape(2, 3)
        result = single_qubit_fidelity(0.01, depths)
        assert result.shape == (2, 3)
        assert result[0, 0] == 1.0

    def test_array_validation_errors(self):
        with pytest.raises(ValueError):
            single_qubit_fidelity(np.array([0.5, 1.5]), 3)
        with pytest.raises(ValueError):
            single_qubit_fidelity(np.array([0.5]), np.array([-1]))
        with pytest.raises(ValueError):
            two_qubit_fidelity(np.array([0.1]), np.array([-2.0]))
        with pytest.raises(ValueError):
            readout_fidelity(np.array([0.1]), np.array([10]), np.array([0]))
        with pytest.raises(ValueError):
            communication_penalty(np.array([0]))
