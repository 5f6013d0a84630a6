"""Unit tests for calibration data structures and the synthetic generator."""

import numpy as np
import pytest

from repro.hardware.calibration import (
    CalibrationData,
    GateCalibration,
    QubitCalibration,
    synthetic_calibration,
)
from repro.hardware.coupling import ibm_eagle_coupling, line_graph


class TestQubitCalibration:
    def test_validation(self):
        with pytest.raises(ValueError):
            QubitCalibration(0, t1_us=-1, t2_us=100, readout_error=0.01, single_qubit_error=1e-4)
        with pytest.raises(ValueError):
            QubitCalibration(0, t1_us=100, t2_us=100, readout_error=1.5, single_qubit_error=1e-4)

    def test_frozen(self):
        q = QubitCalibration(0, 100, 80, 0.01, 1e-4)
        with pytest.raises(Exception):
            q.readout_error = 0.5


class TestGateCalibration:
    def test_validation(self):
        with pytest.raises(ValueError):
            GateCalibration((0, 1), error=2.0)
        with pytest.raises(ValueError):
            GateCalibration((0, 1), error=0.01, duration_ns=-5)


class TestCalibrationData:
    def _make(self, n=4):
        qubits = [QubitCalibration(i, 200, 150, 0.01 * (i + 1), 1e-4 * (i + 1)) for i in range(n)]
        gates = [GateCalibration((i, i + 1), 0.005 * (i + 1)) for i in range(n - 1)]
        return CalibrationData(qubits=qubits, gates=gates)

    def test_requires_qubits(self):
        with pytest.raises(ValueError):
            CalibrationData(qubits=[], gates=[])

    def test_duplicate_indices_rejected(self):
        q = QubitCalibration(0, 200, 150, 0.01, 1e-4)
        with pytest.raises(ValueError):
            CalibrationData(qubits=[q, q], gates=[])

    def test_averages(self):
        cal = self._make(4)
        assert np.isclose(cal.average_readout_error(), 0.01 * (1 + 2 + 3 + 4) / 4)
        assert np.isclose(cal.average_single_qubit_error(), 1e-4 * 2.5)
        assert np.isclose(cal.average_two_qubit_error(), 0.005 * 2)
        assert cal.num_qubits == 4

    def test_no_gates_average_is_zero(self):
        cal = CalibrationData(qubits=[QubitCalibration(0, 100, 80, 0.01, 1e-4)], gates=[])
        assert cal.average_two_qubit_error() == 0.0

    def test_dict_roundtrip(self):
        cal = self._make(3)
        rebuilt = CalibrationData.from_dict(cal.as_dict())
        assert rebuilt.num_qubits == 3
        assert np.isclose(rebuilt.average_readout_error(), cal.average_readout_error())
        assert rebuilt.gates[0].qubits == cal.gates[0].qubits


class TestSyntheticCalibration:
    def test_covers_every_qubit_and_edge(self):
        coupling = ibm_eagle_coupling(40)
        cal = synthetic_calibration(coupling, seed=0)
        assert cal.num_qubits == 40
        assert len(cal.gates) == coupling.number_of_edges()

    def test_reproducible_with_seed(self):
        coupling = line_graph(10)
        c1 = synthetic_calibration(coupling, seed=5)
        c2 = synthetic_calibration(coupling, seed=5)
        assert np.allclose(c1.readout_errors, c2.readout_errors)
        assert np.allclose(c1.two_qubit_errors, c2.two_qubit_errors)

    def test_different_seeds_differ(self):
        coupling = line_graph(10)
        c1 = synthetic_calibration(coupling, seed=1)
        c2 = synthetic_calibration(coupling, seed=2)
        assert not np.allclose(c1.readout_errors, c2.readout_errors)

    def test_means_close_to_requested(self):
        coupling = ibm_eagle_coupling(127)
        cal = synthetic_calibration(
            coupling, readout_error_mean=0.02, two_qubit_error_mean=0.008, seed=3
        )
        assert np.isclose(cal.average_readout_error(), 0.02, rtol=0.15)
        assert np.isclose(cal.average_two_qubit_error(), 0.008, rtol=0.15)

    def test_physical_constraints(self):
        cal = synthetic_calibration(line_graph(50), seed=7)
        for q in cal.qubits:
            assert q.t1_us > 0 and q.t2_us > 0
            assert q.t2_us <= 2 * q.t1_us + 1e-9
            assert 0 <= q.readout_error <= 0.5
        assert np.all(cal.two_qubit_errors <= 0.5)

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError):
            synthetic_calibration(line_graph(5), spread=-0.1)
