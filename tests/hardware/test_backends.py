"""Unit tests for the device catalogue."""

import networkx as nx
import pytest

from repro.hardware.backends import (
    DEFAULT_DEVICE_NAMES,
    DeviceProfile,
    build_default_fleet,
    get_device_profile,
    list_available_devices,
)
from repro.hardware.calibration import synthetic_calibration
from repro.hardware.coupling import ibm_eagle_coupling


class TestCatalogue:
    def test_all_paper_devices_available(self):
        available = list_available_devices()
        for name in (
            "ibm_strasbourg",
            "ibm_brussels",
            "ibm_kyiv",
            "ibm_quebec",
            "ibm_kawasaki",
        ):
            assert name in available

    def test_unknown_device_raises(self):
        with pytest.raises(KeyError):
            get_device_profile("ibm_atlantis")

    def test_paper_clops_values(self):
        clops = {name: get_device_profile(name, num_qubits=20).clops for name in DEFAULT_DEVICE_NAMES}
        assert clops["ibm_strasbourg"] == 220_000
        assert clops["ibm_brussels"] == 220_000
        assert clops["ibm_quebec"] == 32_000
        assert clops["ibm_kyiv"] == 30_000
        assert clops["ibm_kawasaki"] == 29_000

    def test_default_fleet_matches_case_study(self, default_fleet):
        assert len(default_fleet) == 5
        for profile in default_fleet:
            assert profile.num_qubits == 127
            assert profile.quantum_volume == 127
            assert profile.coupling.number_of_nodes() == 127
            assert nx.is_connected(profile.coupling)

    def test_profiles_are_cached(self):
        p1 = get_device_profile("ibm_kyiv", num_qubits=30)
        p2 = get_device_profile("ibm_kyiv", num_qubits=30)
        assert p1 is p2

    def test_calibration_deterministic_across_calls(self):
        p1 = get_device_profile("ibm_quebec", num_qubits=25)
        p2 = get_device_profile("ibm_quebec", num_qubits=25, seed=None)
        assert p1.avg_readout_error == p2.avg_readout_error

    def test_error_scores_differ_across_devices(self, default_fleet):
        scores = {p.name: p.error_score() for p in default_fleet}
        assert len(set(round(s, 6) for s in scores.values())) == len(scores)
        # The slower devices were configured with better calibration than the
        # worst fast device (the regime discussed in §7.2).
        assert scores["ibm_kyiv"] < scores["ibm_brussels"]

    def test_error_score_positive_and_small(self, default_fleet):
        for profile in default_fleet:
            assert 0 < profile.error_score() < 0.1


class TestDeviceProfileValidation:
    def test_coupling_size_mismatch(self):
        coupling = ibm_eagle_coupling(10)
        calibration = synthetic_calibration(coupling, seed=0)
        with pytest.raises(ValueError):
            DeviceProfile(
                name="bad",
                num_qubits=12,
                clops=1000,
                quantum_volume=32,
                coupling=coupling,
                calibration=calibration,
            )

    def test_invalid_clops(self):
        coupling = ibm_eagle_coupling(10)
        calibration = synthetic_calibration(coupling, seed=0)
        with pytest.raises(ValueError):
            DeviceProfile(
                name="bad",
                num_qubits=10,
                clops=0,
                quantum_volume=32,
                coupling=coupling,
                calibration=calibration,
            )

    @pytest.mark.parametrize("clops", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_clops(self, clops):
        coupling = ibm_eagle_coupling(10)
        calibration = synthetic_calibration(coupling, seed=0)
        with pytest.raises(ValueError, match="clops must be positive and finite"):
            DeviceProfile(
                name="bad",
                num_qubits=10,
                clops=clops,
                quantum_volume=32,
                coupling=coupling,
                calibration=calibration,
            )

    @pytest.mark.parametrize("volume", [1.0, float("nan"), float("inf"), float("-inf")])
    def test_invalid_quantum_volume(self, volume):
        coupling = ibm_eagle_coupling(10)
        calibration = synthetic_calibration(coupling, seed=0)
        with pytest.raises(ValueError, match="quantum_volume must be finite and > 1"):
            DeviceProfile(
                name="bad",
                num_qubits=10,
                clops=1000,
                quantum_volume=volume,
                coupling=coupling,
                calibration=calibration,
            )

    def test_get_device_profile_rejects_nan_quantum_volume(self):
        with pytest.raises(ValueError, match="quantum_volume"):
            get_device_profile("ibm_kyiv", quantum_volume=float("nan"))

    def test_calibration_mismatch(self):
        coupling = ibm_eagle_coupling(10)
        calibration = synthetic_calibration(ibm_eagle_coupling(8), seed=0)
        with pytest.raises(ValueError):
            DeviceProfile(
                name="bad",
                num_qubits=10,
                clops=1000,
                quantum_volume=32,
                coupling=coupling,
                calibration=calibration,
            )
