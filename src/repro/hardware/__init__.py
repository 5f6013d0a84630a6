"""Quantum hardware models: topologies, calibration data and device profiles.

This subpackage provides the hardware substrate the scheduler reasons about:

* :mod:`repro.hardware.coupling` — qubit connectivity graphs (heavy-hex /
  line / ring) built with :mod:`networkx`,
* :mod:`repro.hardware.calibration` — calibration snapshots (readout,
  single- and two-qubit gate errors, coherence times) and the error-score
  formula of the paper's Eq. (2),
* :mod:`repro.hardware.backends` — a catalogue of the five 127-qubit IBM
  devices used in the paper's case study (ibm_strasbourg, ibm_brussels,
  ibm_kyiv, ibm_quebec, ibm_kawasaki) with the CLOPS values quoted in §7 and
  synthetic calibration data standing in for the March-2025 snapshots,
* :mod:`repro.hardware.clops` — CLOPS / quantum-volume execution-time helpers,
* :mod:`repro.hardware.qubit_regions` — connected qubit-region tracking on a
  coupling map (used by the connectivity audit; not :mod:`repro.region`,
  the multi-region cloud).
"""

from repro.hardware.backends import (
    DEFAULT_DEVICE_NAMES,
    DeviceProfile,
    build_default_fleet,
    get_device_profile,
    list_available_devices,
)
from repro.hardware.calibration import (
    CalibrationData,
    GateCalibration,
    QubitCalibration,
    synthetic_calibration,
)
from repro.hardware.clops import clops_execution_time, log2_quantum_volume
from repro.hardware.coupling import (
    heavy_hex_graph,
    ibm_eagle_coupling,
    line_graph,
    ring_graph,
)
from repro.hardware.qubit_regions import QubitRegionTracker, RegionAllocation

__all__ = [
    "QubitRegionTracker",
    "RegionAllocation",
    "CalibrationData",
    "DEFAULT_DEVICE_NAMES",
    "DeviceProfile",
    "GateCalibration",
    "QubitCalibration",
    "build_default_fleet",
    "clops_execution_time",
    "get_device_profile",
    "heavy_hex_graph",
    "ibm_eagle_coupling",
    "line_graph",
    "list_available_devices",
    "log2_quantum_volume",
    "ring_graph",
    "synthetic_calibration",
]
