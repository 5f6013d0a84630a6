"""Catalogue of simulated IBM quantum device profiles.

The paper's case study (§7) uses five simulated 127-qubit IBM devices, all
with quantum volume 127:

=================  =========  =====================================
Device             CLOPS      Notes
=================  =========  =====================================
ibm_strasbourg     220,000    fastest tier
ibm_brussels       220,000    fastest tier
ibm_quebec          32,000    slower tier
ibm_kyiv            30,000    slower tier
ibm_kawasaki        29,000    slower tier
=================  =========  =====================================

The authors initialised the devices with calibration data collected in March
2025; those snapshots are not archived, so each profile here carries a
*synthetic* calibration snapshot drawn from realistic Eagle-class error
ranges (see :func:`repro.hardware.calibration.synthetic_calibration`).  The
per-device error levels are chosen so that the slower devices tend to have
slightly better calibration — the regime in which the paper's speed-versus-
fidelity trade-off appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import networkx as nx

from repro.hardware.calibration import CalibrationData, synthetic_calibration
from repro.hardware.coupling import ibm_eagle_coupling

__all__ = [
    "DeviceProfile",
    "check_quantum_volume",
    "check_unique_device_names",
    "DEVICE_CATALOG",
    "DEFAULT_DEVICE_NAMES",
    "get_device_profile",
    "list_available_devices",
    "build_default_fleet",
]


def check_quantum_volume(quantum_volume: float) -> None:
    """Raise ``ValueError`` unless the quantum volume is finite and above 1
    (``log2(QV)`` scales the Eq. (3) execution time)."""
    if not 1 < quantum_volume < math.inf:
        raise ValueError(f"quantum_volume must be finite and > 1, got {quantum_volume}")


def check_unique_device_names(names: Sequence[str]) -> None:
    """Raise ``ValueError`` if a device name repeats (devices are looked up
    by name)."""
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate device names: {list(names)}")


@dataclass
class DeviceProfile:
    """Static description of one quantum device.

    This corresponds to the device tuple ``D_i = (C_i, E_i, K_i, G_i)`` of the
    paper's problem definition (§4): qubit capacity, error score, CLOPS
    throughput and coupling graph — plus the calibration snapshot from which
    the error score is derived.
    """

    #: Backend name (e.g. ``"ibm_strasbourg"``).
    name: str
    #: Qubit capacity ``C_i``.
    num_qubits: int
    #: Circuit layer operations per second ``K_i``.
    clops: float
    #: Quantum volume of the device.
    quantum_volume: float
    #: Qubit connectivity graph ``G_i``.
    coupling: nx.Graph
    #: Calibration snapshot used for the error score and fidelity model.
    calibration: CalibrationData

    def __post_init__(self) -> None:
        if self.num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        if not 0 < self.clops < math.inf:
            raise ValueError(f"clops must be positive and finite, got {self.clops}")
        check_quantum_volume(self.quantum_volume)
        if self.coupling.number_of_nodes() != self.num_qubits:
            raise ValueError(
                f"coupling map has {self.coupling.number_of_nodes()} nodes but "
                f"num_qubits={self.num_qubits}"
            )
        if self.calibration.num_qubits != self.num_qubits:
            raise ValueError("calibration snapshot does not cover all qubits")

    # Aggregated calibration values reused throughout the metrics layer.
    @property
    def avg_readout_error(self) -> float:
        """Average per-qubit readout error."""
        return self.calibration.average_readout_error()

    @property
    def avg_single_qubit_error(self) -> float:
        """Average single-qubit gate error."""
        return self.calibration.average_single_qubit_error()

    @property
    def avg_two_qubit_error(self) -> float:
        """Average two-qubit gate error."""
        return self.calibration.average_two_qubit_error()

    def error_score(self, alpha: float = 0.5, theta: float = 0.3, gamma: float = 0.2) -> float:
        """Calibration-derived error score ``E_i`` (paper Eq. 2)."""
        from repro.metrics.error_score import error_score

        return error_score(self.calibration, alpha=alpha, theta=theta, gamma=gamma)


#: Per-device specification: (CLOPS, calibration quality multipliers, seed).
#: The multipliers scale the baseline Eagle-class error means; values < 1 mean
#: a better-calibrated device.  Slower devices are given slightly better
#: calibration so that error-aware scheduling faces a genuine trade-off, as in
#: the paper's discussion (§7.2).
_DEVICE_SPECS: Dict[str, Dict[str, float]] = {
    "ibm_strasbourg": {"clops": 220_000, "quality": 0.90, "seed": 101},
    "ibm_brussels": {"clops": 220_000, "quality": 1.00, "seed": 102},
    "ibm_quebec": {"clops": 32_000, "quality": 0.84, "seed": 103},
    "ibm_kyiv": {"clops": 30_000, "quality": 0.78, "seed": 104},
    "ibm_kawasaki": {"clops": 29_000, "quality": 1.25, "seed": 105},
}

#: Device names in the order used throughout the paper's case study.
DEFAULT_DEVICE_NAMES: List[str] = [
    "ibm_strasbourg",
    "ibm_brussels",
    "ibm_kyiv",
    "ibm_quebec",
    "ibm_kawasaki",
]

#: Baseline error means for Eagle-class devices (scaled by the quality factor).
_BASE_READOUT_ERROR = 2.2e-2
_BASE_SINGLE_QUBIT_ERROR = 2.5e-4
_BASE_TWO_QUBIT_ERROR = 7.5e-3

#: Default number of qubits / quantum volume for every catalogue device (§7).
_DEFAULT_NUM_QUBITS = 127
_DEFAULT_QUANTUM_VOLUME = 127

#: Cache of constructed profiles (building the coupling map is not free).
DEVICE_CATALOG: Dict[str, DeviceProfile] = {}


def list_available_devices() -> List[str]:
    """Names of all devices available in the catalogue."""
    return list(_DEVICE_SPECS)


def get_device_profile(
    name: str,
    num_qubits: int = _DEFAULT_NUM_QUBITS,
    quantum_volume: float = _DEFAULT_QUANTUM_VOLUME,
    seed: Optional[int] = None,
) -> DeviceProfile:
    """Build (or fetch from cache) the profile of a catalogue device.

    Parameters
    ----------
    name:
        One of :func:`list_available_devices`.
    num_qubits, quantum_volume:
        Override the default 127/127 used in the paper's case study.
    seed:
        Override the calibration seed (defaults to a per-device constant so
        repeated calls return identical snapshots).
    """
    if name not in _DEVICE_SPECS:
        raise KeyError(f"Unknown device {name!r}; available: {list_available_devices()}")
    cache_key = f"{name}:{num_qubits}:{quantum_volume}:{seed}"
    if cache_key in DEVICE_CATALOG:
        return DEVICE_CATALOG[cache_key]

    spec = _DEVICE_SPECS[name]
    coupling = ibm_eagle_coupling(num_qubits)
    quality = spec["quality"]
    calibration = synthetic_calibration(
        coupling,
        readout_error_mean=_BASE_READOUT_ERROR * quality,
        single_qubit_error_mean=_BASE_SINGLE_QUBIT_ERROR * quality,
        two_qubit_error_mean=_BASE_TWO_QUBIT_ERROR * quality,
        seed=int(spec["seed"]) if seed is None else seed,
        timestamp="2025-03-15T00:00:00Z",
    )
    profile = DeviceProfile(
        name=name,
        num_qubits=num_qubits,
        clops=float(spec["clops"]),
        quantum_volume=float(quantum_volume),
        coupling=coupling,
        calibration=calibration,
    )
    DEVICE_CATALOG[cache_key] = profile
    return profile


def build_default_fleet(
    names: Optional[Sequence[str]] = None,
    num_qubits: int = _DEFAULT_NUM_QUBITS,
    quantum_volume: float = _DEFAULT_QUANTUM_VOLUME,
) -> List[DeviceProfile]:
    """Build the five-device fleet used in the paper's case study (§7)."""
    names = list(names) if names is not None else list(DEFAULT_DEVICE_NAMES)
    return [get_device_profile(name, num_qubits, quantum_volume) for name in names]
