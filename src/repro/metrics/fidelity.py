"""Fidelity model (paper §6.2-§6.4, Eqs. 4-8).

All fidelities in the paper are *analytic estimates* derived from reported
calibration error rates — no state-vector simulation is involved (§7.2).

* Single-qubit fidelity (Eq. 4):    ``F_1Q = (1 - eps_1Q) ** d``
* Two-qubit fidelity (Eq. 5):       ``F_2Q = (1 - eps_2Q) ** sqrt(N_2Q)``
* Readout fidelity (Eq. 6):         ``F_ro = (1 - eps_ro) ** sqrt(N_qubits / N_devices)``
* Device fidelity (Eq. 7):          ``F_dev = F_1Q * F_2Q * F_ro``
* Final fidelity (Eq. 8):           ``F_final = mean(F_dev) * phi ** (N_devices - 1)``

with the communication penalty factor ``phi = 0.95`` per inter-device link.

The elementary kernels (:func:`single_qubit_fidelity`,
:func:`two_qubit_fidelity`, :func:`readout_fidelity`,
:func:`communication_penalty`) accept either scalars or NumPy arrays: scalar
inputs return a Python ``float`` exactly as before, while array inputs
broadcast elementwise and return ``float64`` arrays.  The array form is what
lets :class:`repro.rlenv.batched_env.BatchedQCloudEnv` score a whole batch of
allocations with a handful of vectorized operations instead of a Python loop
per device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "DEFAULT_COMMUNICATION_PENALTY",
    "FidelityBreakdown",
    "single_qubit_fidelity",
    "two_qubit_fidelity",
    "readout_fidelity",
    "communication_penalty",
    "final_fidelity",
    "merge_segment_fidelities",
]

#: Empirical per-link fidelity degradation factor φ (paper §6.4).
DEFAULT_COMMUNICATION_PENALTY = 0.95


#: Scalars or broadcastable float64 arrays — all elementary kernels take both.
ArrayLike = Union[float, int, np.ndarray]


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")


def _check_probability_array(name: str, value: np.ndarray) -> None:
    if np.any(value < 0.0) or np.any(value > 1.0):
        raise ValueError(f"{name} must contain probabilities in [0, 1]")


#: Types that can never be (or wrap) a non-scalar array — checked by exact
#: type so the fidelity kernels skip ``np.ndim`` on the all-scalar hot path
#: (the broker calls them once per sub-job; ``np.ndim`` dominates otherwise).
_SCALAR_TYPES = (float, int)


def _any_array(*values: ArrayLike) -> bool:
    """True when at least one argument is a (non-scalar) ndarray."""
    return any(type(v) not in _SCALAR_TYPES and np.ndim(v) > 0 for v in values)


def single_qubit_fidelity(avg_single_qubit_error: ArrayLike, depth: ArrayLike) -> ArrayLike:
    """Single-qubit fidelity ``F_1Q = (1 - ε_1Q)^d`` (Eq. 4).

    Parameters
    ----------
    avg_single_qubit_error:
        Average single-qubit gate error rate of the device.  Scalar or array
        (arrays broadcast elementwise against *depth*).
    depth:
        Circuit depth ``d`` — the number of layers over which single-qubit
        errors compound.
    """
    if _any_array(avg_single_qubit_error, depth):
        error = np.asarray(avg_single_qubit_error, dtype=np.float64)
        depth_arr = np.asarray(depth, dtype=np.float64)
        _check_probability_array("avg_single_qubit_error", error)
        if np.any(depth_arr < 0):
            raise ValueError("depth must be non-negative")
        return (1.0 - error) ** depth_arr
    _check_probability("avg_single_qubit_error", avg_single_qubit_error)
    if depth < 0:
        raise ValueError("depth must be non-negative")
    return (1.0 - avg_single_qubit_error) ** depth


def two_qubit_fidelity(avg_two_qubit_error: ArrayLike, num_two_qubit_gates: ArrayLike) -> ArrayLike:
    """Two-qubit fidelity ``F_2Q = (1 - ε_2Q)^sqrt(N_2Q)`` (Eq. 5).

    The square-root exponent moderates the naive independent-error product,
    reflecting that not every two-qubit gate contributes a full independent
    error to the measured observable.  Scalar or array inputs (arrays
    broadcast elementwise).
    """
    if _any_array(avg_two_qubit_error, num_two_qubit_gates):
        error = np.asarray(avg_two_qubit_error, dtype=np.float64)
        gates = np.asarray(num_two_qubit_gates, dtype=np.float64)
        _check_probability_array("avg_two_qubit_error", error)
        if np.any(gates < 0):
            raise ValueError("num_two_qubit_gates must be non-negative")
        return (1.0 - error) ** np.sqrt(gates)
    _check_probability("avg_two_qubit_error", avg_two_qubit_error)
    if num_two_qubit_gates < 0:
        raise ValueError("num_two_qubit_gates must be non-negative")
    return (1.0 - avg_two_qubit_error) ** math.sqrt(num_two_qubit_gates)


def readout_fidelity(
    avg_readout_error: ArrayLike, num_qubits: ArrayLike, num_devices: ArrayLike = 1
) -> ArrayLike:
    """Readout fidelity ``F_ro = (1 - ε_ro)^sqrt(N_qubits / N_devices)`` (Eq. 6).

    Splitting a circuit over more devices reduces the number of qubits
    measured per device, which this exponent captures.  Scalar or array
    inputs (arrays broadcast elementwise).
    """
    if _any_array(avg_readout_error, num_qubits, num_devices):
        error = np.asarray(avg_readout_error, dtype=np.float64)
        qubits = np.asarray(num_qubits, dtype=np.float64)
        devices = np.asarray(num_devices, dtype=np.float64)
        _check_probability_array("avg_readout_error", error)
        if np.any(qubits < 0):
            raise ValueError("num_qubits must be non-negative")
        if np.any(devices <= 0):
            raise ValueError("num_devices must be positive")
        return (1.0 - error) ** np.sqrt(qubits / devices)
    _check_probability("avg_readout_error", avg_readout_error)
    if num_qubits < 0:
        raise ValueError("num_qubits must be non-negative")
    if num_devices <= 0:
        raise ValueError("num_devices must be positive")
    return (1.0 - avg_readout_error) ** math.sqrt(num_qubits / num_devices)


def communication_penalty(
    num_devices: ArrayLike, phi: float = DEFAULT_COMMUNICATION_PENALTY
) -> ArrayLike:
    """Inter-device communication penalty ``phi^(N_devices - 1)`` (Eq. 8).

    *num_devices* may be a scalar or an array (elementwise penalties).
    """
    if _any_array(num_devices):
        devices = np.asarray(num_devices, dtype=np.float64)
        if np.any(devices <= 0):
            raise ValueError("num_devices must be positive")
        _check_probability("phi", phi)
        return phi ** (devices - 1.0)
    if num_devices <= 0:
        raise ValueError("num_devices must be positive")
    _check_probability("phi", phi)
    return phi ** (num_devices - 1)


def final_fidelity(
    device_fidelities: Sequence[float],
    phi: float = DEFAULT_COMMUNICATION_PENALTY,
) -> float:
    """Final job fidelity: average device fidelity times the comm penalty (Eq. 8).

    The fidelities are added left to right in plain float arithmetic rather
    than with the built-in ``sum``, which compensates float sums since
    Python 3.12: the result, and every record built from it, is then the
    same bits on every supported interpreter.
    """
    fidelities = list(device_fidelities)
    if not fidelities:
        raise ValueError("at least one device fidelity is required")
    total = 0.0
    for f in fidelities:
        _check_probability("device fidelity", f)
        total += f
    mean_fid = total / len(fidelities)
    return mean_fid * communication_penalty(len(fidelities), phi)


def merge_segment_fidelities(
    segments: Sequence[tuple],
    phi: float = DEFAULT_COMMUNICATION_PENALTY,
) -> float:
    """Shot-weighted final fidelity across execution segments (checkpointing).

    A checkpointed job completes its shots in *segments*: each aborted
    attempt contributes the shots it finished before the kill, the final
    attempt contributes the remainder.  Every segment may have run on a
    different device allocation, so each gets its own Eq.-8 evaluation
    (mean device fidelity times that segment's communication penalty); the
    job-level fidelity is the shot-weighted average of the segment values.

    Parameters
    ----------
    segments:
        ``(shots, device_fidelities)`` pairs, one per segment, where
        ``device_fidelities`` is the per-device fidelity list of that
        segment's allocation.  All shot counts must be positive.
    phi:
        Per-link communication penalty factor.
    """
    segments = list(segments)
    if not segments:
        raise ValueError("at least one segment is required")
    total_shots = 0
    weighted = 0.0
    for shots, device_fidelities in segments:
        if shots <= 0:
            raise ValueError("segment shot counts must be positive")
        total_shots += shots
        weighted += shots * final_fidelity(device_fidelities, phi)
    return weighted / total_shots


@dataclass(frozen=True)
class FidelityBreakdown:
    """Full decomposition of a sub-job's fidelity on one device.

    Produced by the execution layer so that post-simulation analysis can
    attribute fidelity loss to its sources.
    """

    device_name: str
    qubits_allocated: int
    single_qubit: float
    two_qubit: float
    readout: float

    @property
    def device(self) -> float:
        """Combined per-device fidelity (Eq. 7)."""
        return self.single_qubit * self.two_qubit * self.readout

    def as_dict(self) -> dict:
        """Plain-dict view (JSON-safe)."""
        return {
            "device_name": self.device_name,
            "qubits_allocated": self.qubits_allocated,
            "single_qubit": self.single_qubit,
            "two_qubit": self.two_qubit,
            "readout": self.readout,
            "device": self.device,
        }
