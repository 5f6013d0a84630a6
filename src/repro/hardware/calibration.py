"""Calibration data model and synthetic calibration snapshots.

IBM Quantum publishes real-time calibration data for every backend: per-qubit
readout errors and coherence times, per-gate error rates, etc.  The paper's
error-aware scheduling consumes that data through a single scalar *error
score* (Eq. 2).  This module provides:

* :class:`QubitCalibration` / :class:`GateCalibration` /
  :class:`CalibrationData` — typed containers mirroring the fields the paper
  uses (readout error, single-qubit RX error, two-qubit gate errors, T1/T2),
* :func:`synthetic_calibration` — a seeded generator producing snapshots with
  realistic error ranges for Eagle-class devices, standing in for the
  March-2025 snapshots the authors downloaded (which are not archived
  publicly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import networkx as nx
import numpy as np

__all__ = [
    "QubitCalibration",
    "GateCalibration",
    "CalibrationData",
    "synthetic_calibration",
]

#: Valid ``(low, high)`` clip bounds per error category, shared by the
#: scaled-snapshot record materialisation, the scaled-array views and the
#: aggregate fast paths — one source of truth so the three stay consistent.
READOUT_ERROR_BOUNDS = (1e-6, 0.5)
SINGLE_QUBIT_ERROR_BOUNDS = (1e-7, 0.1)
TWO_QUBIT_ERROR_BOUNDS = (1e-6, 0.5)


@dataclass(frozen=True)
class QubitCalibration:
    """Calibration record for a single physical qubit."""

    #: Qubit index on the device.
    index: int
    #: T1 relaxation time in microseconds.
    t1_us: float
    #: T2 dephasing time in microseconds.
    t2_us: float
    #: Readout (measurement) error probability.
    readout_error: float
    #: Single-qubit gate (RX / SX) error probability.
    single_qubit_error: float

    def __post_init__(self) -> None:
        if self.t1_us <= 0 or self.t2_us <= 0:
            raise ValueError("coherence times must be positive")
        for name in ("readout_error", "single_qubit_error"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")


@dataclass(frozen=True)
class GateCalibration:
    """Calibration record for a two-qubit gate on a coupling-map edge."""

    #: The pair of qubits the gate acts on.
    qubits: Tuple[int, int]
    #: Two-qubit gate error probability.
    error: float
    #: Gate duration in nanoseconds.
    duration_ns: float = 300.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.error <= 1.0:
            raise ValueError(f"gate error must be a probability, got {self.error}")
        if self.duration_ns <= 0:
            raise ValueError("gate duration must be positive")


@dataclass
class CalibrationData:
    """A full calibration snapshot for one device.

    Attributes
    ----------
    qubits:
        Per-qubit calibration records (length = number of qubits).
    gates:
        Per-edge two-qubit gate calibration records.
    timestamp:
        ISO-8601 string identifying when the snapshot was taken.
    """

    qubits: List[QubitCalibration]
    gates: List[GateCalibration]
    timestamp: str = "2025-03-01T00:00:00Z"

    def __post_init__(self) -> None:
        if not self.qubits:
            raise ValueError("calibration needs at least one qubit record")
        indices = [q.index for q in self.qubits]
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate qubit indices in calibration data")

    # -- aggregates used by the error score (Eq. 2) -------------------------
    @property
    def num_qubits(self) -> int:
        """Number of qubits covered by the snapshot."""
        return len(self.qubits)

    @property
    def readout_errors(self) -> np.ndarray:
        """Array of per-qubit readout errors."""
        return np.array([q.readout_error for q in self.qubits], dtype=np.float64)

    @property
    def single_qubit_errors(self) -> np.ndarray:
        """Array of per-qubit single-qubit gate errors."""
        return np.array([q.single_qubit_error for q in self.qubits], dtype=np.float64)

    @property
    def two_qubit_errors(self) -> np.ndarray:
        """Array of per-edge two-qubit gate errors."""
        return np.array([g.error for g in self.gates], dtype=np.float64)

    def average_readout_error(self) -> float:
        """Mean readout error over all qubits (Σ ε_readout,i / N_readout)."""
        return float(self.readout_errors.mean())

    def average_single_qubit_error(self) -> float:
        """Mean single-qubit (RX) gate error (ε_1Q in Eq. 2)."""
        return float(self.single_qubit_errors.mean())

    def average_two_qubit_error(self) -> float:
        """Mean two-qubit gate error over all coupling edges (Σ ε_2Q,j / N_2Q)."""
        if len(self.gates) == 0:
            return 0.0
        return float(self.two_qubit_errors.mean())

    def average_error_rates(self) -> Tuple[float, float, float]:
        """The three error-score aggregates in one call: ``(readout, single
        qubit, two qubit)`` means.  Devices use this to refresh their cached
        aggregates after a calibration swap."""
        return (
            self.average_readout_error(),
            self.average_single_qubit_error(),
            self.average_two_qubit_error(),
        )

    def as_dict(self) -> Dict[str, object]:
        """Serialise the snapshot into plain Python containers (JSON-safe)."""
        return {
            "timestamp": self.timestamp,
            "qubits": [
                {
                    "index": q.index,
                    "t1_us": q.t1_us,
                    "t2_us": q.t2_us,
                    "readout_error": q.readout_error,
                    "single_qubit_error": q.single_qubit_error,
                }
                for q in self.qubits
            ],
            "gates": [
                {"qubits": list(g.qubits), "error": g.error, "duration_ns": g.duration_ns}
                for g in self.gates
            ],
        }

    def scaled(
        self,
        *,
        readout: float = 1.0,
        single_qubit: float = 1.0,
        two_qubit: float = 1.0,
        t1: float = 1.0,
        t2: float = 1.0,
        timestamp: Optional[str] = None,
    ) -> "CalibrationData":
        """A new snapshot with every record scaled by per-category factors.

        This is the primitive behind calibration drift
        (:mod:`repro.dynamics`): error rates are multiplied by their factor
        and clipped back into valid probability ranges, coherence times are
        scaled and re-clamped to the physical ``T2 <= 2*T1`` bound.  The
        receiver is never mutated, so baseline snapshots (and the shared
        device catalogue) stay pristine.

        Runs on the drift hot path (once per device per drift step), so the
        result is *lazy*: the aggregate statistics the simulator consumes
        (average error rates) are computed vectorized from
        cached baseline statistics, while the per-record ``qubits``/``gates``
        lists materialise only if something actually reads them.  The
        scaled snapshot's ``average_*`` methods are the defining aggregates:
        they can differ from a hand-computed mean over the materialised
        records by a few ulps (``mean(x) * f`` vs ``mean(x * f)`` round
        differently), but every consumer — device aggregates, error scores,
        the fidelity model, replayed traces — reads the same methods, so
        results stay internally consistent and bit-reproducible.
        """
        return _ScaledCalibrationData(
            self,
            factors={
                "readout": float(readout),
                "single_qubit": float(single_qubit),
                "two_qubit": float(two_qubit),
                "t1": float(t1),
                "t2": float(t2),
            },
            timestamp=timestamp,
        )

    def _baseline_arrays(self) -> Dict[str, np.ndarray]:
        """Per-category numpy views of the records, cached on first use."""
        cached = self.__dict__.get("_arrays_cache")
        if cached is None:
            cached = {
                "readout": self.readout_errors,
                "single_qubit": self.single_qubit_errors,
                "two_qubit": self.two_qubit_errors,
            }
            self.__dict__["_arrays_cache"] = cached
        return cached

    def _baseline_stats(self) -> Dict[str, Tuple[float, float, float, np.ndarray]]:
        """Per-category ``(mean, min, max, values)`` of the records, cached.

        Backs the scaled-snapshot aggregate fast path: when a drift factor
        keeps every value inside its clip bounds (the overwhelmingly common
        case), the scaled mean is just ``factor * mean``."""
        cached = self.__dict__.get("_stats_cache")
        if cached is None:
            arrays = self._baseline_arrays()
            cached = {
                name: (float(arr.mean()), float(arr.min()), float(arr.max()), arr)
                if arr.size
                else (0.0, 0.0, 0.0, arr)
                for name, arr in arrays.items()
            }
            self.__dict__["_stats_cache"] = cached
        return cached

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CalibrationData":
        """Rebuild a snapshot from :meth:`as_dict` output."""
        qubits = [
            QubitCalibration(
                index=int(q["index"]),
                t1_us=float(q["t1_us"]),
                t2_us=float(q["t2_us"]),
                readout_error=float(q["readout_error"]),
                single_qubit_error=float(q["single_qubit_error"]),
            )
            for q in payload["qubits"]  # type: ignore[index]
        ]
        gates = [
            GateCalibration(
                qubits=(int(g["qubits"][0]), int(g["qubits"][1])),
                error=float(g["error"]),
                duration_ns=float(g.get("duration_ns", 300.0)),
            )
            for g in payload["gates"]  # type: ignore[index]
        ]
        return cls(qubits=qubits, gates=gates, timestamp=str(payload.get("timestamp", "")))


class _ScaledCalibrationData(CalibrationData):
    """A lazily-materialised scaled view of a baseline snapshot.

    Produced by :meth:`CalibrationData.scaled`.  Aggregate queries (the only
    thing the simulator's hot path touches) are answered from the baseline's
    cached statistics; the per-record ``qubits``/``gates`` lists are built on
    first access only (e.g. when a trace or report serialises the snapshot).
    The per-record values use the same multiply/clamp operations, but the
    fast-path aggregate ``mean(x) * f`` may differ from a recomputed
    ``mean(x * f)`` by a few ulps — ``average_*`` here is the single source
    of truth all simulator consumers read.
    """

    def __init__(self, base: CalibrationData, factors: Dict[str, float],
                 timestamp: Optional[str]) -> None:
        # Deliberately no super().__init__: the dataclass fields ``qubits``
        # and ``gates`` stay unset until _materialize fills them in.
        self._base = base
        self._factors = factors
        self.timestamp = timestamp if timestamp is not None else base.timestamp

    # -- lazy record materialisation ------------------------------------------
    def __getattr__(self, name: str):
        if name in ("qubits", "gates"):
            self._materialize()
            return self.__dict__[name]
        raise AttributeError(name)

    def _materialize(self) -> None:
        base, f = self._base, self._factors
        readout, single, two, t1, t2 = (
            f["readout"], f["single_qubit"], f["two_qubit"], f["t1"], f["t2"]
        )
        (ro_lo, ro_hi) = READOUT_ERROR_BOUNDS
        (sq_lo, sq_hi) = SINGLE_QUBIT_ERROR_BOUNDS
        (tq_lo, tq_hi) = TWO_QUBIT_ERROR_BOUNDS
        qubits = []
        for q in base.qubits:
            new_t1 = max(q.t1_us * t1, 1.0)
            qubits.append(
                QubitCalibration(
                    index=q.index,
                    t1_us=new_t1,
                    t2_us=min(max(q.t2_us * t2, 1.0), 2.0 * new_t1),
                    readout_error=min(max(q.readout_error * readout, ro_lo), ro_hi),
                    single_qubit_error=min(max(q.single_qubit_error * single, sq_lo), sq_hi),
                )
            )
        self.qubits = qubits
        self.gates = [
            GateCalibration(
                qubits=g.qubits,
                error=min(max(g.error * two, tq_lo), tq_hi),
                duration_ns=g.duration_ns,
            )
            for g in base.gates
        ]

    # -- vectorized aggregate fast paths ----------------------------------------
    @property
    def num_qubits(self) -> int:
        return self._base.num_qubits

    @property
    def readout_errors(self) -> np.ndarray:
        arr = self._base._baseline_arrays()["readout"] * self._factors["readout"]
        return np.clip(arr, *READOUT_ERROR_BOUNDS)

    @property
    def single_qubit_errors(self) -> np.ndarray:
        arr = self._base._baseline_arrays()["single_qubit"] * self._factors["single_qubit"]
        return np.clip(arr, *SINGLE_QUBIT_ERROR_BOUNDS)

    @property
    def two_qubit_errors(self) -> np.ndarray:
        arr = self._base._baseline_arrays()["two_qubit"] * self._factors["two_qubit"]
        return np.clip(arr, *TWO_QUBIT_ERROR_BOUNDS)

    def _scaled_mean(self, category: str, lo: float, hi: float) -> float:
        """Mean of the clipped scaled values.

        Fast path: when the factor keeps the whole baseline range inside the
        clip bounds (the common case — drift steps are small), the mean is
        ``factor * baseline_mean`` — one multiplication instead of three
        numpy array operations.  This is the *defining* aggregate for scaled
        snapshots; ``average_*`` delegates here so the device hot path and
        all consumers see one consistent value.
        """
        mean, lowest, highest, values = self._base._baseline_stats()[category]
        factor = self._factors[category]
        if values.size == 0:
            return 0.0
        if lowest * factor >= lo and highest * factor <= hi:
            return mean * factor
        return float(np.clip(values * factor, lo, hi).mean())

    def average_readout_error(self) -> float:
        return self._scaled_mean("readout", *READOUT_ERROR_BOUNDS)

    def average_single_qubit_error(self) -> float:
        return self._scaled_mean("single_qubit", *SINGLE_QUBIT_ERROR_BOUNDS)

    def average_two_qubit_error(self) -> float:
        return self._scaled_mean("two_qubit", *TWO_QUBIT_ERROR_BOUNDS)

    def average_error_rates(self) -> "Tuple[float, float, float]":
        return (
            self.average_readout_error(),
            self.average_single_qubit_error(),
            self.average_two_qubit_error(),
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CalibrationData):
            return (self.qubits, self.gates, self.timestamp) == (
                other.qubits, other.gates, other.timestamp
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable, like the base dataclass


def synthetic_calibration(
    coupling: nx.Graph,
    *,
    readout_error_mean: float = 1.3e-2,
    single_qubit_error_mean: float = 2.5e-4,
    two_qubit_error_mean: float = 7.5e-3,
    spread: float = 0.25,
    t1_mean_us: float = 250.0,
    t2_mean_us: float = 180.0,
    timestamp: str = "2025-03-01T00:00:00Z",
    seed: Optional[int] = None,
) -> CalibrationData:
    """Generate a synthetic calibration snapshot for a device.

    Error rates are drawn from log-normal distributions centred on the given
    means with a relative *spread*; coherence times from normal distributions
    clipped to stay positive.  The defaults match publicly documented ranges
    for 127-qubit Eagle-class devices (readout ≈ 1-2 %, single-qubit ≈ 2-5e-4,
    ECR/CZ two-qubit ≈ 5-12e-3).

    Parameters
    ----------
    coupling:
        The device coupling map; one :class:`GateCalibration` is produced per
        edge, one :class:`QubitCalibration` per node.
    seed:
        Seed for reproducibility.
    """
    if spread < 0:
        raise ValueError("spread must be non-negative")
    rng = np.random.default_rng(seed)
    sigma = np.log1p(spread)

    def lognormal(mean: float, size: int) -> np.ndarray:
        # Parameterise so that the distribution mean equals ``mean``.
        mu = np.log(mean) - 0.5 * sigma**2
        return rng.lognormal(mu, sigma, size=size)

    nodes = sorted(coupling.nodes())
    n = len(nodes)
    readout = np.clip(lognormal(readout_error_mean, n), 1e-5, 0.5)
    single = np.clip(lognormal(single_qubit_error_mean, n), 1e-6, 0.1)
    t1 = np.clip(rng.normal(t1_mean_us, t1_mean_us * 0.2, size=n), 20.0, None)
    t2 = np.clip(rng.normal(t2_mean_us, t2_mean_us * 0.25, size=n), 10.0, None)
    # T2 cannot exceed 2*T1 physically.
    t2 = np.minimum(t2, 2.0 * t1)

    qubits = [
        QubitCalibration(
            index=int(node),
            t1_us=float(t1[i]),
            t2_us=float(t2[i]),
            readout_error=float(readout[i]),
            single_qubit_error=float(single[i]),
        )
        for i, node in enumerate(nodes)
    ]

    edges = sorted(tuple(sorted(edge)) for edge in coupling.edges())
    two_q = np.clip(lognormal(two_qubit_error_mean, len(edges)), 1e-5, 0.5)
    gates = [
        GateCalibration(qubits=(int(u), int(v)), error=float(two_q[i]))
        for i, (u, v) in enumerate(edges)
    ]
    return CalibrationData(qubits=qubits, gates=gates, timestamp=timestamp)
