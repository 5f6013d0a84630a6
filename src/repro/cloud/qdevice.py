"""Simulated quantum devices (paper §3, ``QDevice`` hierarchy).

Three levels of modelling detail:

* :class:`BaseQDevice` — a named pool of qubits.  The free qubits are a
  plain counter (the paper's ``device.container.level``) behind one
  synchronous pair, :meth:`~BaseQDevice.reserve_qubits` and
  :meth:`~BaseQDevice.release_qubits`, which both engines call: the broker
  only reserves a plan that is feasible right now, so a reservation never
  has to wait,
* :class:`QuantumDevice` — adds a graph-based qubit topology (coupling map)
  and utilisation accounting,
* :class:`IBMQuantumDevice` — adds IBM-specific attributes: CLOPS, quantum
  volume and an error score derived from calibration data, and implements
  sub-job execution as a DES process whose duration follows the CLOPS model
  of Eq. (3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.circuits.circuit import CircuitSpec
from repro.des.environment import Environment
from repro.des.exceptions import Interrupt
from repro.hardware.backends import DeviceProfile
from repro.hardware.calibration import CalibrationData
from repro.hardware.clops import DEFAULT_NUM_TEMPLATES, DEFAULT_NUM_UPDATES, log2_quantum_volume
from repro.hardware.coupling import largest_connected_subgraph
from repro.metrics.error_score import error_score_from_averages
from repro.metrics.fidelity import FidelityBreakdown, readout_fidelity, single_qubit_fidelity, two_qubit_fidelity
from repro.metrics.timing import processing_time_minutes

__all__ = ["SubJobResult", "BaseQDevice", "QuantumDevice", "IBMQuantumDevice"]

#: CLOPS benchmark constant ``M * K``, hoisted for the fast-path kernels
#: (kept symbolic so the product can never drift from the scalar model).
_CLOPS_MK = DEFAULT_NUM_TEMPLATES * DEFAULT_NUM_UPDATES


@dataclass(frozen=True)
class SubJobResult:
    """Outcome of executing one job fragment on one device.

    ``aborted`` results normally carry no fidelity breakdown: the device went
    offline mid-execution (or was already offline at start) and the broker
    requeues the owning job.  Under checkpointed execution an aborted result
    additionally reports ``completed_shots`` — how many of the fragment's
    shots finished before the kill — and, when that is positive, the
    breakdown of those completed shots (the analytic per-device fidelity does
    not depend on the shot count, only the merge weighting does).
    """

    device_name: str
    qubits_allocated: int
    processing_time: float
    fidelity_breakdown: Optional[FidelityBreakdown]
    aborted: bool = False
    #: Shots of the fragment that completed (all of them for a successful
    #: result; a prefix for a checkpointed abort; 0 without checkpointing).
    completed_shots: int = 0


class BaseQDevice:
    """A quantum device as a pool of qubits.

    Parameters
    ----------
    env:
        The simulation environment.
    name:
        Backend name.
    num_qubits:
        Total qubit capacity ``C_i``.
    """

    def __init__(self, env: Environment, name: str, num_qubits: int) -> None:
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        self.env = env
        self.name = name
        self.num_qubits = int(num_qubits)
        #: Qubits not reserved by any running sub-job (always a plain int).
        self._free_qubits = self.num_qubits
        #: Number of sub-jobs completed on this device.
        self.completed_subjobs = 0
        #: Total busy time accumulated (qubit-seconds are tracked separately).
        self.busy_time = 0.0
        #: Accumulated qubit-seconds of work executed (for utilisation stats).
        self.qubit_seconds = 0.0
        #: Number of times the device has gone offline.
        self.outage_count = 0
        #: Number of sub-jobs aborted by outages.
        self.aborted_subjobs = 0
        #: In-flight sub-jobs, in start order so kills are deterministic:
        #: the per-job engine's execution processes and the flat engine's
        #: sub-job entries.  Each exposes ``is_alive`` and
        #: ``interrupt(cause)``, which a killing outage calls.
        self._running: Dict[object, None] = {}
        #: Active offline causes; the device is online iff this is empty.
        #: Tracked per cause so overlapping outage and maintenance windows
        #: don't cancel each other (the device recovers only when *every*
        #: cause has cleared).
        self._offline_causes: set = set()
        #: Called as ``listener(device, kill_running)`` when an offline cause
        #: is added and when the device comes back online (the owning
        #: :class:`~repro.cloud.qcloud.QCloud` keeps its online view current
        #: this way).
        self.availability_listeners: List[Callable[["BaseQDevice", bool], None]] = []

    # -- capacity --------------------------------------------------------------
    @property
    def free_qubits(self) -> int:
        """Qubits currently available (``device.container.level``)."""
        return self._free_qubits

    @property
    def used_qubits(self) -> int:
        """Qubits currently reserved by running sub-jobs."""
        return self.num_qubits - self._free_qubits

    @property
    def utilization(self) -> float:
        """Fraction of qubits currently in use (0..1)."""
        return self.used_qubits / self.num_qubits

    def reserve_qubits(self, amount: int) -> None:
        """Reserve *amount* free qubits for a sub-job (Algorithm 1, line 7)."""
        if amount <= 0:
            raise ValueError("amount must be positive")
        if amount > self._free_qubits:
            raise RuntimeError(
                f"cannot reserve {amount} qubits on {self.name} "
                f"({self._free_qubits} free)"
            )
        self._free_qubits -= int(amount)

    def release_qubits(self, amount: int) -> None:
        """Return *amount* reserved qubits to the pool (Algorithm 1, line 14)."""
        if amount <= 0:
            raise ValueError("amount must be positive")
        if self._free_qubits + amount > self.num_qubits:
            raise RuntimeError(
                f"releasing {amount} qubits on {self.name} would exceed "
                f"capacity ({self._free_qubits}/{self.num_qubits})"
            )
        self._free_qubits += int(amount)

    # -- availability ------------------------------------------------------------
    @property
    def online(self) -> bool:
        """Whether the device accepts new work (no active offline cause)."""
        return not self._offline_causes

    def set_offline(self, kill_running: bool = True, cause: str = "outage") -> bool:
        """Take the device offline for *cause*; returns whether it was online.

        Causes are tracked independently: an outage during a maintenance
        window adds a second cause, and the device only comes back online
        once :meth:`set_online` has cleared every one of them.

        With ``kill_running`` every in-flight sub-job is interrupted in
        start order, on either engine (it aborts and the owning job is
        requeued, or fails at ``max_requeues``); otherwise running sub-jobs
        drain gracefully while no new work is planned onto the device.
        """
        was_online = not self._offline_causes
        if cause in self._offline_causes:
            return False
        self._offline_causes.add(cause)
        if was_online:
            self.outage_count += 1
        for listener in self.availability_listeners:
            listener(self, kill_running)
        if kill_running:
            for process in list(self._running):
                if process is not None and process.is_alive:
                    process.interrupt(cause)
        return was_online

    def set_online(self, cause: Optional[str] = None) -> bool:
        """Clear an offline *cause* (or all of them when ``None``).

        Returns ``True`` only when this call actually brought the device
        back online — i.e. it cleared the last active cause.
        """
        if not self._offline_causes:
            return False
        if cause is None:
            self._offline_causes.clear()
        else:
            self._offline_causes.discard(cause)
        if self._offline_causes:
            return False
        for listener in self.availability_listeners:
            listener(self, False)
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "" if self.online else " OFFLINE"
        return f"<{type(self).__name__} {self.name} free={self.free_qubits}/{self.num_qubits}{state}>"


class QuantumDevice(BaseQDevice):
    """A device with an explicit qubit-connectivity graph."""

    def __init__(self, env: Environment, name: str, coupling: nx.Graph) -> None:
        super().__init__(env, name, coupling.number_of_nodes())
        self.coupling = coupling

    def has_connected_region(self, size: int) -> bool:
        """Whether the topology contains a connected subgraph of *size* qubits.

        Used to check the connectivity constraint of §4; the allocation
        workflow itself treats this as a black box (§5.2).
        """
        if size <= 0:
            raise ValueError("size must be positive")
        if size > self.num_qubits:
            return False
        return largest_connected_subgraph(self.coupling, size) is not None


class IBMQuantumDevice(QuantumDevice):
    """An IBM-flavoured device: CLOPS, quantum volume and calibration data.

    Corresponds to the device tuple ``D_i = (C_i, E_i, K_i, G_i)`` of §4.
    """

    def __init__(self, env: Environment, profile: DeviceProfile) -> None:
        super().__init__(env, profile.name, profile.coupling)
        self.profile = profile
        self.clops = float(profile.clops)
        self.quantum_volume = float(profile.quantum_volume)
        self._calibration = profile.calibration
        #: Simulation time of the last calibration change (the flat engine
        #: recomputes the breakdown of a sub-job that ran across one).
        self.calibrated_at = -math.inf
        #: Snapshot the average aggregates were computed from (identity check).
        self._aggregates_for: Optional[object] = None
        #: Fast-path caches: ``log2(QV)`` keyed on the QV value, fidelity
        #: bases ``(1 - eps)`` keyed on the calibration snapshot.
        self._l2qv_for: Optional[float] = None
        self._l2qv = 0.0
        self._fid_bases_for: Optional[object] = None
        self._fid_bases = (0.0, 0.0, 0.0)
        #: Eq. 2 scores by ``(alpha, theta, gamma)``, for the current
        #: ``(readout, single, two-qubit)`` error means ``_averages``.
        self._averages: Optional[Tuple[float, float, float]] = None
        self._scores: Dict[Tuple[float, float, float], float] = {}
        self._refresh_aggregates()

    @classmethod
    def from_profile(cls, env: Environment, profile: DeviceProfile) -> "IBMQuantumDevice":
        """Alias constructor mirroring the framework documentation."""
        return cls(env, profile)

    # -- live calibration ----------------------------------------------------------
    @property
    def calibration(self) -> "CalibrationData":
        """The device's *current* calibration snapshot.

        Unlike the static :class:`~repro.hardware.backends.DeviceProfile`,
        this may change mid-run (calibration drift); assigning a new snapshot
        invalidates the cached error aggregates so the error score and the
        fidelity model always see fresh values.
        """
        return self._calibration

    @calibration.setter
    def calibration(self, snapshot: "CalibrationData") -> None:
        if snapshot.num_qubits != self.num_qubits:
            raise ValueError(
                f"calibration covers {snapshot.num_qubits} qubits but "
                f"{self.name} has {self.num_qubits}"
            )
        self._calibration = snapshot
        self.calibrated_at = self.env.now

    def _refresh_aggregates(self) -> None:
        calibration = self._calibration
        averages = calibration.average_error_rates()
        if averages != self._averages:
            # Eq. 2 reads the calibration only through these three means,
            # so a snapshot that leaves them equal keeps the cached scores.
            self._scores = {}
            self._averages = averages
        (
            self._avg_readout_error,
            self._avg_single_qubit_error,
            self._avg_two_qubit_error,
        ) = averages
        self._aggregates_for = calibration

    @property
    def avg_readout_error(self) -> float:
        """Average readout error of the current calibration."""
        if self._aggregates_for is not self._calibration:
            self._refresh_aggregates()
        return self._avg_readout_error

    @property
    def avg_single_qubit_error(self) -> float:
        """Average single-qubit gate error of the current calibration."""
        if self._aggregates_for is not self._calibration:
            self._refresh_aggregates()
        return self._avg_single_qubit_error

    @property
    def avg_two_qubit_error(self) -> float:
        """Average two-qubit gate error of the current calibration."""
        if self._aggregates_for is not self._calibration:
            self._refresh_aggregates()
        return self._avg_two_qubit_error

    def error_score(self, alpha: float = 0.5, theta: float = 0.3, gamma: float = 0.2) -> float:
        """Calibration-derived error score ``E_i`` (Eq. 2).

        Cached per weight triple.  A new calibration snapshot refreshes the
        error means (the same ``is``-snapshot rule as the ``avg_*``
        aggregates), and the cache is dropped when they change, so
        calibration drift gives a fresh score.  Only a computed score is
        cached: invalid weights raise on every call.
        """
        if self._aggregates_for is not self._calibration:
            self._refresh_aggregates()
        key = (alpha, theta, gamma)
        score = self._scores.get(key)
        if score is None:
            score = self._scores[key] = error_score_from_averages(
                self._avg_readout_error,
                self._avg_single_qubit_error,
                self._avg_two_qubit_error,
                alpha=alpha,
                theta=theta,
                gamma=gamma,
            )
        return score

    # -- execution ---------------------------------------------------------------
    def calculate_process_time(self, circuit: CircuitSpec) -> float:
        """Processing time ``T_i`` of a sub-job on this device (§4).

        Follows the problem-definition expression ``M·K·s·log2(QV)/(K_i·60)``
        (the CLOPS model of Eq. 3 scaled by 1/60).
        """
        return processing_time_minutes(
            shots=circuit.num_shots,
            clops=self.clops,
            quantum_volume=self.quantum_volume,
        )

    def compute_fidelity_breakdown(
        self, fragment: CircuitSpec, num_devices: int, total_qubits: Optional[int] = None
    ) -> FidelityBreakdown:
        """Analytic fidelity of one fragment executed on this device (Eqs. 4-7).

        Parameters
        ----------
        fragment:
            The circuit fragment assigned to this device.
        num_devices:
            Total number of devices the parent job is split over (``N_devices``
            in Eq. 6).
        total_qubits:
            Total qubit count of the parent job (``N_qubits`` in Eq. 6).
            Defaults to ``fragment.num_qubits * num_devices`` when not given.
        """
        if total_qubits is None:
            total_qubits = fragment.num_qubits * num_devices
        return FidelityBreakdown(
            device_name=self.name,
            qubits_allocated=fragment.num_qubits,
            single_qubit=single_qubit_fidelity(self.avg_single_qubit_error, fragment.depth),
            two_qubit=two_qubit_fidelity(self.avg_two_qubit_error, fragment.num_two_qubit_gates),
            readout=readout_fidelity(self.avg_readout_error, total_qubits, num_devices),
        )

    # -- fast-path kernels -------------------------------------------------------
    def _log2_qv(self) -> float:
        """Cached ``log2(quantum_volume)`` (recomputed if QV is reassigned)."""
        if self._l2qv_for != self.quantum_volume:
            self._l2qv = log2_quantum_volume(self.quantum_volume)
            self._l2qv_for = self.quantum_volume
        return self._l2qv

    def _fidelity_bases(self) -> tuple:
        """Cached ``(1 - eps)`` bases of the three fidelity kernels.

        Keyed on the calibration snapshot like the ``avg_*_error`` caches, so
        calibration drift invalidates them the same way.
        """
        if self._fid_bases_for is not self._calibration:
            if self._aggregates_for is not self._calibration:
                self._refresh_aggregates()
            self._fid_bases = (
                1.0 - self._avg_single_qubit_error,
                1.0 - self._avg_two_qubit_error,
                1.0 - self._avg_readout_error,
            )
            self._fid_bases_for = self._calibration
        return self._fid_bases

    def scalar_process_time(self, shots: int) -> float:
        """:meth:`calculate_process_time` from a raw shot count.

        Lets the flat dispatcher compute durations without materialising a
        :class:`CircuitSpec` per fragment.  Bit-identical to
        :func:`~repro.metrics.timing.processing_time_minutes`: the same IEEE
        operations in the same order, with ``M*K`` and ``log2(QV)`` hoisted
        out (both exact values, not approximations).
        """
        if shots <= 0:
            raise ValueError("shots must be positive")
        return (_CLOPS_MK * shots) * self._log2_qv() / self.clops / 60.0

    def scalar_fidelity_breakdown(
        self,
        qubits: int,
        depth: int,
        two_qubit_gates: int,
        total_qubits: int,
        num_devices: int,
    ) -> FidelityBreakdown:
        """:meth:`compute_fidelity_breakdown` from raw fragment columns.

        Bit-identical to the kernel functions in
        :mod:`repro.metrics.fidelity`; range validation is skipped because
        the inputs come from validated circuits and planned allocations.
        """
        single_base, two_base, readout_base = self._fidelity_bases()
        return FidelityBreakdown(
            device_name=self.name,
            qubits_allocated=qubits,
            single_qubit=single_base ** depth,
            two_qubit=two_base ** math.sqrt(two_qubit_gates),
            readout=readout_base ** math.sqrt(total_qubits / num_devices),
        )

    def batch_process_times(self, shots) -> "np.ndarray":
        """Vectorised :meth:`calculate_process_time` over an array of shot counts.

        No dispatch path calls it: the flat engine's per-pump batches were
        smaller than NumPy's per-call cost, so it uses
        :meth:`scalar_process_time`.  Kept as a tested helper, and because
        the perfbench tracer patches it by name.

        Bit-identical to the scalar path: the same chain of IEEE operations in
        the same order (``M*K*s`` stays exact in int64, then one float multiply
        and two divides), so each element equals
        ``processing_time_minutes(s, ...)`` exactly.
        """
        shots = np.asarray(shots, dtype=np.int64)
        if shots.size and int(shots.min()) <= 0:
            raise ValueError("shots must be positive")
        return (_CLOPS_MK * shots) * self._log2_qv() / self.clops / 60.0

    def batch_fidelity_breakdowns(
        self,
        qubits,
        depths,
        two_qubit_gates,
        total_qubits,
        num_devices,
    ) -> list:
        """Vectorised :meth:`compute_fidelity_breakdown` over parallel columns.

        Like :meth:`batch_process_times`, no dispatch path calls it (the
        flat engine uses :meth:`scalar_fidelity_breakdown`); kept as a
        tested helper and a perfbench-traced name.

        NumPy handles the exactly-rounded steps (int conversion, division,
        ``sqrt``); the final powers run through Python's ``**`` elementwise
        because NumPy's SIMD ``pow`` is *not* bit-identical to C ``pow``.
        The result therefore matches the scalar kernels exactly.  Inputs are
        assumed valid (they come from planned allocations of validated
        circuits).
        """
        single_base, two_base, readout_base = self._fidelity_bases()
        two_exponents = np.sqrt(np.asarray(two_qubit_gates, dtype=np.float64))
        readout_exponents = np.sqrt(
            np.asarray(total_qubits, dtype=np.float64)
            / np.asarray(num_devices, dtype=np.float64)
        )
        name = self.name
        return [
            FidelityBreakdown(
                device_name=name,
                qubits_allocated=int(q),
                single_qubit=single_base ** int(d),
                two_qubit=two_base ** float(t),
                readout=readout_base ** float(r),
            )
            for q, d, t, r in zip(qubits, depths, two_exponents, readout_exponents)
        ]

    def complete_subjob(self, num_qubits: int, elapsed: float) -> None:
        """Account a sub-job of *num_qubits* qubits that ran to completion
        in *elapsed*: count it and charge its busy time and qubit-seconds.
        Both engines end every completed sub-job here."""
        self.completed_subjobs += 1
        self.busy_time += elapsed
        self.qubit_seconds += num_qubits * elapsed

    def abort_subjob(
        self,
        fragment: CircuitSpec,
        elapsed: float,
        duration: float,
        checkpoint: bool,
        num_devices: int = 1,
        total_qubits: Optional[int] = None,
    ) -> Tuple[int, Optional[FidelityBreakdown]]:
        """Account a sub-job that ended *elapsed* into its *duration*.

        Charges the elapsed busy time and qubit-seconds and counts the abort.
        Returns ``(completed_shots, breakdown)``: with *checkpoint*, the
        completed shots are the elapsed fraction of the CLOPS-model
        duration, floored, and capped one shot short of the fragment so a
        resume always has a shot left to re-execute (the in-flight shot's
        results are never persisted); when positive, they come with the
        fidelity breakdown of those shots.  Both engines end every killed
        sub-job here.
        """
        self.busy_time += elapsed
        self.qubit_seconds += fragment.num_qubits * elapsed
        self.aborted_subjobs += 1
        completed = 0
        breakdown = None
        if checkpoint and duration > 0:
            completed = int(fragment.num_shots * (elapsed / duration))
            completed = max(0, min(completed, fragment.num_shots - 1))
            if completed > 0:
                breakdown = self.compute_fidelity_breakdown(fragment, num_devices, total_qubits)
        return completed, breakdown

    def execute(
        self,
        fragment: CircuitSpec,
        num_devices: int = 1,
        total_qubits: Optional[int] = None,
        checkpoint: bool = False,
    ) -> Generator[object, object, SubJobResult]:
        """DES process executing one circuit fragment on this device.

        The caller must already hold the fragment's qubits (reserved through
        :meth:`reserve_qubits`).  Yields a timeout for the processing time and
        returns a :class:`SubJobResult` with the fidelity breakdown.

        If the device is offline when execution starts, or goes offline with
        ``kill_running`` mid-execution, the result comes back ``aborted`` and
        the broker requeues the owning job.  With ``checkpoint`` the aborted
        result also reports the shots completed before the kill, along with
        their fidelity breakdown (see :meth:`abort_subjob`), so the broker
        can resume the job from where it died instead of re-executing
        everything.
        """
        if not self.online:
            self.aborted_subjobs += 1
            return SubJobResult(
                device_name=self.name,
                qubits_allocated=fragment.num_qubits,
                processing_time=0.0,
                fidelity_breakdown=None,
                aborted=True,
            )
        duration = self.calculate_process_time(fragment)
        start = self.env.now
        process = self.env.active_process
        if process is not None:
            self._running[process] = None
        try:
            yield self.env.timeout(duration)
        except Interrupt:
            elapsed = self.env.now - start
            completed, breakdown = self.abort_subjob(
                fragment, elapsed, duration, checkpoint, num_devices, total_qubits
            )
            return SubJobResult(
                device_name=self.name,
                qubits_allocated=fragment.num_qubits,
                processing_time=elapsed,
                fidelity_breakdown=breakdown,
                aborted=True,
                completed_shots=completed,
            )
        finally:
            if process is not None:
                self._running.pop(process, None)
        self.complete_subjob(fragment.num_qubits, self.env.now - start)
        breakdown = self.compute_fidelity_breakdown(fragment, num_devices, total_qubits)
        return SubJobResult(
            device_name=self.name,
            qubits_allocated=fragment.num_qubits,
            processing_time=duration,
            fidelity_breakdown=breakdown,
            completed_shots=fragment.num_shots,
        )
