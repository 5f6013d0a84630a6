"""The quantum cloud (paper §3, ``QCloud``).

``QCloud`` owns the device fleet, provides the admission control used by the
unified allocation workflow (one job is admitted/planned at a time, FIFO),
exposes a *capacity-released* signal so waiting jobs re-plan when qubits free
up, and carries the inter-device communication model.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.cloud.communication import ClassicalCommunicationModel
from repro.cloud.qdevice import BaseQDevice, IBMQuantumDevice
from repro.des.environment import Environment
from repro.des.events import Event
from repro.des.resources.resource import Resource
from repro.hardware.backends import DeviceProfile

__all__ = ["QCloud"]


class QCloud:
    """A fleet of quantum devices plus cloud-level coordination state.

    Parameters
    ----------
    env:
        Simulation environment.
    devices:
        Device instances, or :class:`~repro.hardware.backends.DeviceProfile`
        objects (which are wrapped into :class:`IBMQuantumDevice`).
    communication:
        Classical communication model; defaults to the paper's parameters
        (λ = 0.02 s/qubit, φ = 0.95).
    """

    def __init__(
        self,
        env: Environment,
        devices: Sequence[object],
        communication: Optional[ClassicalCommunicationModel] = None,
    ) -> None:
        self.env = env
        self.devices: List[BaseQDevice] = []
        for device in devices:
            if isinstance(device, BaseQDevice):
                self.devices.append(device)
            elif isinstance(device, DeviceProfile):
                self.devices.append(IBMQuantumDevice(env, device))
            else:
                raise TypeError(f"unsupported device specification {device!r}")
        if not self.devices:
            raise ValueError("a QCloud needs at least one device")
        names = [d.name for d in self.devices]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate device names: {names}")
        #: Cached :attr:`online_devices` list; dropped on every availability
        #: change so planners see the current fleet.
        self._online: Optional[List[BaseQDevice]] = None
        for device in self.devices:
            device.availability_listeners.append(self._availability_changed)

        self.communication = communication or ClassicalCommunicationModel()
        #: Serialises the plan-and-reserve critical section (FIFO admission).
        self.admission = Resource(env, capacity=1)
        self._capacity_released: Event = env.event()
        #: Total number of jobs completed by the cloud.
        self.jobs_completed = 0

    # -- fleet queries -----------------------------------------------------------
    @property
    def online_devices(self) -> List[BaseQDevice]:
        """Devices currently accepting work (scenario outages/maintenance may
        take devices offline mid-run); both engines plan over this view.

        The list is cached until a device changes availability, when a fresh
        list replaces it — callers must treat it as a read-only snapshot.
        """
        online = self._online
        if online is None:
            online = self._online = [d for d in self.devices if d.online]
        return online

    def _availability_changed(self, device: BaseQDevice, kill_running: bool) -> None:
        self._online = None

    @property
    def total_qubits(self) -> int:
        """Combined qubit capacity of the fleet."""
        return sum(d.num_qubits for d in self.devices)

    @property
    def free_qubits(self) -> int:
        """Combined free qubits across the fleet."""
        return sum(d.free_qubits for d in self.devices)

    @property
    def max_device_qubits(self) -> int:
        """Capacity of the largest single device."""
        return max(d.num_qubits for d in self.devices)

    def device(self, name: str) -> BaseQDevice:
        """Look up a device by name."""
        for d in self.devices:
            if d.name == name:
                return d
        raise KeyError(f"no device named {name!r}")

    def device_names(self) -> List[str]:
        """Names of all devices in fleet order."""
        return [d.name for d in self.devices]

    def utilization(self) -> Dict[str, float]:
        """Current per-device qubit utilisation."""
        return {d.name: d.utilization for d in self.devices}

    def fits_single_device(self, num_qubits: int) -> bool:
        """Whether a circuit of *num_qubits* fits on one device (no splitting)."""
        return num_qubits <= self.max_device_qubits

    def requires_partitioning(self, num_qubits: int) -> bool:
        """Whether a circuit must be split across devices (Eq. 1 lower bound)."""
        return num_qubits > self.max_device_qubits

    def can_ever_fit(self, num_qubits: int) -> bool:
        """Whether the cloud's total capacity can hold the circuit (Eq. 1 upper bound)."""
        return num_qubits <= self.total_qubits

    # -- capacity-released signalling ---------------------------------------------
    @property
    def capacity_released(self) -> Event:
        """Event that fires the next time any job releases its qubits.

        Waiting brokers yield this event and re-plan when it fires; a fresh
        event is installed after each release.
        """
        return self._capacity_released

    def signal_capacity_change(self) -> None:
        """Fire the capacity-released signal without counting a completion.

        Used when capacity appears for reasons other than a job finishing —
        a device coming back online after an outage, or a requeued job
        releasing its reservations — so waiting brokers re-plan.
        """
        event, self._capacity_released = self._capacity_released, self.env.event()
        if not event.triggered:
            event.succeed()

    def notify_capacity_released(self) -> None:
        """Fire the capacity-released signal (called by the broker on job completion)."""
        self.signal_capacity_change()
        self.jobs_completed += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<QCloud devices={len(self.devices)} free={self.free_qubits}/{self.total_qubits}>"
