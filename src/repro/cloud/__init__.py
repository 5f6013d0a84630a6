"""Quantum-cloud simulation framework (paper §3).

This subpackage models the components of Fig. 3/Fig. 4 of the paper:

* :class:`~repro.cloud.qjob.QJob` — a quantum job (circuit + metadata),
* :class:`~repro.cloud.qdevice.BaseQDevice` /
  :class:`~repro.cloud.qdevice.QuantumDevice` /
  :class:`~repro.cloud.qdevice.IBMQuantumDevice` — simulated QPUs with qubit
  counters, coupling maps, CLOPS and calibration-derived error scores,
* :class:`~repro.cloud.qcloud.QCloud` — the device fleet, large-circuit
  allocation and inter-device communication,
* :class:`~repro.cloud.broker.Broker` — mediates between job requests and
  devices, executing the unified allocation workflow (Algorithm 1),
* :class:`~repro.cloud.fastpath.FlatDispatcher` — the dispatch engine: it
  feeds every run's jobs (synthetic, from a list, or read from CSV/JSON by
  :mod:`repro.cloud.io`) to the broker at their arrival times and runs
  their sub-jobs as flat heap events,
* :class:`~repro.cloud.records.JobRecordsManager` — job life-cycle tracking,
* :class:`~repro.cloud.environment.QCloudSimEnv` — the top-level simulation
  environment tying everything together.
"""

from repro.cloud.broker import Broker
from repro.cloud.communication import ClassicalCommunicationModel
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.cloud.qcloud import QCloud
from repro.cloud.qdevice import BaseQDevice, IBMQuantumDevice, QuantumDevice
from repro.cloud.qjob import QJob, QJobStatus
from repro.cloud.records import JobEvent, JobRecord, JobRecordsManager

__all__ = [
    "BaseQDevice",
    "Broker",
    "ClassicalCommunicationModel",
    "IBMQuantumDevice",
    "JobEvent",
    "JobRecord",
    "JobRecordsManager",
    "QCloud",
    "QCloudSimEnv",
    "QJob",
    "QJobStatus",
    "QuantumDevice",
    "SimulationConfig",
]
