"""Reinforcement-learning-based allocation (paper §5, "Reinforcement Learning Mode").

A trained PPO agent (see :mod:`repro.rlenv.train`) maps the system state — the
incoming job's qubit demand plus, for each device, its free-qubit level, error
score and CLOPS — to a vector of continuous allocation weights.  The weights
are normalised, scaled by the job's demand, rounded and adjusted so that the
parts sum to the demand and respect each device's currently free capacity
(§4.1).

The observation layout must match the training environment
(:class:`repro.rlenv.batched_env.BatchedQCloudEnv`) exactly;
:func:`build_observation` below is the reference layout, which the
environment mirrors with vectorized assembly (verified by equivalence tests).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.partition import allocation_from_weights
from repro.scheduling.base import AllocationPlan, AllocationPolicy

__all__ = [
    "DEFAULT_MAX_DEVICES",
    "DEFAULT_MAX_QUBITS",
    "DEVICE_LEVEL_NORM",
    "CLOPS_NORM",
    "build_observation",
    "RLAllocationPolicy",
]

#: Number of device slots in the observation (k = 5 in the paper).
DEFAULT_MAX_DEVICES = 5
#: Normalisation constant for the job qubit demand.  The paper's §4.1 quotes
#: ``q_max = 50`` while the case-study jobs need 130-250 qubits; the constant
#: only rescales one observation dimension, so we default to the case-study
#: maximum and expose it as a parameter.
DEFAULT_MAX_QUBITS = 250
#: Normalisation constant for the per-device free-qubit level (paper: /150).
DEVICE_LEVEL_NORM = 150.0
#: Normalisation constant for CLOPS (paper: /1e6).
CLOPS_NORM = 1.0e6


def build_observation(
    num_qubits: int,
    device_states: Sequence[Tuple[float, float, float]],
    max_devices: int = DEFAULT_MAX_DEVICES,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> np.ndarray:
    """Build the §4.1 state vector.

    Parameters
    ----------
    num_qubits:
        Qubit demand ``q`` of the incoming job.
    device_states:
        One ``(free_qubits, error_score, clops)`` triple per device, in fleet
        order.  Missing slots (fewer than *max_devices* devices) are padded
        with zeros.
    max_devices, max_qubits:
        Observation-shape constants (5 and the normalisation maximum).

    Returns
    -------
    A float64 vector of dimension ``1 + 3 * max_devices`` (16 for the paper's
    five-device fleet).
    """
    if num_qubits <= 0:
        raise ValueError("num_qubits must be positive")
    if len(device_states) > max_devices:
        raise ValueError(
            f"got {len(device_states)} devices but the observation only holds {max_devices}"
        )
    obs = np.zeros(1 + 3 * max_devices, dtype=np.float64)
    obs[0] = num_qubits / float(max_qubits)
    for i, (free_qubits, error_score, clops) in enumerate(device_states):
        base = 1 + 3 * i
        obs[base + 0] = float(free_qubits) / DEVICE_LEVEL_NORM
        obs[base + 1] = float(error_score)
        obs[base + 2] = float(clops) / CLOPS_NORM
    return obs


def _device_state(device: Any) -> Tuple[float, float, float]:
    """Extract the ``(free_qubits, error_score, clops)`` triple from a device."""
    return (float(device.free_qubits), float(device.error_score()), float(device.clops))


class RLAllocationPolicy(AllocationPolicy):
    """Allocation policy driven by a trained PPO actor-critic model.

    Parameters
    ----------
    model:
        Any object exposing ``predict(observation, deterministic=...)`` and
        returning ``(action, info)`` — a :class:`repro.rl.ppo.PPO` instance,
        an :class:`repro.rl.policies.ActorCriticPolicy`, or a stub for tests.
    max_devices, max_qubits:
        Observation constants; must match training.
    deterministic:
        Use the policy mean rather than sampling at deployment time
        (default ``True``).
    """

    name = "rlbase"

    def __init__(
        self,
        model: Any,
        max_devices: int = DEFAULT_MAX_DEVICES,
        max_qubits: int = DEFAULT_MAX_QUBITS,
        deterministic: bool = True,
    ) -> None:
        if not hasattr(model, "predict"):
            raise TypeError("model must expose a predict(obs, deterministic=...) method")
        self.model = model
        self.max_devices = int(max_devices)
        self.max_qubits = int(max_qubits)
        self.deterministic = bool(deterministic)

    def plan(self, job: Any, devices: Sequence[Any]) -> Optional[AllocationPlan]:
        devices = list(devices)[: self.max_devices]
        free = [d.free_qubits for d in devices]
        if sum(free) < job.num_qubits:
            return None

        observation = build_observation(
            job.num_qubits,
            [_device_state(d) for d in devices],
            max_devices=self.max_devices,
            max_qubits=self.max_qubits,
        )
        action, _info = self.model.predict(observation, deterministic=self.deterministic)
        weights = np.asarray(action, dtype=np.float64).reshape(-1)[: len(devices)]
        allocation = allocation_from_weights(weights, job.num_qubits, free)
        return AllocationPlan.from_pairs(zip(devices, allocation))
