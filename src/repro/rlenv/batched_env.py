"""BatchedQCloudEnv — the allocation MDP of the paper (§4.1), ``B`` rows at once.

Each episode is a *single* allocation decision:

* **State** (dimension ``1 + 3k`` = 16 for ``k = 5`` devices): the job's
  normalised qubit demand, then for each device its normalised free-qubit
  level, its error score and its normalised CLOPS.
* **Action**: a continuous vector of ``k`` unnormalised allocation weights.
  The environment normalises them, scales by the demand, rounds and adjusts
  so the parts sum to the demand and respect per-device free capacity
  (:func:`repro.circuits.partition.allocation_from_weights_batch`).
* **Reward**: the mean per-device fidelity ``(1/k') Σ F_i`` over the ``k'``
  devices actually used, where each ``F_i`` combines gate, readout and
  (optionally) two-qubit errors (Eqs. 4-7).  Optionally the inter-device
  communication penalty (Eq. 8) can be folded into the reward
  (``communication_aware=True``), which the paper lists as future work.

Single-step episodes carry no state from one step to the next, so the
environment is a native :class:`~repro.gymapi.vector.VecEnv` that steps
``B = n_envs`` independent episodes with array operations:

* job sampling draws all ``B`` demands/depths in single ``Generator`` calls
  and rejection-samples the fleet free levels for the whole batch at once,
* observation assembly writes one ``(B, 1 + 3k)`` array (static error-score /
  CLOPS columns are pre-filled once),
* rewards come from the array-form fidelity kernels of
  :mod:`repro.metrics.fidelity` applied to a ``(B, k)`` allocation matrix.

Serial training is the same environment with ``n_envs=1``: a one-row batch.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.partition import allocation_from_weights_batch
from repro.gymapi.seeding import np_random
from repro.gymapi.spaces import Box
from repro.gymapi.vector import VecEnv
from repro.hardware.backends import DeviceProfile, build_default_fleet
from repro.metrics.error_score import error_score
from repro.metrics.fidelity import (
    communication_penalty,
    readout_fidelity,
    single_qubit_fidelity,
    two_qubit_fidelity,
)
from repro.scheduling.rl_policy import (
    CLOPS_NORM,
    DEFAULT_MAX_DEVICES,
    DEFAULT_MAX_QUBITS,
    DEVICE_LEVEL_NORM,
)

__all__ = ["BatchedQCloudEnv"]


class BatchedQCloudEnv(VecEnv):
    """Vectorized single-step allocation environment over a device fleet.

    All ``B`` sub-environments share the fleet and one RNG stream.

    Parameters
    ----------
    n_envs:
        Number of parallel sub-environments ``B`` (1 for serial training).
    devices:
        Device profiles (defaults to the paper's five-device fleet).
    qubit_range, depth_range:
        Inclusive ranges for the randomised training jobs.
    two_qubit_density:
        Two-qubit gate density of the training jobs, in ``[0, 1]`` (matches
        the synthetic workload generator).
    randomize_utilization:
        If ``True`` (default) device free levels are randomised for every job
        so the agent sees partially busy fleets; if ``False`` all devices
        start fully free.
    include_two_qubit_errors:
        The paper notes two-qubit error can be "optionally suppressed" in the
        reward; keep it on by default.
    communication_aware:
        Fold the φ^(k-1) communication penalty into the reward (future-work
        reward shaping; off by default to match the paper).
    max_qubits:
        Normalisation constant for the job-demand feature.
    max_devices:
        Device slots in the observation.
    seed:
        Seeds the shared RNG and samples the first batch of jobs.
    """

    def __init__(
        self,
        n_envs: int,
        devices: Optional[Sequence[DeviceProfile]] = None,
        qubit_range: Tuple[int, int] = (130, 250),
        depth_range: Tuple[int, int] = (5, 20),
        two_qubit_density: float = 0.30,
        randomize_utilization: bool = True,
        include_two_qubit_errors: bool = True,
        communication_aware: bool = False,
        max_qubits: int = DEFAULT_MAX_QUBITS,
        max_devices: int = DEFAULT_MAX_DEVICES,
        seed: Optional[int] = None,
    ) -> None:
        if n_envs < 1:
            raise ValueError(f"n_envs must be >= 1, got {n_envs}")
        self.devices: List[DeviceProfile] = (
            list(devices) if devices is not None else build_default_fleet()
        )
        if len(self.devices) > max_devices:
            raise ValueError(
                f"{len(self.devices)} devices exceed the observation's {max_devices} slots"
            )
        if qubit_range[0] > qubit_range[1] or qubit_range[0] <= 0:
            raise ValueError(f"invalid qubit_range {qubit_range}")
        total_capacity = sum(d.num_qubits for d in self.devices)
        if qubit_range[1] > total_capacity:
            raise ValueError(
                f"qubit_range upper bound {qubit_range[1]} exceeds fleet capacity {total_capacity}"
            )
        if depth_range[0] > depth_range[1] or depth_range[0] < 0:
            raise ValueError(f"invalid depth_range {depth_range}")
        if not 0.0 <= two_qubit_density <= 1.0:
            raise ValueError(f"two_qubit_density must be in [0, 1], got {two_qubit_density}")
        if max_qubits < 1:
            raise ValueError(f"max_qubits must be >= 1, got {max_qubits}")

        self.num_envs = int(n_envs)
        self.qubit_range = qubit_range
        self.depth_range = depth_range
        self.two_qubit_density = float(two_qubit_density)
        self.randomize_utilization = bool(randomize_utilization)
        self.include_two_qubit_errors = bool(include_two_qubit_errors)
        self.communication_aware = bool(communication_aware)
        self.max_qubits = int(max_qubits)
        self.max_devices = int(max_devices)

        self._capacities = np.array([d.num_qubits for d in self.devices], dtype=np.int64)
        self._error_scores = np.array(
            [error_score(d.calibration) for d in self.devices], dtype=np.float64
        )
        self._eps_1q = np.array([d.avg_single_qubit_error for d in self.devices], dtype=np.float64)
        self._eps_2q = np.array([d.avg_two_qubit_error for d in self.devices], dtype=np.float64)
        self._eps_ro = np.array([d.avg_readout_error for d in self.devices], dtype=np.float64)

        obs_dim = 1 + 3 * self.max_devices
        self.observation_space = Box(low=0.0, high=np.inf, shape=(obs_dim,), dtype=np.float64)
        self.action_space = Box(low=0.0, high=1.0, shape=(self.max_devices,), dtype=np.float64)

        # Static observation columns: slot 0 (demand) and 1 + 3i (free level)
        # are rewritten per job; 2 + 3i (error score) and 3 + 3i (CLOPS) never
        # change, so they are filled once and broadcast over B.
        self._free_slots = 1 + 3 * np.arange(len(self.devices))
        self._obs_template = np.zeros((self.num_envs, obs_dim), dtype=np.float64)
        self._obs_template[:, self._free_slots + 1] = self._error_scores
        self._obs_template[:, self._free_slots + 2] = (
            np.array([float(d.clops) for d in self.devices]) / CLOPS_NORM
        )

        self._job_qubits = np.zeros(self.num_envs, dtype=np.int64)
        self._job_depths = np.zeros(self.num_envs, dtype=np.int64)
        self._job_two_qubit_gates = np.zeros(self.num_envs, dtype=np.int64)
        self._free_levels = np.tile(self._capacities, (self.num_envs, 1))
        self._last_observations: Optional[np.ndarray] = None

        if seed is not None:
            self.reset(seed=seed)

    # -- episode mechanics -----------------------------------------------------
    def _sample_jobs(self) -> None:
        """Sample a fresh job for every sub-environment with array draws."""
        rng = self.np_random
        batch = self.num_envs
        self._job_qubits = rng.integers(
            self.qubit_range[0], self.qubit_range[1] + 1, size=batch, dtype=np.int64
        )
        self._job_depths = rng.integers(
            self.depth_range[0], self.depth_range[1] + 1, size=batch, dtype=np.int64
        )
        slots = self._job_qubits * self._job_depths
        self._job_two_qubit_gates = np.rint(slots * self.two_qubit_density).astype(np.int64)

        capacities = self._capacities
        num_devices = capacities.shape[0]
        if not self.randomize_utilization:
            self._free_levels = np.tile(capacities, (batch, 1))
            return
        # Batched rejection sampling: draw one candidate row per environment,
        # then redraw only the rows whose free capacity cannot fit their job
        # (capped at 100 attempts per row, with a full-capacity fallback).
        free = np.floor(
            capacities * rng.uniform(0.4, 1.0, size=(batch, num_devices))
        ).astype(np.int64)
        infeasible = free.sum(axis=1) < self._job_qubits
        attempts = 1
        while np.any(infeasible) and attempts < 100:
            num_bad = int(infeasible.sum())
            free[infeasible] = np.floor(
                capacities * rng.uniform(0.4, 1.0, size=(num_bad, num_devices))
            ).astype(np.int64)
            infeasible = free.sum(axis=1) < self._job_qubits
            attempts += 1
        free[infeasible] = capacities
        self._free_levels = free

    def _observations(self) -> np.ndarray:
        obs = self._obs_template.copy()
        obs[:, 0] = self._job_qubits / float(self.max_qubits)
        obs[:, self._free_slots] = self._free_levels / DEVICE_LEVEL_NORM
        return obs

    def _reset_infos(self) -> List[Dict[str, Any]]:
        return [
            {
                "job_qubits": int(self._job_qubits[i]),
                "job_depth": int(self._job_depths[i]),
                "free_levels": self._free_levels[i].copy(),
            }
            for i in range(self.num_envs)
        ]

    def reset(
        self, *, seed: Optional[int] = None, options: Optional[Dict[str, Any]] = None
    ) -> Tuple[np.ndarray, List[Dict[str, Any]]]:
        if seed is not None:
            if not isinstance(seed, (int, np.integer)):
                raise TypeError("BatchedQCloudEnv uses one shared RNG; seed must be an int")
            self._np_random, _ = np_random(int(seed))
        self._sample_jobs()
        self._last_observations = self._observations()
        return self._last_observations, self._reset_infos()

    def step(
        self, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[Dict[str, Any]]]:
        """Score one allocation per row.

        *actions* has shape ``(n_envs, max_devices)``; a one-row env also
        takes a flat ``(max_devices,)`` vector.  Weights for slots beyond the
        fleet are ignored.
        """
        if np.any(self._job_qubits <= 0):
            raise RuntimeError("step() called before reset()")
        num_devices = len(self.devices)
        weights = np.asarray(actions, dtype=np.float64)
        if weights.ndim == 1 and self.num_envs == 1:
            weights = weights[None, :]
        if weights.shape != (self.num_envs, self.max_devices):
            raise ValueError(
                f"actions must have shape ({self.num_envs}, {self.max_devices}), "
                f"got {np.shape(actions)}"
            )
        weights = weights[:, :num_devices]
        allocations = allocation_from_weights_batch(weights, self._job_qubits, self._free_levels)

        used = allocations > 0
        devices_used = used.sum(axis=1)

        # Per-device fidelity F_i = F_1Q * F_2Q * F_ro over the (B, k)
        # allocation matrix (Eqs. 4-7).
        f_1q = single_qubit_fidelity(self._eps_1q[None, :], self._job_depths[:, None])
        f_ro = readout_fidelity(
            self._eps_ro[None, :], self._job_qubits[:, None], devices_used[:, None]
        )
        if self.include_two_qubit_errors:
            fractions = allocations / self._job_qubits[:, None]
            fragment_t2 = self._job_two_qubit_gates[:, None] * fractions
            f_2q = two_qubit_fidelity(self._eps_2q[None, :], fragment_t2)
        else:
            f_2q = 1.0
        fidelities = f_1q * f_2q * f_ro

        rewards = np.where(used, fidelities, 0.0).sum(axis=1) / devices_used
        if self.communication_aware:
            rewards = rewards * communication_penalty(devices_used)

        infos: List[Dict[str, Any]] = [
            {
                "allocation": allocations[i].tolist(),
                "num_devices": int(devices_used[i]),
                "device_fidelities": fidelities[i, used[i]].tolist(),
                "job_qubits": int(self._job_qubits[i]),
            }
            for i in range(self.num_envs)
        ]

        # Single-step episodes: every sub-environment terminates now and
        # auto-resets, so the returned observations belong to the next batch
        # of jobs; the terminal observations (cached from the previous
        # reset/step, the jobs just scored) land in the infos.
        final_observations = self._last_observations
        assert final_observations is not None
        self._sample_jobs()
        observations = self._observations()
        self._last_observations = observations
        for i, info in enumerate(infos):
            info["final_observation"] = final_observations[i]
            info["final_info"] = {
                k: info[k] for k in ("allocation", "num_devices", "device_fidelities", "job_qubits")
            }

        terminated = np.ones(self.num_envs, dtype=bool)
        truncated = np.zeros(self.num_envs, dtype=bool)
        return observations, rewards, terminated, truncated, infos
