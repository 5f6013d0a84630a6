"""Qubit partitioning across devices.

Given a job needing ``q`` qubits and an ordered list of candidate devices
with available capacities ``C_1..C_k``, these helpers produce allocation
vectors ``a = (a_1, ..., a_k)`` with ``sum(a_i) = q`` and ``0 <= a_i <= C_i``
(§4).  Three flavours are used by the allocation strategies of §5:

* :func:`partition_greedy_fill` — fill devices in the given order until the
  demand is satisfied (speed / error-aware / fair modes),
* :func:`partition_even` — split as evenly as possible over a fixed device
  set (the "balanced" variant),
* :func:`partition_proportional` / :func:`allocation_from_weights` — divide
  proportionally to continuous weights, used by the RL policy (§4.1's
  normalise-round-adjust procedure),
* :func:`allocation_from_weights_batch` — the same normalise-round-adjust
  procedure applied to a whole ``(B, k)`` batch of weight vectors at once
  (used by the vectorized training environment); each row matches the scalar
  :func:`allocation_from_weights` exactly.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

__all__ = [
    "partition_greedy_fill",
    "partition_even",
    "partition_proportional",
    "allocation_from_weights",
    "allocation_from_weights_batch",
    "validate_allocation",
]


def validate_allocation(allocation: Sequence[int], total: int, capacities: Sequence[int]) -> None:
    """Raise ``ValueError`` unless *allocation* is a valid split of *total*.

    Checks the constraints of §4: the parts sum to the demand, no part is
    negative, and no part exceeds its device's capacity.
    """
    allocation = list(allocation)
    capacities = list(capacities)
    if len(allocation) != len(capacities):
        raise ValueError(
            f"allocation length {len(allocation)} != capacities length {len(capacities)}"
        )
    if any(a < 0 for a in allocation):
        raise ValueError(f"allocation has negative entries: {allocation}")
    if sum(allocation) != total:
        raise ValueError(f"allocation {allocation} sums to {sum(allocation)}, expected {total}")
    for a, c in zip(allocation, capacities):
        if a > c:
            raise ValueError(f"allocation entry {a} exceeds capacity {c}")


def partition_greedy_fill(total: int, capacities: Sequence[int]) -> List[int]:
    """Fill devices in order until *total* qubits are placed.

    Returns a list the same length as *capacities*; trailing devices that are
    not needed receive 0.  Raises ``ValueError`` if the combined capacity is
    insufficient.
    """
    if total <= 0:
        raise ValueError("total must be positive")
    capacities = [int(c) for c in capacities]
    if any(c < 0 for c in capacities):
        raise ValueError("capacities must be non-negative")
    if sum(capacities) < total:
        raise ValueError(f"insufficient capacity: need {total}, have {sum(capacities)}")
    remaining = total
    allocation: List[int] = []
    for capacity in capacities:
        take = min(capacity, remaining)
        allocation.append(take)
        remaining -= take
    assert remaining == 0
    validate_allocation(allocation, total, capacities)
    return allocation


def partition_even(total: int, capacities: Sequence[int]) -> List[int]:
    """Split *total* as evenly as possible over all given devices.

    Devices whose capacity is smaller than the even share are filled to
    capacity and the excess is redistributed over the remaining devices.
    """
    if total <= 0:
        raise ValueError("total must be positive")
    capacities = [int(c) for c in capacities]
    if sum(capacities) < total:
        raise ValueError(f"insufficient capacity: need {total}, have {sum(capacities)}")
    n = len(capacities)
    allocation = [0] * n
    remaining = total
    active = [i for i in range(n) if capacities[i] > 0]
    while remaining > 0 and active:
        share = max(1, remaining // len(active))
        next_active: List[int] = []
        for i in active:
            if remaining <= 0:
                break
            take = min(share, capacities[i] - allocation[i], remaining)
            allocation[i] += take
            remaining -= take
            if allocation[i] < capacities[i]:
                next_active.append(i)
        # If nothing could be placed this round (all full) the capacity check
        # above guarantees remaining == 0.
        active = next_active if next_active else [i for i in range(n) if allocation[i] < capacities[i]]
        if not active and remaining > 0:  # pragma: no cover - guarded by capacity check
            raise RuntimeError("even partition failed to place all qubits")
    validate_allocation(allocation, total, capacities)
    return allocation


def partition_proportional(total: int, weights: Sequence[float], capacities: Sequence[int]) -> List[int]:
    """Split proportionally to non-negative *weights*, respecting capacities.

    This is the deterministic core of the RL allocation (§4.1): weights are
    normalised, multiplied by the demand and floored (never above a
    device's capacity).  The qubits the floor left over are then handed out
    in rounds over the devices in order of largest fractional part (ties
    broken by headroom), skipping full devices: each round gives every open
    device ``min(remaining // open devices, smallest open headroom)`` qubits,
    and once that share is zero the first ``remaining`` open devices get one
    qubit each.  This is the result of visiting the devices cyclically one
    qubit at a time, in O(devices) rounds instead of O(remaining) steps.
    """
    if total <= 0:
        raise ValueError("total must be positive")
    weights_arr = np.asarray(weights, dtype=np.float64)
    capacities_list = [int(c) for c in capacities]
    if weights_arr.shape[0] != len(capacities_list):
        raise ValueError("weights and capacities must have the same length")
    if np.any(weights_arr < 0):
        raise ValueError("weights must be non-negative")
    if sum(capacities_list) < total:
        raise ValueError(f"insufficient capacity: need {total}, have {sum(capacities_list)}")

    weight_sum = float(weights_arr.sum())
    if weight_sum <= 0:
        # Degenerate weights: fall back to an even split.
        return partition_even(total, capacities_list)

    fractions = weights_arr / weight_sum
    raw = fractions * total
    floored = np.floor(raw)
    allocation = [min(int(f), c) for f, c in zip(floored.tolist(), capacities_list)]

    remaining = int(total) - sum(allocation)
    if remaining > 0:
        frac_part = raw - floored
        order = np.argsort(-(frac_part + 1e-9 * np.asarray(capacities_list))).tolist()
        while remaining > 0:
            open_devices = [i for i in order if capacities_list[i] > allocation[i]]
            if not open_devices:  # pragma: no cover - capacity-checked
                raise RuntimeError("proportional partition failed to converge")
            share = min(
                remaining // len(open_devices),
                min(capacities_list[i] - allocation[i] for i in open_devices),
            )
            if share == 0:
                for i in open_devices[:remaining]:
                    allocation[i] += 1
                break
            for i in open_devices:
                allocation[i] += share
            remaining -= share * len(open_devices)
    elif remaining < 0:  # pragma: no cover - floor() can only under-allocate
        raise RuntimeError("proportional partition over-allocated")

    validate_allocation(allocation, total, capacities_list)
    return allocation


def allocation_from_weights(
    weights: Sequence[float],
    total: int,
    capacities: Sequence[int],
    epsilon: float = 1e-8,
) -> List[int]:
    """The paper's §4.1 action post-processing.

    The RL agent outputs unnormalised allocation weights ``a_i``; the final
    allocation is ``a_i / (sum_j a_j + eps) * q`` followed by rounding and
    adjustment so the parts sum to ``q`` and respect device capacities.
    Negative weights (possible for an unbounded Gaussian policy) are clipped
    to zero before normalisation.
    """
    weights_arr = np.clip(np.asarray(weights, dtype=np.float64), 0.0, None) + epsilon
    return partition_proportional(total, weights_arr, capacities)


def allocation_from_weights_batch(
    weights: np.ndarray,
    totals: Union[Sequence[int], np.ndarray],
    capacities: Union[Sequence[int], np.ndarray],
    epsilon: float = 1e-8,
) -> np.ndarray:
    """Batched §4.1 action post-processing.

    Applies the normalise-round-adjust procedure of
    :func:`allocation_from_weights` to every row of a weight matrix at once:
    the clip/normalise/scale/floor steps run as single array operations over
    the whole batch, and only rows whose floored allocation under-shoots the
    demand fall back to the (tiny) per-row remainder-distribution loop.  Row
    ``b`` of the result is identical to
    ``allocation_from_weights(weights[b], totals[b], capacities[b])``.

    Parameters
    ----------
    weights:
        Array of shape ``(B, k)`` — one unnormalised weight vector per job.
    totals:
        Array of shape ``(B,)`` — the qubit demand of each job (all positive).
    capacities:
        Per-device free capacities, shape ``(B, k)`` or ``(k,)`` (shared by
        all rows).
    epsilon:
        Stabiliser added to the clipped weights before normalisation.

    Returns
    -------
    Integer allocation matrix of shape ``(B, k)`` with each row summing to its
    demand and respecting its capacities.
    """
    weights_arr = np.clip(np.asarray(weights, dtype=np.float64), 0.0, None) + epsilon
    if weights_arr.ndim != 2:
        raise ValueError(f"weights must be 2-D (B, k), got shape {weights_arr.shape}")
    batch, k = weights_arr.shape
    totals_arr = np.asarray(totals, dtype=np.int64).reshape(-1)
    if totals_arr.shape[0] != batch:
        raise ValueError(f"got {totals_arr.shape[0]} totals for a batch of {batch}")
    caps = np.asarray(capacities, dtype=np.int64)
    if caps.ndim == 1:
        caps = np.broadcast_to(caps, (batch, k))
    if caps.shape != (batch, k):
        raise ValueError(f"capacities shape {caps.shape} does not match weights {weights_arr.shape}")
    if np.any(totals_arr <= 0):
        raise ValueError("totals must be positive")
    if np.any(caps < 0):
        raise ValueError("capacities must be non-negative")
    short = caps.sum(axis=1) < totals_arr
    if np.any(short):
        b = int(np.flatnonzero(short)[0])
        raise ValueError(
            f"insufficient capacity in row {b}: need {totals_arr[b]}, have {caps[b].sum()}"
        )

    raw = weights_arr / weights_arr.sum(axis=1, keepdims=True) * totals_arr[:, None]
    allocation = np.minimum(np.floor(raw), caps).astype(np.int64)
    remaining = totals_arr - allocation.sum(axis=1)
    needs_fixup = np.flatnonzero(remaining > 0)
    if needs_fixup.size:
        # Same remainder rule as the scalar path: visit devices in order of
        # largest fractional part (ties broken by headroom), one qubit at a
        # time, skipping devices already at capacity.
        frac_part = raw - np.floor(raw)
        order = np.argsort(-(frac_part + 1e-9 * caps), axis=1)
        for b in needs_fixup:
            rem = int(remaining[b])
            row, caps_row, order_row = allocation[b], caps[b], order[b]
            idx = 0
            while rem > 0:
                i = order_row[idx % k]
                if caps_row[i] - row[i] > 0:
                    row[i] += 1
                    rem -= 1
                idx += 1
    return allocation
