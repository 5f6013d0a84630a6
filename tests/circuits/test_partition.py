"""Unit and property-based tests for qubit partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.partition import (
    allocation_from_weights,
    allocation_from_weights_batch,
    partition_even,
    partition_greedy_fill,
    partition_proportional,
    validate_allocation,
)


class TestValidateAllocation:
    def test_accepts_valid(self):
        validate_allocation([3, 2], total=5, capacities=[4, 4])

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValueError):
            validate_allocation([3, 3], total=5, capacities=[4, 4])

    def test_rejects_capacity_violation(self):
        with pytest.raises(ValueError):
            validate_allocation([5, 0], total=5, capacities=[4, 4])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_allocation([6, -1], total=5, capacities=[10, 10])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            validate_allocation([5], total=5, capacities=[4, 4])


class TestGreedyFill:
    def test_fills_in_order(self):
        assert partition_greedy_fill(190, [127, 127, 127]) == [127, 63, 0]

    def test_exact_fit(self):
        assert partition_greedy_fill(254, [127, 127]) == [127, 127]

    def test_insufficient_capacity(self):
        with pytest.raises(ValueError):
            partition_greedy_fill(300, [127, 127])

    def test_skips_full_devices(self):
        assert partition_greedy_fill(50, [0, 30, 40]) == [0, 30, 20]


class TestEven:
    def test_even_split(self):
        assert partition_even(90, [127, 127, 127]) == [30, 30, 30]

    def test_uneven_remainder(self):
        allocation = partition_even(91, [127, 127, 127])
        assert sum(allocation) == 91
        assert max(allocation) - min(allocation) <= 1

    def test_respects_small_capacities(self):
        allocation = partition_even(100, [10, 200, 200])
        assert sum(allocation) == 100
        assert allocation[0] <= 10

    def test_insufficient(self):
        with pytest.raises(ValueError):
            partition_even(100, [10, 10])


class TestProportional:
    def test_proportional_to_weights(self):
        allocation = partition_proportional(100, [3.0, 1.0], [127, 127])
        assert allocation == [75, 25]

    def test_zero_weights_fall_back_to_even(self):
        allocation = partition_proportional(100, [0.0, 0.0], [127, 127])
        assert sum(allocation) == 100

    def test_capacity_respected_even_with_extreme_weights(self):
        allocation = partition_proportional(200, [1000.0, 1e-9], [127, 127])
        assert allocation[0] == 127
        assert sum(allocation) == 200

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            partition_proportional(10, [-1.0, 2.0], [20, 20])


def _one_at_a_time_partition_proportional(total, weights, capacities):
    """The one-qubit-per-step remainder loop :func:`partition_proportional`
    used before its round-based fill (over Python ints rather than NumPy
    scalars, the same steps); kept as the oracle that fill must match
    exactly."""
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
        return partition_even(total, capacities_list)
    raw = weights_arr / weight_sum * total
    allocation = np.minimum(np.floor(raw), capacities_list).astype(int).tolist()
    remaining = total - sum(allocation)
    if remaining > 0:
        frac_part = raw - np.floor(raw)
        order = np.argsort(-(frac_part + 1e-9 * np.asarray(capacities_list))).tolist()
        idx = 0
        while remaining > 0:
            i = order[idx % len(order)]
            if capacities_list[i] - allocation[i] > 0:
                allocation[i] += 1
                remaining -= 1
            idx += 1
    validate_allocation(allocation, total, capacities_list)
    return allocation


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


class TestRemainderFillMatchesOneAtATime:
    """The round-based remainder fill gives exactly the allocations (and
    errors) of the one-qubit-at-a-time loop it replaced."""

    CASES_PER_SEED = 25_000

    @staticmethod
    def _case(rng):
        n = int(rng.integers(1, 9))
        capacities = rng.integers(0, 128, n)
        capacities[rng.random(n) < 0.25] = 0
        # Weights of 0, the §4.1 epsilon, moderate values, and values large
        # enough that their sum overflows to inf.
        kind = rng.integers(0, 4, n)
        weights = np.select(
            [kind == 0, kind == 1, kind == 2],
            [0.0, 1e-8, rng.uniform(0.0, 10.0, n)],
            10.0 ** rng.uniform(100.0, 308.0, n),
        )
        if rng.random() < 0.01:
            weights[int(rng.integers(n))] = -1.0
        # Up to one past the combined capacity: full fleets and shortfalls.
        total = int(rng.integers(1, int(capacities.sum()) + 2))
        return total, weights.tolist(), capacities.tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_cases(self, seed):
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore"):
            for _ in range(self.CASES_PER_SEED):
                case = self._case(rng)
                got = _outcome(partition_proportional, *case)
                assert got == _outcome(_one_at_a_time_partition_proportional, *case), case
                if isinstance(got, list):
                    assert all(type(a) is int for a in got), case

    def test_large_remainder_on_full_devices(self):
        """The rlbase regime: the weight sits on devices with no headroom,
        so almost the whole demand is left to the remainder fill."""
        case = (250, [5.0, 3.0, 1e-8, 1e-8, 1e-8], [0, 0, 127, 100, 60])
        assert partition_proportional(*case) == _one_at_a_time_partition_proportional(*case)
        assert partition_proportional(*case) == [0, 0, 95, 95, 60]


class TestAllocationFromWeights:
    def test_clips_negative_weights(self):
        allocation = allocation_from_weights([-5.0, 1.0, 1.0], 100, [127, 127, 127])
        assert sum(allocation) == 100
        assert allocation[0] <= allocation[1]

    def test_all_negative_weights_still_valid(self):
        allocation = allocation_from_weights([-1.0, -2.0], 50, [127, 127])
        assert sum(allocation) == 50


# ---------------------------------------------------------------------------
# Property-based tests: every partitioning function must satisfy the §4
# constraints (sum equals demand, no entry negative, capacities respected)
# for arbitrary feasible inputs.
# ---------------------------------------------------------------------------
feasible_problem = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(min_value=0, max_value=200), min_size=n, max_size=n),
        st.integers(min_value=1, max_value=200 * n),
    )
)


@settings(max_examples=150, deadline=None)
@given(feasible_problem)
def test_greedy_fill_properties(problem):
    capacities, total = problem
    if sum(capacities) < total:
        with pytest.raises(ValueError):
            partition_greedy_fill(total, capacities)
        return
    allocation = partition_greedy_fill(total, capacities)
    validate_allocation(allocation, total, capacities)


@settings(max_examples=150, deadline=None)
@given(feasible_problem)
def test_even_partition_properties(problem):
    capacities, total = problem
    if sum(capacities) < total:
        return
    allocation = partition_even(total, capacities)
    validate_allocation(allocation, total, capacities)


@settings(max_examples=150, deadline=None)
@given(
    feasible_problem,
    st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=8, max_size=8),
)
def test_proportional_partition_properties(problem, raw_weights):
    capacities, total = problem
    if sum(capacities) < total:
        return
    weights = raw_weights[: len(capacities)]
    allocation = partition_proportional(total, weights, capacities)
    validate_allocation(allocation, total, capacities)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=130, max_value=250),
    st.lists(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=5, max_size=5
    ),
)
def test_rl_action_postprocessing_properties(total, weights):
    capacities = [127] * 5
    allocation = allocation_from_weights(weights, total, capacities)
    validate_allocation(allocation, total, capacities)


class TestAllocationFromWeightsBatch:
    def test_rows_match_scalar_path_exactly(self):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=(32, 5))
        totals = rng.integers(130, 251, size=32)
        capacities = [127] * 5
        batch = allocation_from_weights_batch(weights, totals, capacities)
        assert batch.shape == (32, 5)
        for b in range(32):
            expected = allocation_from_weights(weights[b], int(totals[b]), capacities)
            assert batch[b].tolist() == expected

        # A -inf weight clips to zero like any negative one, on both paths.
        weights[3, 1] = -np.inf
        batch = allocation_from_weights_batch(weights, totals, capacities)
        assert batch[3].tolist() == allocation_from_weights(weights[3], int(totals[3]), capacities)
        # A NaN or +inf weight is refused by both paths; the batch names the row.
        for b, bad in ((7, np.nan), (19, np.inf)):
            rows = weights.copy()
            rows[b, 2] = bad
            with pytest.raises(ValueError, match=f"row {b}"):
                allocation_from_weights_batch(rows, totals, capacities)
            with pytest.raises(ValueError, match="finite"):
                allocation_from_weights(rows[b], int(totals[b]), capacities)

    def test_per_row_capacities(self):
        rng = np.random.default_rng(1)
        weights = rng.uniform(0, 1, size=(16, 5))
        capacities = rng.integers(30, 128, size=(16, 5))
        totals = np.minimum(capacities.sum(axis=1), 250)
        batch = allocation_from_weights_batch(weights, totals, capacities)
        for b in range(16):
            expected = allocation_from_weights(
                weights[b], int(totals[b]), capacities[b].tolist()
            )
            assert batch[b].tolist() == expected
            validate_allocation(batch[b].tolist(), int(totals[b]), capacities[b].tolist())

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            allocation_from_weights_batch(np.ones(5), [100], [127] * 5)  # 1-D weights
        with pytest.raises(ValueError):
            allocation_from_weights_batch(np.ones((2, 5)), [100], [127] * 5)  # totals len
        with pytest.raises(ValueError):
            allocation_from_weights_batch(np.ones((2, 5)), [100, 0], [127] * 5)  # total <= 0
        with pytest.raises(ValueError):
            allocation_from_weights_batch(np.ones((2, 5)), [100, 700], [127] * 5)  # capacity
        with pytest.raises(ValueError):
            allocation_from_weights_batch(np.ones((2, 5)), [100, 100], [127] * 4)  # shape

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=16),
    )
    def test_property_batch_equals_scalar(self, seed, batch_size):
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=(batch_size, 5)) * 3
        totals = rng.integers(130, 251, size=batch_size)
        capacities = [127] * 5
        batch = allocation_from_weights_batch(weights, totals, capacities)
        for b in range(batch_size):
            assert batch[b].tolist() == allocation_from_weights(
                weights[b], int(totals[b]), capacities
            )
