"""Tests for BatchedQCloudEnv — the allocation MDP of §4.1, ``B`` rows at once.

The key property is *per-row equivalence* with a scalar oracle built in this
file from the scalar §4.1 partition (:func:`allocation_from_weights`), the
scalar Eq. 4-7 fidelity functions and the reference observation layout
(:func:`build_observation`): observations and allocations match exactly,
fidelities and rewards to within an ulp or two (NumPy's array ``pow`` vs the
scalar ``pow``).
"""

import numpy as np
import pytest

from repro.circuits.partition import allocation_from_weights
from repro.gymapi.spaces import Box
from repro.gymapi.vector import VecEnv
from repro.metrics.error_score import error_score
from repro.metrics.fidelity import (
    communication_penalty,
    readout_fidelity,
    single_qubit_fidelity,
    two_qubit_fidelity,
)
from repro.rlenv.batched_env import BatchedQCloudEnv
from repro.scheduling.rl_policy import CLOPS_NORM, build_observation


@pytest.fixture
def benv(default_fleet):
    return BatchedQCloudEnv(n_envs=8, devices=default_fleet, seed=0)


def oracle_observation(env, row):
    """The §4.1 state of row *row*, from the reference observation layout."""
    states = [
        (int(free), error_score(d.calibration), d.clops)
        for free, d in zip(env._free_levels[row], env.devices)
    ]
    return build_observation(int(env._job_qubits[row]), states, max_qubits=env.max_qubits)


def oracle_step(env, row, action):
    """Score *action* for row *row* with the scalar partition and Eqs. 4-8.

    Returns ``(reward, allocation, device_fidelities)``.
    """
    qubits = int(env._job_qubits[row])
    depth = int(env._job_depths[row])
    two_qubit_gates = int(env._job_two_qubit_gates[row])
    free = env._free_levels[row].tolist()
    allocation = allocation_from_weights(action[: len(env.devices)], qubits, free)
    used = [(i, a) for i, a in enumerate(allocation) if a > 0]
    fidelities = []
    for i, a in used:
        device = env.devices[i]
        f_1q = single_qubit_fidelity(device.avg_single_qubit_error, depth)
        f_ro = readout_fidelity(device.avg_readout_error, qubits, len(used))
        if env.include_two_qubit_errors:
            f_2q = two_qubit_fidelity(device.avg_two_qubit_error, two_qubit_gates * (a / qubits))
        else:
            f_2q = 1.0
        fidelities.append(f_1q * f_2q * f_ro)
    reward = float(np.mean(fidelities))
    if env.communication_aware:
        reward *= communication_penalty(len(used))
    return reward, allocation, fidelities


class TestConstruction:
    def test_is_vecenv_with_single_env_spaces(self, benv):
        assert isinstance(benv, VecEnv)
        assert benv.num_envs == 8
        assert isinstance(benv.observation_space, Box)
        assert benv.observation_space.shape == (16,)
        assert benv.action_space.shape == (5,)

    def test_invalid_n_envs_rejected(self, default_fleet):
        with pytest.raises(ValueError):
            BatchedQCloudEnv(n_envs=0, devices=default_fleet)

    def test_too_many_devices_rejected(self, default_fleet):
        with pytest.raises(ValueError):
            BatchedQCloudEnv(n_envs=2, devices=list(default_fleet) * 2)

    def test_qubit_range_must_fit_fleet(self, default_fleet):
        with pytest.raises(ValueError):
            BatchedQCloudEnv(n_envs=2, devices=default_fleet, qubit_range=(100, 10_000))

    def test_step_before_reset_raises(self, default_fleet):
        env = BatchedQCloudEnv(n_envs=2, devices=default_fleet)
        with pytest.raises(RuntimeError):
            env.step(np.ones((2, 5)))

    @pytest.mark.parametrize("kwargs, match", [
        ({"two_qubit_density": float("nan")}, "two_qubit_density"),
        ({"two_qubit_density": -0.1}, "two_qubit_density"),
        ({"two_qubit_density": 1.5}, "two_qubit_density"),
        ({"depth_range": (20, 5)}, "depth_range"),
        ({"depth_range": (-3, 5)}, "depth_range"),
        ({"depth_range": (-5, -3)}, "depth_range"),
        ({"max_qubits": 0}, "max_qubits"),
        ({"qubit_range": (0, 200)}, "qubit_range"),
    ])
    def test_invalid_job_parameters_rejected_at_construction(self, default_fleet, kwargs, match):
        with pytest.raises(ValueError, match=match):
            BatchedQCloudEnv(n_envs=2, devices=default_fleet, **kwargs)


class TestReset:
    def test_batched_observation_shape_and_infos(self, benv):
        obs, infos = benv.reset(seed=1)
        assert obs.shape == (8, 16)
        assert all(benv.observation_space.contains(row) for row in obs)
        assert len(infos) == 8
        for i, info in enumerate(infos):
            assert 130 <= info["job_qubits"] <= 250
            assert 5 <= info["job_depth"] <= 20
            assert info["free_levels"].sum() >= info["job_qubits"]

    def test_seeded_reset_reproducible(self, default_fleet):
        e1 = BatchedQCloudEnv(n_envs=4, devices=default_fleet)
        e2 = BatchedQCloudEnv(n_envs=4, devices=default_fleet)
        o1, _ = e1.reset(seed=7)
        o2, _ = e2.reset(seed=7)
        assert np.array_equal(o1, o2)

    def test_rows_are_distinct_jobs(self, benv):
        benv.reset(seed=3)
        assert len(set(benv._job_qubits.tolist())) > 1

    def test_sequence_seed_rejected(self, benv):
        with pytest.raises(TypeError):
            benv.reset(seed=[1, 2, 3, 4, 5, 6, 7, 8])

    def test_fixed_utilization_mode(self, default_fleet):
        env = BatchedQCloudEnv(n_envs=3, devices=default_fleet, randomize_utilization=False)
        _, infos = env.reset(seed=0)
        for info in infos:
            assert np.all(info["free_levels"] == 127)

    def test_rejection_fallback_keeps_jobs_feasible(self, default_fleet):
        # qubit_range above the minimum first-draw free sum (250 for this
        # fleet) forces the batched retry/full-capacity fallback paths.
        env = BatchedQCloudEnv(n_envs=8, devices=default_fleet, qubit_range=(260, 300), seed=5)
        for _ in range(20):
            _, infos = env.reset()
            for info in infos:
                assert info["free_levels"].sum() >= info["job_qubits"]


class TestScalarEquivalence:
    def test_observations_match_reference_layout(self, benv):
        obs, _ = benv.reset(seed=11)
        for i in range(benv.num_envs):
            assert np.array_equal(oracle_observation(benv, i), obs[i])

    @pytest.mark.parametrize("kwargs", [
        {},
        {"communication_aware": True},
        {"include_two_qubit_errors": False},
    ])
    def test_step_matches_scalar_oracle(self, default_fleet, kwargs):
        benv = BatchedQCloudEnv(n_envs=6, devices=default_fleet, seed=17, **kwargs)
        actions = np.random.default_rng(4).uniform(0.0, 1.0, size=(6, 5))
        expected = [oracle_step(benv, i, actions[i]) for i in range(6)]
        _, rewards, terminated, truncated, infos = benv.step(actions)
        assert np.all(terminated)
        assert not np.any(truncated)
        for i, (reward, allocation, fidelities) in enumerate(expected):
            assert infos[i]["allocation"] == allocation
            assert infos[i]["num_devices"] == len(fidelities)
            # Equal to within a couple of ulps (array vs scalar pow).
            np.testing.assert_allclose(rewards[i], reward, rtol=1e-14)
            np.testing.assert_allclose(infos[i]["device_fidelities"], fidelities, rtol=1e-14)

    def test_concentrated_action_uses_fewer_devices(self, benv):
        benv.reset(seed=5)
        spread = np.ones((8, 5))
        _, _, _, _, spread_infos = benv.step(spread)
        # restore identical jobs for the concentrated action
        benv.reset(seed=5)
        conc = np.tile(np.array([10.0, 10.0, 0.0, 0.0, 0.0]), (8, 1))
        _, _, _, _, conc_infos = benv.step(conc)
        for s, c in zip(spread_infos, conc_infos):
            assert c["num_devices"] <= s["num_devices"]


class TestAutoReset:
    def test_step_returns_next_jobs_observation(self, benv):
        obs0, _ = benv.reset(seed=2)
        obs1, rewards, _, _, infos = benv.step(np.ones((8, 5)))
        assert not np.array_equal(obs0, obs1)
        for i, info in enumerate(infos):
            assert np.array_equal(info["final_observation"], obs0[i])
            assert set(info["final_info"]) == {
                "allocation", "num_devices", "device_fidelities", "job_qubits",
            }
        assert np.all(rewards > 0.0) and np.all(rewards <= 1.0)

    def test_many_steps_stay_feasible(self, benv):
        benv.reset(seed=8)
        rng = np.random.default_rng(0)
        for _ in range(50):
            _, rewards, _, _, infos = benv.step(rng.uniform(0, 1, size=(8, 5)))
            for info in infos:
                assert sum(info["allocation"]) == info["job_qubits"]
            assert np.all(rewards > 0.0)


class TestMDP:
    """The §4.1 reward and action semantics, checked on whole batches."""

    def test_spaces_are_16_and_5_dimensional(self, benv):
        assert benv.observation_space.shape == (16,)
        assert benv.action_space.shape == (5,)

    def test_reward_is_mean_device_fidelity(self, benv):
        benv.reset(seed=3)
        _, rewards, _, _, infos = benv.step(np.ones((8, 5)))
        for reward, info in zip(rewards, infos):
            assert reward == pytest.approx(np.mean(info["device_fidelities"]))

    def test_allocation_respects_free_levels(self, benv):
        _, reset_infos = benv.reset(seed=4)
        action = np.tile([5.0, 0.1, 0.1, 0.1, 0.1], (8, 1))
        _, _, _, _, infos = benv.step(action)
        for reset_info, info in zip(reset_infos, infos):
            assert all(a <= f for a, f in zip(info["allocation"], reset_info["free_levels"]))

    def test_communication_aware_reward_penalised(self, default_fleet):
        base = BatchedQCloudEnv(n_envs=4, devices=default_fleet, randomize_utilization=False)
        shaped = BatchedQCloudEnv(
            n_envs=4, devices=default_fleet, randomize_utilization=False,
            communication_aware=True,
        )
        base.reset(seed=9)
        shaped.reset(seed=9)
        action = np.ones((4, 5))
        _, r_base, _, _, infos_base = base.step(action)
        _, r_shaped, _, _, infos_shaped = shaped.step(action)
        for i in range(4):
            assert infos_base[i]["allocation"] == infos_shaped[i]["allocation"]
            k = infos_base[i]["num_devices"]
            assert r_shaped[i] == pytest.approx(r_base[i] * communication_penalty(k))

    def test_two_qubit_errors_optionally_suppressed(self, default_fleet):
        with_2q = BatchedQCloudEnv(n_envs=4, devices=default_fleet, randomize_utilization=False)
        without_2q = BatchedQCloudEnv(
            n_envs=4, devices=default_fleet, randomize_utilization=False,
            include_two_qubit_errors=False,
        )
        with_2q.reset(seed=11)
        without_2q.reset(seed=11)
        _, r_with, _, _, _ = with_2q.step(np.ones((4, 5)))
        _, r_without, _, _, _ = without_2q.step(np.ones((4, 5)))
        assert np.all(r_without > r_with)

    def test_better_devices_yield_higher_fidelity(self, default_fleet):
        env = BatchedQCloudEnv(n_envs=4, devices=default_fleet, randomize_utilization=False)
        order = np.argsort(env._error_scores)

        def pair_action(indices):
            w = np.zeros((4, 5))
            w[:, list(indices)] = 1.0
            return w

        env.reset(seed=13)
        _, r_best, _, _, _ = env.step(pair_action(order[:2]))
        env.reset(seed=13)
        _, r_worst, _, _, _ = env.step(pair_action(order[-2:]))
        assert np.all(r_best > r_worst)


class TestActionShape:
    @pytest.mark.parametrize("shape", [(16, 5), (4, 5), (8,), (8, 3), (8, 6), (8, 5, 1)])
    def test_wrong_action_shape_rejected(self, benv, shape):
        # A (16, 5) batch reshapes to (8, 10) and would silently score the
        # wrong weights; every off-contract shape is refused instead.
        with pytest.raises(ValueError, match="actions must have shape"):
            benv.step(np.ones(shape))

    def test_one_row_accepts_flat_action(self, default_fleet):
        flat = BatchedQCloudEnv(n_envs=1, devices=default_fleet, seed=21)
        batched = BatchedQCloudEnv(n_envs=1, devices=default_fleet, seed=21)
        action = np.array([0.9, 0.1, 0.4, 0.0, 0.7])
        _, r_flat, _, _, i_flat = flat.step(action)
        _, r_batched, _, _, i_batched = batched.step(action[None, :])
        assert np.array_equal(r_flat, r_batched)
        assert i_flat[0]["allocation"] == i_batched[0]["allocation"]


class TestOneRow:
    """``n_envs=1`` is the serial training path: one row, same MDP."""

    @pytest.mark.parametrize("randomize_utilization", [True, False])
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_matches_scalar_oracle(self, default_fleet, seed, randomize_utilization):
        env = BatchedQCloudEnv(
            n_envs=1, devices=default_fleet, seed=seed,
            randomize_utilization=randomize_utilization,
        )
        rng = np.random.default_rng(seed)
        for _ in range(20):
            action = rng.uniform(0.0, 1.0, size=(1, 5))
            reward, allocation, fidelities = oracle_step(env, 0, action[0])
            _, rewards, _, _, infos = env.step(action)
            assert infos[0]["allocation"] == allocation
            np.testing.assert_allclose(rewards[0], reward, rtol=1e-14)
            np.testing.assert_allclose(infos[0]["device_fidelities"], fidelities, rtol=1e-14)

    def test_reset_returns_one_valid_row(self, default_fleet):
        env = BatchedQCloudEnv(n_envs=1, devices=default_fleet)
        obs, infos = env.reset(seed=1)
        assert obs.shape == (1, 16)
        assert env.observation_space.contains(obs[0])
        assert len(infos) == 1
        assert 130 <= infos[0]["job_qubits"] <= 250
        assert 5 <= infos[0]["job_depth"] <= 20

    def test_single_step_episode(self, default_fleet):
        env = BatchedQCloudEnv(n_envs=1, devices=default_fleet, seed=2)
        obs, rewards, terminated, truncated, infos = env.step(np.ones((1, 5)))
        assert obs.shape == (1, 16)
        assert terminated.tolist() == [True]
        assert truncated.tolist() == [False]
        assert 0.0 < rewards[0] <= 1.0
        assert sum(infos[0]["allocation"]) == infos[0]["job_qubits"]


class TestJobSampling:
    def test_jobs_within_configured_ranges(self, default_fleet):
        env = BatchedQCloudEnv(
            n_envs=16, devices=default_fleet, qubit_range=(150, 160), depth_range=(2, 3), seed=0
        )
        for _ in range(10):
            _, infos = env.reset()
            for info in infos:
                assert 150 <= info["job_qubits"] <= 160
                assert 2 <= info["job_depth"] <= 3

    def test_randomized_free_levels_between_40_and_100_percent(self, default_fleet):
        env = BatchedQCloudEnv(n_envs=16, devices=default_fleet, seed=1)
        capacities = np.array([d.num_qubits for d in default_fleet])
        for _ in range(10):
            _, infos = env.reset()
            for info in infos:
                assert np.all(info["free_levels"] >= np.floor(0.4 * capacities))
                assert np.all(info["free_levels"] <= capacities)

    def test_consecutive_resets_draw_new_jobs(self, benv):
        first, _ = benv.reset(seed=4)
        second, _ = benv.reset()
        assert not np.array_equal(first, second)

    def test_constructor_seed_equals_reset_seed(self, default_fleet):
        seeded = BatchedQCloudEnv(n_envs=4, devices=default_fleet, seed=6)
        later = BatchedQCloudEnv(n_envs=4, devices=default_fleet)
        later.reset(seed=6)
        assert np.array_equal(seeded._observations(), later._observations())

    def test_reset_infos_do_not_alias_env_state(self, benv):
        _, infos = benv.reset(seed=5)
        infos[0]["free_levels"][:] = 0
        assert np.all(benv._free_levels[0] > 0)

    def test_zero_density_means_no_two_qubit_error(self, default_fleet):
        no_gates = BatchedQCloudEnv(n_envs=4, devices=default_fleet, two_qubit_density=0.0)
        suppressed = BatchedQCloudEnv(
            n_envs=4, devices=default_fleet, include_two_qubit_errors=False
        )
        no_gates.reset(seed=12)
        suppressed.reset(seed=12)
        action = np.random.default_rng(1).uniform(0.0, 1.0, size=(4, 5))
        _, r_no_gates, _, _, _ = no_gates.step(action)
        _, r_suppressed, _, _, _ = suppressed.step(action)
        np.testing.assert_allclose(r_no_gates, r_suppressed, rtol=1e-15)


class TestObservationLayout:
    def test_static_columns_hold_error_scores_and_clops(self, benv):
        scores = [error_score(d.calibration) for d in benv.devices]
        clops = [d.clops / CLOPS_NORM for d in benv.devices]
        obs, _ = benv.reset(seed=2)
        for _ in range(3):
            assert np.array_equal(obs[:, 2::3], np.tile(scores, (8, 1)))
            assert np.array_equal(obs[:, 3::3], np.tile(clops, (8, 1)))
            obs, _, _, _, _ = benv.step(np.ones((8, 5)))

    def test_smaller_fleet_leaves_empty_slots_zero(self, default_fleet):
        env = BatchedQCloudEnv(n_envs=4, devices=default_fleet[:3], seed=3)
        obs, _ = env.reset(seed=3)
        assert obs.shape == (4, 16)
        assert np.all(obs[:, 10:] == 0.0)
        # Weights for the two empty slots are ignored.
        _, rewards, _, _, infos = env.step(np.tile([1.0, 1.0, 1.0, 50.0, 50.0], (4, 1)))
        for info in infos:
            assert len(info["allocation"]) == 3
            assert sum(info["allocation"]) == info["job_qubits"]
        assert np.all(rewards > 0.0)

    def test_observations_stay_in_space(self, benv):
        obs, _ = benv.reset(seed=6)
        rng = np.random.default_rng(6)
        for _ in range(20):
            assert all(benv.observation_space.contains(row) for row in obs)
            obs, _, _, _, _ = benv.step(rng.uniform(0.0, 1.0, size=(8, 5)))

    def test_final_observation_is_previous_step_observation(self, benv):
        benv.reset(seed=7)
        obs1, _, _, _, _ = benv.step(np.ones((8, 5)))
        _, _, _, _, infos = benv.step(np.ones((8, 5)))
        for i, info in enumerate(infos):
            assert np.array_equal(info["final_observation"], obs1[i])

    def test_step_output_shapes_and_dtypes(self, benv):
        benv.reset(seed=8)
        obs, rewards, terminated, truncated, infos = benv.step(np.ones((8, 5)))
        assert obs.shape == (8, 16) and obs.dtype == np.float64
        assert rewards.shape == (8,) and rewards.dtype == np.float64
        assert terminated.shape == (8,) and terminated.dtype == bool
        assert truncated.shape == (8,) and truncated.dtype == bool
        assert len(infos) == 8
