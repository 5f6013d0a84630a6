"""Config, experiment-grid, fast-path and region wiring of adaptive policies."""

import pytest

from repro.adaptive import AdaptivePolicySpec, get_adaptive_policy, register_adaptive_policy
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.engine.spec import ExperimentSpec


class TestSimulationConfig:
    def test_defaults_to_none(self):
        assert SimulationConfig().adaptive is None

    def test_with_adaptive_copies(self):
        base = SimulationConfig(num_jobs=5, seed=3)
        derived = base.with_adaptive("reactive")
        assert derived.adaptive == "reactive"
        assert base.adaptive is None
        assert derived.num_jobs == base.num_jobs

    def test_round_trips_through_as_dict(self):
        from dataclasses import asdict

        config = SimulationConfig(num_jobs=5, adaptive="predictive")
        assert SimulationConfig(**asdict(config)).adaptive == "predictive"

    def test_unknown_name_fails_at_env_construction(self):
        with pytest.raises(KeyError):
            QCloudSimEnv(SimulationConfig(num_jobs=2, adaptive="nope"))

    def test_explicit_spec_overrides_config_name(self):
        inline = AdaptivePolicySpec(name="inline-static")
        env = QCloudSimEnv(
            SimulationConfig(num_jobs=2, adaptive="reactive"), adaptive=inline
        )
        assert env.adaptive_policy is inline

    def test_adaptive_report_requires_adaptive_run(self):
        env = QCloudSimEnv(SimulationConfig(num_jobs=2))
        with pytest.raises(RuntimeError):
            env.adaptive_report()


class TestFastPathInteraction:
    def test_static_policy_keeps_fast_path(self):
        config = SimulationConfig(num_jobs=10, seed=1, adaptive="static")
        env = QCloudSimEnv(config)
        assert env.fast_path_active

    def test_active_policy_falls_back_to_legacy_engine(self):
        # The control plane senses arrivals in broker.submit, which the flat
        # dispatcher bypasses: an active policy selects the per-job engine.
        config = SimulationConfig(num_jobs=10, seed=1, adaptive="reactive")
        env = QCloudSimEnv(config)
        assert not env.fast_path_active
        records = env.run_until_complete()
        assert len(records) == 10

    def test_active_policy_refuses_explicit_fast_path(self):
        config = SimulationConfig(num_jobs=10, seed=1, adaptive="reactive")
        with pytest.raises(ValueError, match="no active adaptive policy"):
            QCloudSimEnv(config, fast_path=True)


class TestExperimentGrid:
    def _spec(self, **kwargs):
        return ExperimentSpec(
            base_config=SimulationConfig(num_jobs=4, seed=5),
            strategies=("speed", "fidelity"),
            **kwargs,
        )

    def test_axis_multiplies_cell_count(self):
        assert len(self._spec()) == 2
        assert len(self._spec(adaptive=(None, "static", "reactive"))) == 6

    def test_axis_must_be_non_empty(self):
        with pytest.raises(ValueError):
            self._spec(adaptive=())

    def test_cells_carry_the_axis_value(self):
        spec = self._spec(adaptive=(None, "reactive"))
        values = {cell.config.adaptive for cell in spec.cells()}
        assert values == {None, "reactive"}

    def test_absent_axis_keeps_base_config_adaptive(self):
        spec = ExperimentSpec(
            base_config=SimulationConfig(num_jobs=4, seed=5, adaptive="predictive"),
            strategies=("speed",),
        )
        assert [cell.config.adaptive for cell in spec.cells()] == ["predictive"]

    def test_cache_key_depends_on_policy_content(self):
        spec = self._spec(adaptive=("reactive",))
        cell = next(iter(spec.cells()))
        before = cell.cache_key()
        assert before is not None
        original = get_adaptive_policy("reactive")
        try:
            register_adaptive_policy(
                AdaptivePolicySpec(
                    name="reactive", adaptive_admission=True, aimd_increase=0.99
                )
            )
            assert cell.cache_key() != before
        finally:
            register_adaptive_policy(original)
        assert cell.cache_key() == before

    def test_unresolvable_policy_is_uncacheable(self):
        spec = ExperimentSpec(
            base_config=SimulationConfig(num_jobs=4, seed=5, adaptive="ghost-policy"),
            strategies=("speed",),
        )
        cell = next(iter(spec.cells()))
        assert cell.cache_key() is None

    def test_run_experiment_over_adaptive_axis(self):
        from repro.engine import ExperimentRunner

        spec = ExperimentSpec(
            base_config=SimulationConfig(num_jobs=6, seed=5, tenants="noisy-neighbor"),
            strategies=("speed",),
            adaptive=(None, "reactive"),
        )
        outcome = ExperimentRunner().run(spec)
        assert len(outcome) == 2
        assert {r.cell.config.adaptive for r in outcome} == {None, "reactive"}


class TestRegionPassThrough:
    def test_shard_config_inherits_adaptive(self):
        from repro.region import RegionalCloud

        config = SimulationConfig(num_jobs=6, seed=2, regions="dual",
                                  adaptive="reactive")
        cloud = RegionalCloud(config=config)
        for region in cloud.topology.regions:
            assert cloud._shard_config(region).adaptive == "reactive"

    def test_single_region_static_identical_to_plain(self):
        from repro.region import RegionalCloud

        config = SimulationConfig(num_jobs=8, policy="fidelity", seed=11,
                                  regions="single", adaptive="static")
        cloud = RegionalCloud(config=config)
        records = cloud.run_until_complete()
        env = QCloudSimEnv(SimulationConfig(num_jobs=8, policy="fidelity", seed=11))
        plain = env.run_until_complete()
        assert [r.as_dict() for r in records] == [r.as_dict() for r in plain]

    def test_multi_region_adaptive_run_completes(self):
        from repro.region import RegionalCloud

        config = SimulationConfig(num_jobs=12, seed=4, regions="dual",
                                  adaptive="predictive")
        cloud = RegionalCloud(config=config)
        records = cloud.run_until_complete()
        assert len(records) + len(cloud.failed) == 12
