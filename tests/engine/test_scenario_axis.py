"""The experiment engine's scenario grid axis."""

import pytest

from repro.cloud.config import SimulationConfig
from repro.engine import ExperimentRunner, ExperimentSpec


class TestScenarioAxis:
    def test_cells_cross_scenarios_with_strategies(self):
        spec = ExperimentSpec(
            base_config=SimulationConfig(num_jobs=5),
            strategies=("speed", "fair"),
            scenarios=("static", "drift"),
        )
        cells = spec.cells()
        assert len(spec) == 4
        assert len(cells) == 4
        assert [c.config.scenario for c in cells] == ["static", "static", "drift", "drift"]
        assert [c.strategy for c in cells] == ["speed", "fair", "speed", "fair"]
        assert [c.index for c in cells] == [0, 1, 2, 3]

    def test_none_entry_clears_scenario(self):
        spec = ExperimentSpec(
            base_config=SimulationConfig(num_jobs=5, scenario="drift"),
            scenarios=(None, "rush-hour"),
        )
        assert [c.config.scenario for c in spec.cells()] == [None, "rush-hour"]

    def test_omitted_axis_keeps_base_scenario(self):
        spec = ExperimentSpec(base_config=SimulationConfig(num_jobs=5, scenario="drift"))
        assert [c.config.scenario for c in spec.cells()] == ["drift"]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(base_config=SimulationConfig(num_jobs=5), scenarios=())

    def test_cache_keys_differ_by_scenario(self):
        spec = ExperimentSpec(
            base_config=SimulationConfig(num_jobs=5),
            scenarios=("static", "drift"),
        )
        keys = [cell.cache_key() for cell in spec.cells()]
        assert len(set(keys)) == len(keys)

    def test_cache_key_tracks_scenario_content(self, tmp_path):
        """Re-recording a trace (or re-registering a custom scenario) under
        the same name must change the cache key — name-only keys would let
        the result store return stale results."""
        from repro.cloud.environment import QCloudSimEnv
        from repro.dynamics import SCENARIOS, DriftSpec, Scenario, register_scenario
        from repro.engine.spec import ExperimentCell

        def key_for(scenario_name):
            config = SimulationConfig(num_jobs=5, scenario=scenario_name)
            return ExperimentCell(
                index=0, strategy="speed", seed=1, config=config
            ).cache_key()

        # Trace path: same file name, different content.
        trace = tmp_path / "run.jsonl"
        env = QCloudSimEnv(SimulationConfig(num_jobs=3, policy="speed"))
        env.run_until_complete()
        env.save_trace(str(trace))
        key_a = key_for(str(trace))
        env2 = QCloudSimEnv(SimulationConfig(num_jobs=4, policy="speed"))
        env2.run_until_complete()
        env2.save_trace(str(trace))
        key_b = key_for(str(trace))
        assert key_a is not None and key_a != key_b

        # Registered scenario: same name, different specs.
        try:
            register_scenario(Scenario(name="cache-test", drift=DriftSpec(interval=100.0)))
            key_c = key_for("cache-test")
            register_scenario(Scenario(name="cache-test", drift=DriftSpec(interval=200.0)))
            key_d = key_for("cache-test")
            assert key_c is not None and key_c != key_d
        finally:
            SCENARIOS.pop("cache-test")

        # Unresolvable references are uncacheable, not wrongly cached.
        assert key_for(str(tmp_path / "missing.jsonl")) is None
        assert key_for("not-a-registered-scenario") is None

    def test_runner_executes_scenario_grid(self):
        spec = ExperimentSpec(
            base_config=SimulationConfig(num_jobs=8),
            strategies=("speed",),
            scenarios=("static", "flaky-fleet"),
        )
        outcome = ExperimentRunner().run(spec)
        assert len(outcome) == 2
        static, flaky = outcome.results
        assert static.summary.num_jobs == 8
        assert flaky.summary.num_jobs == 8
        # The flaky world perturbs the schedule relative to the static one.
        assert static.summary.total_simulation_time != flaky.summary.total_simulation_time

    def test_scenario_traffic_flows_through_runner(self):
        """execute_cell defers workload generation to the environment, so a
        traffic-shaping scenario changes the arrivals inside a worker cell."""
        spec = ExperimentSpec(
            base_config=SimulationConfig(num_jobs=8),
            strategies=("speed",),
            scenarios=("rush-hour",),
        )
        result = ExperimentRunner().run(spec).results[0]
        arrivals = [r.arrival_time for r in result.records]
        assert any(t > 0 for t in arrivals)  # not the default batch-at-zero
