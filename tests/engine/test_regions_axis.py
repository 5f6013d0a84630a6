"""The experiment engine's regions grid axis."""

import pytest

from repro.cloud.config import SimulationConfig
from repro.engine import ExperimentRunner, ExperimentSpec


class TestRegionsAxis:
    def test_regions_axis_is_outermost(self):
        spec = ExperimentSpec(
            base_config=SimulationConfig(num_jobs=5),
            strategies=("speed", "fair"),
            regions=(None, "dual"),
        )
        cells = spec.cells()
        assert len(spec) == 4
        assert [c.config.regions for c in cells] == [None, None, "dual", "dual"]
        assert [c.strategy for c in cells] == ["speed", "fair", "speed", "fair"]

    def test_none_entry_clears_regions(self):
        spec = ExperimentSpec(
            base_config=SimulationConfig(num_jobs=5, regions="dual"),
            regions=(None, "single"),
        )
        assert [c.config.regions for c in spec.cells()] == [None, "single"]

    def test_omitted_axis_keeps_base_regions(self):
        spec = ExperimentSpec(base_config=SimulationConfig(num_jobs=5, regions="single"))
        assert [c.config.regions for c in spec.cells()] == ["single"]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(base_config=SimulationConfig(num_jobs=5), regions=())

    def test_cache_keys_differ_by_regions(self):
        spec = ExperimentSpec(
            base_config=SimulationConfig(num_jobs=5),
            regions=(None, "single", "dual"),
        )
        keys = [cell.cache_key() for cell in spec.cells()]
        assert None not in keys
        assert len(set(keys)) == len(keys)

    def test_cache_key_tracks_topology_content(self):
        """Re-registering a topology under the same name must change the
        cache key — name-only keys would let the store return stale results."""
        from repro.engine.spec import ExperimentCell
        from repro.region import TOPOLOGIES, RegionSpec, RegionTopology, register_topology

        def key_for(regions_name):
            config = SimulationConfig(num_jobs=5, regions=regions_name)
            return ExperimentCell(
                index=0, strategy="speed", seed=1, config=config
            ).cache_key()

        try:
            register_topology(
                RegionTopology(
                    name="cache-test",
                    regions=(RegionSpec(name="eu", device_names=("ibm_kyiv",)),),
                )
            )
            key_a = key_for("cache-test")
            register_topology(
                RegionTopology(
                    name="cache-test",
                    regions=(RegionSpec(name="eu", device_names=("ibm_quebec",)),),
                )
            )
            key_b = key_for("cache-test")
            assert key_a is not None and key_a != key_b
        finally:
            TOPOLOGIES.pop("cache-test")

        # Unresolvable topologies are uncacheable, not wrongly cached.
        assert key_for("not-a-registered-topology") is None

    def test_runner_executes_regions_grid(self):
        spec = ExperimentSpec(
            base_config=SimulationConfig(num_jobs=6, seed=13),
            strategies=("speed",),
            regions=(None, "dual"),
        )
        outcome = ExperimentRunner().run(spec)
        assert len(outcome) == 2
        plain, regional = outcome.results
        assert plain.summary.num_jobs == 6
        assert regional.summary.num_jobs == 6
        # The sharded run generates per-region workloads, so the schedules
        # legitimately differ from the plain single-broker run.
        assert len(regional.records) == 6

    def test_single_region_cell_matches_plain_cell(self):
        base = SimulationConfig(num_jobs=6, seed=13)
        plain = ExperimentRunner().run(
            ExperimentSpec(base_config=base, strategies=("speed",))
        ).results[0]
        single = ExperimentRunner().run(
            ExperimentSpec(base_config=base, strategies=("speed",), regions=("single",))
        ).results[0]
        assert [r.as_dict() for r in single.records] == [
            r.as_dict() for r in plain.records
        ]
        assert single.summary == plain.summary
