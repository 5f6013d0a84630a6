"""Pinned behaviour of the four named axes of the experiment grid.

The cell order and the cache keys below are contracts: a result store
written by an earlier version must keep hitting, and sweeps report cells in
this order.
"""

import itertools

import pytest

import repro.region  # noqa: F401  (registers the region topologies)
from repro.cloud.config import SimulationConfig
from repro.dynamics import Scenario, get_scenario, register_scenario
from repro.engine import ExperimentSpec
from repro.engine.spec import ExperimentCell, derive_seed
from repro.serve import TenantMix, TenantSpec, get_tenant_mix, register_tenant_mix


def _key(**fields):
    config = SimulationConfig(num_jobs=5, **fields)
    return ExperimentCell(index=0, strategy="speed", seed=1, config=config).cache_key()


class TestCellOrder:
    def test_all_axes_with_overrides_replicates_and_strategies(self):
        regions = (None, "dual")
        adaptive = ("static", None)
        tenants = (None, "noisy-neighbor")
        scenarios = ("drift", None, "static")
        overrides = ({}, {"comm_fidelity_penalty": 0.9})
        strategies = ("speed", "fair", "fidelity")
        spec = ExperimentSpec(
            base_config=SimulationConfig(num_jobs=5, seed=7),
            strategies=strategies,
            replicates=2,
            overrides=overrides,
            scenarios=scenarios,
            tenant_mixes=tenants,
            regions=regions,
            adaptive=adaptive,
        )
        seeds = [derive_seed(7, "replicate", r) for r in range(2)]
        expected = [
            (r, a, t, s, o.get("comm_fidelity_penalty", 0.95), rep, seeds[rep], strategy)
            for r, a, t, s, o, rep, strategy in itertools.product(
                regions, adaptive, tenants, scenarios, overrides, range(2), strategies
            )
        ]
        cells = spec.cells()
        assert len(spec) == len(cells) == len(expected) == 288
        assert [c.index for c in cells] == list(range(288))
        assert [
            (
                c.config.regions,
                c.config.adaptive,
                c.config.tenants,
                c.config.scenario,
                c.config.comm_fidelity_penalty,
                c.replicate,
                c.seed,
                c.strategy,
            )
            for c in cells
        ] == expected
        assert all(c.config.policy == c.strategy and c.config.seed == c.seed for c in cells)

    def test_omitted_axes_keep_the_base_config(self):
        base = SimulationConfig(
            num_jobs=5, scenario="drift", tenants="single", regions="dual", adaptive="reactive"
        )
        (cell,) = ExperimentSpec(base_config=base).cells()
        assert (cell.config.scenario, cell.config.tenants) == ("drift", "single")
        assert (cell.config.regions, cell.config.adaptive) == ("dual", "reactive")


class TestTenantMixesAxis:
    def test_cells_cross_mixes_with_strategies(self):
        spec = ExperimentSpec(
            base_config=SimulationConfig(num_jobs=5),
            strategies=("speed", "fair"),
            tenant_mixes=("single", "noisy-neighbor"),
        )
        cells = spec.cells()
        assert len(spec) == len(cells) == 4
        assert [c.config.tenants for c in cells] == [
            "single", "single", "noisy-neighbor", "noisy-neighbor"
        ]
        assert [c.strategy for c in cells] == ["speed", "fair", "speed", "fair"]

    def test_none_entry_clears_and_omission_keeps_tenants(self):
        base = SimulationConfig(num_jobs=5, tenants="noisy-neighbor")
        spec = ExperimentSpec(base_config=base, tenant_mixes=(None, "single"))
        assert [c.config.tenants for c in spec.cells()] == [None, "single"]
        assert [c.config.tenants for c in ExperimentSpec(base_config=base).cells()] == [
            "noisy-neighbor"
        ]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(base_config=SimulationConfig(num_jobs=5), tenant_mixes=())

    def test_cache_keys_differ_by_mix(self):
        spec = ExperimentSpec(
            base_config=SimulationConfig(num_jobs=5),
            tenant_mixes=(None, "single", "noisy-neighbor"),
        )
        keys = [cell.cache_key() for cell in spec.cells()]
        assert None not in keys
        assert len(set(keys)) == len(keys)

    def test_cache_key_tracks_mix_content(self):
        original = get_tenant_mix("noisy-neighbor")
        before = _key(tenants="noisy-neighbor")
        try:
            register_tenant_mix(
                TenantMix(name="noisy-neighbor", tenants=(TenantSpec(name="only"),))
            )
            changed = _key(tenants="noisy-neighbor")
        finally:
            register_tenant_mix(original)
        assert before is not None and changed is not None and changed != before
        assert _key(tenants="noisy-neighbor") == before


class TestCacheKeyContent:
    def test_region_scenario_content_reaches_the_topology_key(self):
        """A topology names its region scenarios; re-registering one of them
        changes the world behind the topology, so its cells' keys change."""
        original = get_scenario("region-blackout")
        before = _key(regions="region-outage")
        try:
            register_scenario(
                Scenario(
                    name="region-blackout",
                    description="changed",
                    maintenance=original.maintenance,
                )
            )
            changed = _key(regions="region-outage")
        finally:
            register_scenario(original)
        assert before is not None and changed is not None and changed != before
        assert _key(regions="region-outage") == before

    @pytest.mark.parametrize("field", ["scenario", "tenants", "regions", "adaptive"])
    def test_unresolvable_reference_is_uncacheable(self, field):
        assert _key(**{field: "no-such-spec"}) is None
        assert _key(**{field: None}) is not None

    @pytest.mark.parametrize(
        "fields, key",
        [
            ({}, "3a7410afb164894c15b6f5947afbbddb47ecc16bbb99656c5b4a0bde0e188808"),
            ({"scenario": "flaky-fleet"},
             "26e718f549d34379d8843720b8f9b79ff705e89a3eded9d00d7fc238cd2643fa"),
            ({"tenants": "noisy-neighbor"},
             "fa6f682558734ab5c0549601344b05745becab77d4c06e32fe8b323a8fdfbe8e"),
            ({"regions": "follow-the-sun"},
             "6954827316d39e5351b6a45c2b27f8fdcf852f78378c7ddf9b0c3319ab01f0ce"),
            ({"adaptive": "predictive"},
             "1740605fa3017b62b397fb68149f83615aff8e4708f6b82a0d8f678523a36485"),
            ({"regions": "dual", "adaptive": "reactive", "tenants": "single",
              "scenario": "drift"},
             "14e46fc15f712948734ecf3b1ac7a5035a1ee6db11b9e106c01dac4c4d216678"),
        ],
    )
    def test_keys_are_pinned(self, fields, key):
        """Literal keys: a change here invalidates every stored result, so
        update them only when that is the intent."""
        assert _key(**fields) == key
