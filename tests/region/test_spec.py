"""Region topology specs: validation, lookups and the preset registry."""

import pytest

from repro.cloud.communication import ClassicalCommunicationModel
from repro.region import (
    DEFAULT_REGION_LINK,
    RegionLink,
    RegionSpec,
    RegionTopology,
    available_topologies,
    get_topology,
)

PRESETS = (
    "single",
    "dual",
    "global-triad",
    "region-outage",
    "cross-region-rush-hour",
    "follow-the-sun",
)


class TestRegionSpec:
    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            RegionSpec(name="")

    def test_rejects_non_positive_share(self):
        with pytest.raises(ValueError):
            RegionSpec(name="eu", workload_share=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_share(self, value):
        with pytest.raises(ValueError, match="workload_share must be positive and finite"):
            RegionSpec(name="eu", workload_share=value)

    def test_rejects_empty_scenario_name(self):
        with pytest.raises(ValueError):
            RegionSpec(name="eu", scenario="")

    def test_device_names_normalised_to_tuple(self):
        spec = RegionSpec(name="eu", device_names=["ibm_kyiv", "ibm_quebec"])
        assert spec.device_names == ("ibm_kyiv", "ibm_quebec")


class TestRegionLink:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            RegionLink(a="eu", b="eu")

    def test_connects_is_order_insensitive(self):
        link = RegionLink(a="eu", b="us")
        assert link.connects("eu", "us")
        assert link.connects("us", "eu")
        assert not link.connects("eu", "ap")

    def test_defaults_to_the_region_link_model(self):
        assert RegionLink(a="eu", b="us").model == DEFAULT_REGION_LINK


class TestRegionTopology:
    def _regions(self):
        return (
            RegionSpec(name="eu", workload_share=3.0),
            RegionSpec(name="us", workload_share=1.0),
        )

    def test_rejects_duplicate_region_names(self):
        with pytest.raises(ValueError):
            RegionTopology(
                name="t", regions=(RegionSpec(name="eu"), RegionSpec(name="eu"))
            )

    def test_rejects_unknown_link_endpoint(self):
        with pytest.raises(ValueError):
            RegionTopology(
                name="t", regions=self._regions(), links=(RegionLink(a="eu", b="ap"),)
            )

    def test_rejects_duplicate_link_pair(self):
        with pytest.raises(ValueError):
            RegionTopology(
                name="t",
                regions=self._regions(),
                links=(RegionLink(a="eu", b="us"), RegionLink(a="us", b="eu")),
            )

    def test_rejects_empty_topology(self):
        with pytest.raises(ValueError):
            RegionTopology(name="t", regions=())

    def test_link_lookup(self):
        fast = ClassicalCommunicationModel(latency_per_qubit=0.01, fidelity_penalty=0.999)
        topology = RegionTopology(
            name="t",
            regions=self._regions() + (RegionSpec(name="ap"),),
            links=(RegionLink(a="eu", b="us", model=fast),),
        )
        # Intra-region traffic pays no inter-region cost.
        assert topology.link("eu", "eu") is None
        # Explicit links are order-insensitive; unlisted pairs use the default.
        assert topology.link("us", "eu") == fast
        assert topology.link("eu", "ap") == topology.default_link
        with pytest.raises(KeyError):
            topology.link("eu", "nowhere")

    def test_region_lookup(self):
        topology = RegionTopology(name="t", regions=self._regions())
        assert topology.region("eu").workload_share == 3.0
        with pytest.raises(KeyError):
            topology.region("ap")

    def test_is_single_region(self):
        assert RegionTopology(name="t", regions=(RegionSpec(name="eu"),)).is_single_region
        assert not RegionTopology(name="t", regions=self._regions()).is_single_region


class TestRegistry:
    def test_presets_registered(self):
        names = available_topologies()
        for preset in PRESETS:
            assert preset in names

    def test_single_preset_degenerates(self):
        single = get_topology("single")
        assert single.is_single_region
        # The pool is inherited from the run's config, keeping the preset
        # byte-identical to the plain cloud for any device configuration.
        assert single.regions[0].device_names == ()

    def test_preset_scenarios_registered_in_dynamics(self):
        from repro.dynamics import available_scenarios

        names = available_scenarios()
        for scenario in ("region-blackout", "region-rush-am", "region-rush-pm",
                         "region-sun-00", "region-sun-08", "region-sun-16"):
            assert scenario in names
