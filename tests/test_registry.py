"""The SpecRegistry contract, checked once for every named axis."""

import pytest

from repro.adaptive import ADAPTIVE_POLICIES, AdaptivePolicySpec
from repro.dynamics import SCENARIOS, Scenario
from repro.region import TOPOLOGIES, RegionSpec, RegionTopology
from repro.registry import AXES
from repro.serve import TENANT_MIXES, TenantMix, TenantSpec

NAME = "_contract"

#: (registry, first preset, factory building a spec named NAME).
CASES = {
    "scenario": (SCENARIOS, "static", lambda d: Scenario(name=NAME, description=d)),
    "tenants": (
        TENANT_MIXES,
        "single",
        lambda d: TenantMix(name=NAME, description=d, tenants=(TenantSpec(name="a"),)),
    ),
    "regions": (
        TOPOLOGIES,
        "single",
        lambda d: RegionTopology(name=NAME, description=d, regions=(RegionSpec(name="eu"),)),
    ),
    "adaptive": (
        ADAPTIVE_POLICIES,
        "static",
        lambda d: AdaptivePolicySpec(name=NAME, description=d),
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    registry, first, make = CASES[request.param]
    yield registry, first, make
    registry.pop(NAME)


def test_axis_table_points_at_the_registries():
    assert {axis.field: axis.registry for axis in AXES} == {
        field: registry for field, (registry, _, _) in CASES.items()
    }


def test_register_get_and_overwrite(case):
    registry, first, make = case
    assert registry.available()[0] == first
    spec = make("one")
    registry.register(spec)
    assert registry.get(NAME) is spec
    assert registry.available()[-1] == NAME
    replacement = make("two")
    registry.register(replacement)
    assert registry.get(NAME) is replacement
    assert registry.available().count(NAME) == 1


def test_unknown_name_lists_the_catalogue(case):
    registry, first, _ = case
    with pytest.raises(KeyError, match=f"unknown {registry.kind} 'nope'.*{first}"):
        registry.get("nope")


def test_resolve_passes_none_and_instances_through(case):
    registry, first, make = case
    spec = make("inline")
    assert registry.resolve(None) is None
    assert registry.resolve(spec) is spec
    assert registry.resolve(first) is registry.get(first)
    with pytest.raises(KeyError):
        registry.resolve("nope")


def test_fingerprint_tracks_content(case):
    registry, _, make = case
    assert registry.fingerprint(NAME) is None
    registry.register(make("one"))
    before = registry.fingerprint(NAME)
    registry.register(make("one"))
    assert registry.fingerprint(NAME) == before
    registry.register(make("two"))
    assert before is not None and registry.fingerprint(NAME) != before
    registry.pop(NAME)
    assert registry.fingerprint(NAME) is None


def test_topology_fingerprint_needs_its_region_scenarios():
    TOPOLOGIES.register(
        RegionTopology(name=NAME, regions=(RegionSpec(name="eu", scenario="no-such-scenario"),))
    )
    try:
        assert TOPOLOGIES.fingerprint(NAME) is None
    finally:
        TOPOLOGIES.pop(NAME)
