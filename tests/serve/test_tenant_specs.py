"""Tenant/SLO/admission spec validation and the mix registry."""

import pytest

from repro.dynamics.scenario import TrafficSpec
from repro.serve import (
    AdmissionSpec,
    SLOSpec,
    TenantMix,
    TenantSpec,
    available_tenant_mixes,
    get_tenant_mix,
)

ALL_PRESETS = ("single", "free-tier-vs-premium", "batch-vs-interactive", "noisy-neighbor")


class TestSLOSpec:
    def test_defaults_are_unbounded(self):
        assert SLOSpec().is_unbounded

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SLOSpec(queue_deadline=0.0)
        with pytest.raises(ValueError):
            SLOSpec(completion_deadline=-5.0)
        with pytest.raises(ValueError):
            SLOSpec(fidelity_floor=1.5)
        with pytest.raises(ValueError):
            SLOSpec(fidelity_floor=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["queue_deadline", "completion_deadline"])
    def test_rejects_non_finite_deadline(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            SLOSpec(**{name: value})

    def test_bounded(self):
        assert not SLOSpec(queue_deadline=10.0).is_unbounded


class TestAdmissionSpec:

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            AdmissionSpec(rate=0.0)
        with pytest.raises(ValueError):
            AdmissionSpec(rate=1.0, burst=0.5)
        with pytest.raises(ValueError):
            AdmissionSpec(max_queued=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["rate", "burst"])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be"):
            AdmissionSpec(**{name: value})


class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantSpec(name="")
        with pytest.raises(ValueError):
            TenantSpec(name="t", weight=0.0)
        with pytest.raises(ValueError):
            TenantSpec(name="t", share=-1.0)
        with pytest.raises(ValueError):
            TenantSpec(name="t", qubit_range=(10, 5))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_weight(self, value):
        # A NaN weight once ran silently and gave jobs NaN fair-share tags.
        with pytest.raises(ValueError, match="weight must be positive and finite"):
            TenantSpec(name="t", weight=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_share(self, value):
        # A NaN share once failed late, inside apportioning.
        with pytest.raises(ValueError, match="share must be positive and finite"):
            TenantSpec(name="t", share=value)

    def test_shapes_workload(self):
        assert not TenantSpec(name="t").shapes_workload
        assert TenantSpec(name="t", traffic=TrafficSpec()).shapes_workload
        assert TenantSpec(name="t", qubit_range=(100, 150)).shapes_workload

    def test_is_frozen_and_picklable(self):
        import pickle

        spec = TenantSpec(name="t", slo=SLOSpec(queue_deadline=10.0))
        with pytest.raises(Exception):
            spec.weight = 2.0  # type: ignore[misc]
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestTenantMix:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantMix(name="", tenants=(TenantSpec(name="a"),))
        with pytest.raises(ValueError):
            TenantMix(name="m", tenants=())
        with pytest.raises(ValueError):
            TenantMix(name="m", tenants=(TenantSpec(name="a"), TenantSpec(name="a")))

    def test_lookup_and_default(self):
        mix = TenantMix(name="m", tenants=(TenantSpec(name="a"), TenantSpec(name="b")))
        assert mix.tenant("b").name == "b"
        assert mix.default_tenant.name == "a"
        with pytest.raises(KeyError):
            mix.tenant("c")

    def test_passthrough_and_multiclass(self):
        single = TenantMix(name="m", tenants=(TenantSpec(name="a"),))
        assert single.is_passthrough
        assert not single.is_multiclass

        shaped = TenantMix(
            name="m2", tenants=(TenantSpec(name="a", traffic=TrafficSpec()),)
        )
        assert not shaped.is_passthrough

        classes = TenantMix(
            name="m3",
            tenants=(
                TenantSpec(name="a", priority_class=0),
                TenantSpec(name="b", priority_class=2),
            ),
        )
        assert classes.is_multiclass
        assert classes.priority_classes == (0, 2)


class TestRegistry:
    def test_presets_registered(self):
        names = available_tenant_mixes()
        for preset in ALL_PRESETS:
            assert preset in names

    def test_single_preset_is_passthrough(self):
        assert get_tenant_mix("single").is_passthrough

    def test_multiclass_presets(self):
        assert get_tenant_mix("free-tier-vs-premium").is_multiclass
        assert get_tenant_mix("batch-vs-interactive").is_multiclass
        # noisy-neighbor is a single-class mix: isolation comes from
        # admission control, not priorities.
        assert not get_tenant_mix("noisy-neighbor").is_multiclass

