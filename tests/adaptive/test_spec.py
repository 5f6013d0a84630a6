"""AdaptivePolicySpec validation and the adaptive-policy registry."""

import pytest

from repro.adaptive import (
    AdaptivePolicySpec,
    available_adaptive_policies,
    get_adaptive_policy,
)


class TestPresets:
    def test_all_three_presets_registered(self):
        names = available_adaptive_policies()
        for name in ("static", "reactive", "predictive"):
            assert name in names

    def test_static_enables_nothing(self):
        spec = get_adaptive_policy("static")
        assert spec.is_static
        assert spec.controller_names == ()

    def test_reactive_enables_observed_controllers(self):
        spec = get_adaptive_policy("reactive")
        assert not spec.is_static
        assert spec.controller_names == (
            "adaptive-admission",
            "slo-planner",
            "elastic-pooler",
        )

    def test_predictive_enables_everything(self):
        spec = get_adaptive_policy("predictive")
        assert spec.controller_names == (
            "adaptive-admission",
            "slo-planner",
            "elastic-pooler",
            "proactive-checkpointer",
        )


class TestValidation:
    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            AdaptivePolicySpec(name="")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tick_interval": 0.0},
            {"aimd_decrease": 0.0},
            {"aimd_decrease": 1.5},
            {"aimd_increase": -0.1},
            {"aimd_floor": 0.0},
            {"aimd_floor": 2.0, "aimd_ceiling": 1.0},
            {"queue_depth_high": 0},
            {"deadline_pressure": 1.5},
            {"latency_pool_fraction": 0.0},
            {"pool_hysteresis": -0.1},
            {"forecast_window": 0.0},
            {"forecast_horizon": -1.0},
            {"rush_factor": 0.0},
            {"outage_risk_threshold": -0.01},
        ],
    )
    def test_rejects_bad_gains(self, kwargs):
        with pytest.raises(ValueError):
            AdaptivePolicySpec(name="bad", **kwargs)

    def test_frozen(self):
        spec = get_adaptive_policy("static")
        with pytest.raises(Exception):
            spec.tick_interval = 1.0
