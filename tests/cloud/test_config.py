"""Unit tests for the simulation configuration."""

from dataclasses import replace

import pytest

from repro.cloud.config import SimulationConfig


class TestDefaults:
    def test_paper_defaults(self):
        cfg = SimulationConfig()
        assert cfg.num_jobs == 1000
        assert cfg.qubit_range == (130, 250)
        assert cfg.depth_range == (5, 20)
        assert cfg.shots_range == (10_000, 100_000)
        assert cfg.device_qubits == 127
        assert cfg.quantum_volume == 127
        assert len(cfg.device_names) == 5
        assert cfg.comm_latency_per_qubit == 0.02
        assert cfg.comm_fidelity_penalty == 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_jobs=0)
        with pytest.raises(ValueError):
            SimulationConfig(device_qubits=-1)
        with pytest.raises(ValueError):
            SimulationConfig(device_names=[])
        with pytest.raises(ValueError):
            SimulationConfig(qubit_range=(200, 100))
        with pytest.raises(ValueError):
            SimulationConfig(arrival="weird")
        with pytest.raises(ValueError):
            SimulationConfig(comm_fidelity_penalty=2.0)


class TestDerivedConfigs:
    def test_with_policy_copies(self):
        cfg = SimulationConfig(policy="speed", num_jobs=10)
        other = cfg.with_policy("fair")
        assert other.policy == "fair"
        assert other.num_jobs == 10
        assert cfg.policy == "speed"

    def test_scaled(self):
        cfg = SimulationConfig(num_jobs=1000)
        small = cfg.scaled(25)
        assert small.num_jobs == 25
        assert small.device_names == cfg.device_names

    @pytest.mark.parametrize("field", ["scenario", "tenants", "regions", "adaptive"])
    def test_named_axes_default_off_and_reject_empty_names(self, field):
        cfg = SimulationConfig(num_jobs=10)
        assert getattr(cfg, field) is None and cfg.checkpointing is False
        assert getattr(replace(cfg, **{field: "x"}), field) == "x"
        with pytest.raises(ValueError, match=field):
            replace(cfg, **{field: ""})

    def test_as_dict_roundtrip(self):
        cfg = SimulationConfig(num_jobs=5, seed=9)
        rebuilt = SimulationConfig(**cfg.as_dict())
        assert rebuilt == cfg
