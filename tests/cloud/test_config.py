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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"depth_range": (20, 5)}, "invalid depth_range"),
            ({"shots_range": (100_000, 10_000)}, "invalid shots_range"),
            ({"qubit_range": (0, 10)}, "invalid qubit_range"),
            ({"two_qubit_density": 0.6}, "two_qubit_density must be in"),
            ({"two_qubit_density": float("nan")}, "two_qubit_density must be in"),
            ({"arrival": "poisson", "arrival_rate": 0.0}, "arrival_rate must be positive"),
            ({"arrival": "poisson", "arrival_rate": float("nan")}, "arrival_rate must be positive"),
            ({"arrival": "poisson", "arrival_rate": float("inf")}, "arrival_rate must be positive"),
            ({"quantum_volume": 1.0}, "quantum_volume must be finite and > 1"),
            ({"quantum_volume": float("nan")}, "quantum_volume must be finite and > 1"),
            ({"device_names": ["ibm_kyiv", "ibm_kyiv"]}, "duplicate device names"),
            ({"comm_latency_per_qubit": float("nan")}, "latency_per_qubit must be finite"),
            ({"comm_latency_per_qubit": float("inf")}, "latency_per_qubit must be finite"),
            ({"comm_accounting": "broadcast"}, "accounting must be one of"),
        ],
        ids=lambda value: value if isinstance(value, str) else None,
    )
    def test_refused_when_built(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SimulationConfig(**kwargs)

    def test_refusals_reuse_the_generator_and_fleet_messages(self):
        """The config raises the message the code it feeds would raise."""
        import numpy as np

        from repro.circuits.generators import random_circuit_spec
        from repro.cloud.job_generator import generate_synthetic_jobs
        from repro.hardware.backends import get_device_profile

        cases = [
            ({"depth_range": (20, 5)},
             lambda: random_circuit_spec(np.random.default_rng(0), depth_range=(20, 5))),
            ({"arrival": "poisson", "arrival_rate": float("nan")},
             lambda: generate_synthetic_jobs(3, arrival="poisson", arrival_rate=float("nan"))),
            ({"quantum_volume": float("nan")},
             lambda: get_device_profile("ibm_kyiv", quantum_volume=float("nan"))),
        ]
        for kwargs, downstream in cases:
            with pytest.raises(ValueError) as at_config:
                SimulationConfig(**kwargs)
            with pytest.raises(ValueError) as at_use:
                downstream()
            assert str(at_config.value) == str(at_use.value)

    def test_unknown_device_names_refused_when_built(self):
        from repro.hardware.backends import list_available_devices

        with pytest.raises(ValueError, match=r"unknown device names \['ibm_nowhere'\]") as info:
            SimulationConfig(device_names=["ibm_kyiv", "ibm_nowhere"])
        assert f"available: {list_available_devices()}" in str(info.value)
        # A config that builds has devices the environment can build.
        SimulationConfig(device_names=list_available_devices())

    def test_batch_arrival_ignores_the_rate(self):
        assert SimulationConfig(arrival="batch", arrival_rate=float("nan")).arrival == "batch"


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
