"""Unit tests for the synthetic circuit generators."""

import numpy as np
import pytest

from repro.circuits.generators import (
    ghz_spec,
    qaoa_spec,
    random_circuit_spec,
)


class TestRandomCircuit:
    def test_within_ranges(self, rng):
        for _ in range(50):
            spec = random_circuit_spec(rng)
            assert 130 <= spec.num_qubits <= 250
            assert 5 <= spec.depth <= 20
            assert 10_000 <= spec.num_shots <= 100_000
            assert spec.num_two_qubit_gates >= 0

    def test_density_controls_two_qubit_count(self, rng):
        spec = random_circuit_spec(rng, two_qubit_density=0.2)
        slots = spec.num_qubits * spec.depth
        assert spec.num_two_qubit_gates == pytest.approx(0.2 * slots, abs=1)
        # Gate counts never exceed the available slots.
        assert 2 * spec.num_two_qubit_gates + spec.num_single_qubit_gates <= slots

    def test_reproducible(self):
        s1 = random_circuit_spec(np.random.default_rng(3))
        s2 = random_circuit_spec(np.random.default_rng(3))
        assert s1 == s2

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            random_circuit_spec(rng, qubit_range=(10, 5))
        with pytest.raises(ValueError):
            random_circuit_spec(rng, two_qubit_density=0.8)


class TestNamedCircuits:
    def test_ghz(self):
        spec = ghz_spec(150)
        assert spec.num_qubits == 150
        assert spec.num_two_qubit_gates == 149
        assert spec.num_single_qubit_gates == 1
        with pytest.raises(ValueError):
            ghz_spec(1)

    def test_qaoa(self, rng):
        spec = qaoa_spec(100, num_layers=4, edge_density=0.1, rng=rng)
        assert spec.num_qubits == 100
        assert spec.num_two_qubit_gates >= 4 * 99  # at least the connectivity floor
        assert spec.num_single_qubit_gates == 4 * 100 + 100
        with pytest.raises(ValueError):
            qaoa_spec(100, num_layers=0)
        with pytest.raises(ValueError):
            qaoa_spec(100, edge_density=0.0)
