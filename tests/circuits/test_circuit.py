"""Unit tests for the abstract circuit specification."""

import pytest

from repro.circuits.circuit import CircuitSpec


def make_spec(**overrides):
    base = dict(
        num_qubits=150, depth=10, num_shots=20_000, num_two_qubit_gates=450,
        num_single_qubit_gates=600, name="test",
    )
    base.update(overrides)
    return CircuitSpec(**base)


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_qubits", 0),
            ("depth", 0),
            ("num_shots", 0),
            ("num_two_qubit_gates", -1),
            ("num_single_qubit_gates", -5),
        ],
    )
    def test_invalid_fields(self, field, value):
        with pytest.raises(ValueError):
            make_spec(**{field: value})

    def test_immutable(self):
        spec = make_spec()
        with pytest.raises(Exception):
            spec.depth = 3


class TestSubcircuit:
    def test_proportional_gate_split(self):
        spec = make_spec()
        frag = spec.subcircuit(75)
        assert frag.num_qubits == 75
        assert frag.depth == spec.depth
        assert frag.num_shots == spec.num_shots
        assert frag.num_two_qubit_gates == 225
        assert frag.num_single_qubit_gates == 300

    def test_full_width_subcircuit_is_identity_on_counts(self):
        spec = make_spec()
        frag = spec.subcircuit(spec.num_qubits)
        assert frag.num_two_qubit_gates == spec.num_two_qubit_gates

    def test_fragments_roughly_conserve_gates(self):
        spec = make_spec(num_qubits=190, num_two_qubit_gates=571)
        parts = [95, 60, 35]
        total_t2 = sum(spec.subcircuit(p).num_two_qubit_gates for p in parts)
        assert abs(total_t2 - spec.num_two_qubit_gates) <= len(parts)

    def test_invalid_width(self):
        spec = make_spec()
        with pytest.raises(ValueError):
            spec.subcircuit(0)
        with pytest.raises(ValueError):
            spec.subcircuit(spec.num_qubits + 1)

    def test_custom_name(self):
        frag = make_spec().subcircuit(10, name="fragment_a")
        assert frag.name == "fragment_a"


class TestSerialization:
    def test_dict_roundtrip(self):
        spec = make_spec()
        rebuilt = CircuitSpec.from_dict(spec.as_dict())
        assert rebuilt == spec

    def test_from_dict_defaults(self):
        rebuilt = CircuitSpec.from_dict(
            {"num_qubits": 5, "depth": 2, "num_shots": 100, "num_two_qubit_gates": 3}
        )
        assert rebuilt.num_single_qubit_gates == 0
        assert rebuilt.name == "circuit"
