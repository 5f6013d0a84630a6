"""Unit tests for the classical communication model."""

import pytest

from repro.cloud.communication import ClassicalCommunicationModel


class TestValidation:
    def test_defaults_match_paper(self):
        model = ClassicalCommunicationModel()
        assert model.latency_per_qubit == 0.02
        assert model.fidelity_penalty == 0.95
        assert model.accounting == "per_link"

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ClassicalCommunicationModel(latency_per_qubit=-0.1)
        with pytest.raises(ValueError):
            ClassicalCommunicationModel(fidelity_penalty=1.2)
        with pytest.raises(ValueError):
            ClassicalCommunicationModel(accounting="broadcast")

    @pytest.mark.parametrize("latency", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_latency_rejected(self, latency):
        with pytest.raises(ValueError, match="latency_per_qubit must be finite"):
            ClassicalCommunicationModel(latency_per_qubit=latency)

    @pytest.mark.parametrize("penalty", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_penalty_rejected(self, penalty):
        with pytest.raises(ValueError, match="fidelity_penalty"):
            ClassicalCommunicationModel(fidelity_penalty=penalty)


class TestQubitAccounting:
    def test_single_device_no_communication(self):
        model = ClassicalCommunicationModel()
        assert model.qubits_communicated([190]) == 0
        assert model.communication_delay([190]) == 0.0

    def test_per_link_counts_full_width_per_link(self):
        model = ClassicalCommunicationModel(accounting="per_link")
        assert model.qubits_communicated([127, 63]) == 190
        assert model.qubits_communicated([100, 50, 40]) == 2 * 190

    def test_non_primary_counts_remote_fragments_once(self):
        model = ClassicalCommunicationModel(accounting="non_primary")
        assert model.qubits_communicated([127, 63]) == 63
        assert model.qubits_communicated([100, 50, 40]) == 90

    def test_zero_entries_ignored(self):
        model = ClassicalCommunicationModel()
        assert model.qubits_communicated([190, 0, 0]) == 0

    def test_delay_uses_latency(self):
        model = ClassicalCommunicationModel(latency_per_qubit=0.02)
        assert model.communication_delay([127, 63]) == pytest.approx(3.8)

    def test_penalty(self):
        model = ClassicalCommunicationModel(fidelity_penalty=0.95)
        assert model.penalty(1) == 1.0
        assert model.penalty(3) == pytest.approx(0.95**2)
