"""Unit tests for QJob."""

import pytest

from repro.circuits.circuit import CircuitSpec
from repro.cloud.qjob import QJob, QJobStatus


def make_job(job_id=0, q=150, depth=10, shots=20_000, arrival=0.0):
    circuit = CircuitSpec(
        num_qubits=q, depth=depth, num_shots=shots, num_two_qubit_gates=100,
        num_single_qubit_gates=200, name=f"circ_{job_id}",
    )
    return QJob(job_id=job_id, circuit=circuit, arrival_time=arrival)


class TestQJob:
    def test_accessors_match_circuit(self):
        job = make_job(q=180, depth=12, shots=50_000)
        assert job.num_qubits == 180
        assert job.depth == 12
        assert job.num_shots == 50_000
        assert job.num_two_qubit_gates == 100

    def test_initial_status(self):
        assert make_job().status is QJobStatus.PENDING

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            make_job(arrival=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_arrival_rejected(self, value):
        with pytest.raises(ValueError, match="finite and non-negative"):
            make_job(arrival=value)

    def test_dict_roundtrip(self):
        job = make_job(job_id=7, arrival=3.5)
        rebuilt = QJob.from_dict(job.as_dict())
        assert rebuilt.job_id == 7
        assert rebuilt.arrival_time == 3.5
        assert rebuilt.circuit == job.circuit

    def test_from_dict_string_values(self):
        # CSV readers hand back strings; from_dict must coerce them.
        job = QJob.from_dict(
            {"job_id": "3", "num_qubits": "140", "depth": "8", "num_shots": "15000",
             "arrival_time": "2.5"}
        )
        assert job.job_id == 3
        assert job.num_qubits == 140
        assert job.arrival_time == 2.5

    def test_repr_contains_key_fields(self):
        text = repr(make_job(job_id=9))
        assert "id=9" in text and "q=150" in text
