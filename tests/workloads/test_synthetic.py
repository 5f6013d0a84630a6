"""Unit tests for the named workloads."""

import pytest

from repro.workloads import ghz_sweep_jobs, mixed_tenant_jobs, qaoa_portfolio_jobs


class TestGHZSweep:
    def test_default_widths_exceed_single_device(self):
        jobs = ghz_sweep_jobs()
        assert all(j.num_qubits > 127 for j in jobs)
        assert [j.num_qubits for j in jobs] == list(range(130, 251, 10))

    def test_ghz_structure(self):
        job = ghz_sweep_jobs(widths=[140])[0]
        assert job.num_two_qubit_gates == 139
        assert job.depth == 140

    def test_arrival_spacing(self):
        jobs = ghz_sweep_jobs(widths=[130, 140, 150], arrival_spacing=10.0)
        assert [j.arrival_time for j in jobs] == [0.0, 10.0, 20.0]


class TestQAOAPortfolio:
    def test_default_portfolio(self):
        jobs = qaoa_portfolio_jobs()
        assert len(jobs) == 6
        assert all(j.num_qubits >= 135 for j in jobs)
        assert all(j.num_two_qubit_gates > 0 for j in jobs)

    def test_reproducible(self):
        j1 = qaoa_portfolio_jobs(seed=3)
        j2 = qaoa_portfolio_jobs(seed=3)
        assert [j.circuit for j in j1] == [j.circuit for j in j2]


class TestMixedTenant:
    def test_composition(self):
        jobs = mixed_tenant_jobs(num_jobs=30, seed=0)
        assert len(jobs) == 30
        arrivals = [j.arrival_time for j in jobs]
        assert arrivals == sorted(arrivals)
        kinds = {j.circuit.name.split("_")[0] for j in jobs}
        assert "ghz" in kinds
        assert any(name.startswith("qaoa") for name in (j.circuit.name for j in jobs))

    def test_all_jobs_need_partitioning(self):
        jobs = mixed_tenant_jobs(num_jobs=15, seed=2)
        assert all(j.num_qubits > 127 for j in jobs)

    def test_validation(self):
        with pytest.raises(ValueError):
            mixed_tenant_jobs(num_jobs=0)
