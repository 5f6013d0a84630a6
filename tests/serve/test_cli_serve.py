"""CLI coverage for the serve subsystem."""

import json

import pytest

from repro.cli import main

ALL_PRESETS = ("single", "free-tier-vs-premium", "batch-vs-interactive", "noisy-neighbor")


class TestServeList:
    def test_lists_presets(self, capsys):
        assert main(["serve", "--list"]) == 0
        out = capsys.readouterr().out
        for preset in ALL_PRESETS:
            assert preset in out


class TestServeRun:
    def test_default_single_mix(self, capsys):
        assert main(["serve", "-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "tenant mix    : single" in out
        assert "jobs completed: 6" in out
        assert "default" in out

    def test_multi_tenant_run_with_report(self, tmp_path, capsys):
        report = str(tmp_path / "slo.json")
        records = str(tmp_path / "records.csv")
        assert main([
            "serve", "--tenants", "free-tier-vs-premium", "-n", "10",
            "--report", report, "--records", records,
        ]) == 0
        out = capsys.readouterr().out
        assert "premium" in out and "free" in out

        payload = json.loads(open(report).read())
        assert {r["tenant"] for r in payload} == {"premium", "free"}
        for row in payload:
            assert 0.0 <= row["attainment"] <= 1.0
        header = open(records).readline()
        assert "tenant" in header

    def test_serve_with_scenario(self, capsys):
        assert main(["serve", "--tenants", "noisy-neighbor", "-n", "8",
                     "--scenario", "rush-hour"]) == 0
        out = capsys.readouterr().out
        assert "victim" in out and "neighbor" in out

    def test_unknown_mix_fails(self):
        with pytest.raises(KeyError):
            main(["serve", "--tenants", "nope", "-n", "4"])

    def test_zero_completed_jobs_exits_nonzero(self, tmp_path, capsys):
        """A run where every job fails reports counts and exits 1 (no crash)."""
        from repro.serve import TENANT_MIXES, TenantMix, TenantSpec, register_tenant_mix

        register_tenant_mix(
            TenantMix(name="_toobig", tenants=(TenantSpec(name="t", qubit_range=(5000, 6000)),))
        )
        try:
            report = str(tmp_path / "slo.json")
            code = main(["serve", "--tenants", "_toobig", "-n", "3",
                         "--records", str(tmp_path / "r.csv"), "--report", report])
            assert code == 1
            out = capsys.readouterr().out
            assert "jobs completed: 0" in out
            assert "jobs failed   : 3" in out
            # A zero-completion run still exports a header-only records CSV.
            assert "wrote per-job records" in out
            header = (tmp_path / "r.csv").read_text().strip().splitlines()
            assert len(header) == 1 and header[0].startswith("job_id,")
            payload = json.loads(open(report).read())
            assert payload[0]["failed"] == 3
        finally:
            TENANT_MIXES.pop("_toobig")


class TestTenantsFlagElsewhere:
    def test_simulate_with_tenants(self, capsys):
        assert main(["simulate", "-n", "6", "--tenants", "single"]) == 0
        out = capsys.readouterr().out
        assert "jobs completed: 6" in out

    def test_compare_with_tenants(self, capsys):
        assert main(["compare", "-n", "8", "--tenants", "free-tier-vs-premium",
                     "--strategies", "speed", "fair"]) == 0
        out = capsys.readouterr().out
        assert "speed" in out and "fair" in out

    def test_sweep_over_tenant_mixes(self, capsys):
        assert main(["sweep", "--param", "tenants", "-n", "8",
                     "--values", "single", "free-tier-vs-premium"]) == 0
        out = capsys.readouterr().out
        assert "free-tier-vs-premium" in out
