"""Unit tests for table rendering."""

import pytest

from repro.analysis.reporting import format_table2
from repro.metrics.aggregate import StrategySummary


def summary(name, tsim, fid, comm):
    return StrategySummary(
        strategy=name,
        num_jobs=100,
        total_simulation_time=tsim,
        mean_fidelity=fid,
        std_fidelity=0.01,
        total_communication_time=comm,
        mean_devices_per_job=2.5,
        mean_turnaround_time=100.0,
        mean_wait_time=10.0,
    )


class TestTable2:
    def test_contains_all_modes_and_numbers(self):
        table = format_table2(
            {
                "speed": summary("speed", 108775.38, 0.65332, 5707.80),
                "fidelity": summary("fidelity", 209873.02, 0.68781, 3822.74),
            }
        )
        assert "speed" in table and "fidelity" in table
        assert "108775.38" in table
        assert "0.65332" in table
        assert "3822.74" in table

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            format_table2({})


class TestTenantTable:
    def _report(self, tenant, submitted, attainment):
        from repro.serve.accounting import TenantSLOReport

        return TenantSLOReport(
            tenant=tenant, priority_class=0, weight=1.0,
            submitted=submitted, completed=submitted, rejected=0, failed=0,
            preemptions=0, violated=0, attainment=attainment,
        )

    def test_idle_tenant_renders_dash_not_full_attainment(self):
        from repro.analysis.reporting import format_tenant_table

        table = format_tenant_table([
            self._report("busy", submitted=4, attainment=0.75),
            self._report("idle", submitted=0, attainment=None),
        ])
        busy_row = next(l for l in table.splitlines() if l.startswith("busy"))
        idle_row = next(l for l in table.splitlines() if l.startswith("idle"))
        assert "75.0%" in busy_row
        assert "%" not in idle_row
        assert " - " in idle_row
