"""Plain-text rendering of result tables."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.metrics.aggregate import StrategySummary

__all__ = [
    "format_table2",
    "format_region_table",
    "format_tenant_table",
]


def format_table2(summaries: Mapping[str, StrategySummary]) -> str:
    """Render per-strategy summaries in the layout of the paper's Table 2.

    Columns: mode, T_sim (s), mean ± std fidelity, T_comm (s).
    """
    if not summaries:
        raise ValueError("no summaries to format")
    lines = [
        f"{'Mode':<10s} {'T_sim (s)':>14s} {'fidelity (mean ± std)':>24s} {'T_comm (s)':>12s}",
        "-" * 64,
    ]
    for name, summary in summaries.items():
        lines.append(
            f"{name:<10s} {summary.total_simulation_time:>14.2f} "
            f"{summary.mean_fidelity:>12.5f} ± {summary.std_fidelity:.5f} "
            f"{summary.total_communication_time:>12.2f}"
        )
    return "\n".join(lines)


def format_tenant_table(reports: Sequence[object]) -> str:
    """Render per-tenant SLO reports (see :mod:`repro.serve.accounting`).

    Columns: tenant, priority class, submitted/completed/rejected/failed
    counts, preemptions, SLO attainment and p50/p95/p99 queueing and
    completion latency.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("no tenant reports to format")

    def ms(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:,.1f}"

    def pct(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:.1%}"

    lines = [
        f"{'tenant':<14} {'cls':>3} {'sub':>6} {'done':>6} {'rej':>5} {'fail':>5} "
        f"{'pre':>5} {'attain':>7} {'q_p50':>10} {'q_p95':>10} {'q_p99':>10} "
        f"{'c_p50':>10} {'c_p95':>10} {'c_p99':>10}",
        "-" * 118,
    ]
    for r in reports:
        lines.append(
            f"{r.tenant:<14} {r.priority_class:>3} {r.submitted:>6} {r.completed:>6} "
            f"{r.rejected:>5} {r.failed:>5} {r.preemptions:>5} {pct(r.attainment):>7} "
            f"{ms(r.queue_p50):>10} {ms(r.queue_p95):>10} {ms(r.queue_p99):>10} "
            f"{ms(r.completion_p50):>10} {ms(r.completion_p95):>10} {ms(r.completion_p99):>10}"
        )
    return "\n".join(lines)


def format_region_table(reports: Mapping[str, Mapping[str, object]]) -> str:
    """Render per-region reports (see :meth:`RegionalCloud.region_reports`).

    Columns: region, origin/served/completed/failed job counts, migrations
    in/out, and the router's normalised load.
    """
    if not reports:
        raise ValueError("no region reports to format")
    lines = [
        f"{'region':<18} {'origin':>7} {'served':>7} {'done':>6} {'fail':>5} "
        f"{'mig_in':>7} {'mig_out':>8} {'load':>8}",
        "-" * 72,
    ]
    for name, r in reports.items():
        lines.append(
            f"{name:<18} {r['origin_jobs']:>7} {r['served_jobs']:>7} {r['completed']:>6} "
            f"{r['failed']:>5} {r['migrated_in']:>7} {r['migrated_out']:>8} "
            f"{r['normalised_load']:>8.3f}"
        )
    return "\n".join(lines)
