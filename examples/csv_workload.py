#!/usr/bin/env python
"""Deterministic workloads from CSV/JSON files (benchmarking & debugging mode).

The simulator runs deterministic job flows read from external data formats
(§3): ``QCloudSimEnv`` takes the loaded job list and its flat-event
dispatcher feeds the jobs to the broker in arrival order.  This example:

1. builds two domain workloads — a GHZ-state width sweep and a batch of QAOA
   portfolio-optimisation circuits — and writes them to CSV/JSON,
2. reloads them from disk (as an external user would, e.g. from traces),
3. runs both through the simulator with the error-aware policy,
4. prints per-job results showing how fidelity degrades with circuit width.

Run:
    python examples/csv_workload.py [OUTPUT_DIR]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.cloud import QCloudSimEnv, SimulationConfig
from repro.cloud.io import jobs_from_csv, jobs_from_json, jobs_to_csv, jobs_to_json
from repro.workloads import ghz_sweep_jobs, qaoa_portfolio_jobs


def run_workload(name: str, jobs, policy: str = "fidelity"):
    config = SimulationConfig(policy=policy, num_jobs=len(jobs), seed=1)
    env = QCloudSimEnv(config, jobs=jobs)
    records = env.run_until_complete()
    print(f"\n--- {name}: {len(records)} jobs, policy={policy} ---")
    print(f"{'job':>4} {'circuit':<16} {'qubits':>7} {'devices':>8} {'fidelity':>9} "
          f"{'turnaround (s)':>15}")
    for record in records:
        label = next(
            (j.circuit.name for j in jobs if j.job_id == record.job_id), f"job_{record.job_id}"
        )
        print(f"{record.job_id:>4} {label:<16} {record.num_qubits:>7} {record.num_devices:>8} "
              f"{record.fidelity:>9.4f} {record.turnaround_time:>15.1f}")
    return env.summary()


def main(output_dir: str = ".") -> None:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    # 1. Build and persist the workloads.
    ghz_jobs = ghz_sweep_jobs(widths=list(range(130, 251, 20)))
    qaoa_jobs = qaoa_portfolio_jobs()
    ghz_csv = out / "ghz_sweep.csv"
    qaoa_json = out / "qaoa_portfolio.json"
    jobs_to_csv(ghz_jobs, str(ghz_csv))
    jobs_to_json(qaoa_jobs, str(qaoa_json))
    print(f"Wrote {ghz_csv} ({len(ghz_jobs)} jobs) and {qaoa_json} ({len(qaoa_jobs)} jobs)")

    # 2. Reload from disk — this is what an external user with a job trace does.
    ghz_loaded = jobs_from_csv(str(ghz_csv))
    qaoa_loaded = jobs_from_json(str(qaoa_json))

    # 3./4. Simulate and report.
    ghz_summary = run_workload("GHZ width sweep (CSV)", ghz_loaded)
    qaoa_summary = run_workload("QAOA portfolio batch (JSON)", qaoa_loaded)

    print("\n--- Workload summaries ---")
    for name, summary in (("ghz_sweep", ghz_summary), ("qaoa_portfolio", qaoa_summary)):
        print(f"{name:<16} T_sim={summary.total_simulation_time:>10.1f}s "
              f"fidelity={summary.mean_fidelity:.4f}±{summary.std_fidelity:.4f} "
              f"T_comm={summary.total_communication_time:.1f}s")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")
