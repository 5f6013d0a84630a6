"""Multi-region benchmark: shard-count scaling and routing-policy comparison.

Two measurements, recorded in ``BENCH_multiregion.json`` at the repository
root (the perf trajectory of the region subsystem):

* **Shard-count scaling** — the same global workload size runs on one, two
  and three region shards, serially and as real parallel processes via the
  engine's ``"process"`` backend.  Both backends must produce *identical*
  merged record streams (a shard is a pure function of its picklable task),
  which is asserted per topology; the wall-clocks are recorded as context
  only — CI machines with a single core legitimately see no process speedup,
  so none is asserted.
* **Routing-policy comparison** — every routing policy serves the same
  ``global-triad`` workload; completed/failed/migration counts, mean
  fidelity and the spread of normalised per-region load are recorded.  The
  policies legitimately trade fidelity against balance, so the numbers are
  context; each run must still account for every job.

Assertions gate the artifact: ``BENCH_multiregion.json`` is only (re)written
once they pass, so a failing run never overwrites a good baseline.

Set ``REPRO_MULTIREGION_BENCH_TINY=1`` (the CI smoke job does) for a
seconds-fast run that still exercises every topology, backend and policy.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from benchmarks.conftest import write_artifact
from repro.cloud.config import SimulationConfig
from repro.engine import ExperimentRunner
from repro.region import ROUTING_POLICIES, RegionalCloud, get_topology

TINY = os.environ.get("REPRO_MULTIREGION_BENCH_TINY", "0") not in ("0", "", "false", "False")

#: Contention-tolerant mode: this benchmark asserts no wall-clock bounds
#: (single-core CI machines see no process speedup), so the flag is recorded
#: for artifact provenance only.  Implied by TINY; ``REPRO_BENCH_SKIP_TIMING=1``
#: sets it repo-wide.
SKIP_TIMING = TINY or os.environ.get(
    "REPRO_BENCH_SKIP_TIMING", "0"
) not in ("0", "", "false", "False")

#: Global jobs per run, split over the topology's regions by workload share.
NUM_JOBS = 24 if TINY else 200
#: Shard-count scaling topologies (1, 2 and 3 region shards).
TOPOLOGIES = ("single", "dual", "global-triad")
#: Topology of the routing-policy comparison (uneven pools — policy matters).
POLICY_TOPOLOGY = "global-triad"

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_multiregion.json"


def _run(topology, routing="locality", backend="serial", max_workers=None):
    config = SimulationConfig(
        num_jobs=NUM_JOBS, policy="fidelity", seed=17, regions=topology, routing=routing
    )
    runner = ExperimentRunner(backend=backend, max_workers=max_workers)
    start = time.perf_counter()
    cloud = RegionalCloud(config=config, runner=runner)
    records = cloud.run_until_complete()
    return time.perf_counter() - start, cloud, records


def test_multiregion_benchmark():
    _run("dual")  # warm-up: device catalogue, coupling maps, caches

    # -- shard-count scaling: serial vs process, identical streams -----------
    scaling = {}
    for topology in TOPOLOGIES:
        num_regions = len(get_topology(topology).regions)
        serial_seconds, serial_cloud, serial_records = _run(topology)
        process_seconds, process_cloud, process_records = _run(
            topology, backend="process", max_workers=num_regions
        )
        identical = [r.as_dict() for r in process_records] == [
            r.as_dict() for r in serial_records
        ]
        scaling[topology] = {
            "regions": num_regions,
            "serial_seconds": serial_seconds,
            "process_seconds": process_seconds,
            "jobs_completed": len(serial_records),
            "jobs_failed": len(serial_cloud.failed),
            "migrations": len(serial_cloud.migrations),
            "records_identical": identical,
        }

    # -- routing-policy comparison on the uneven three-region topology -------
    policies = {}
    for routing in ROUTING_POLICIES:
        seconds, cloud, records = _run(POLICY_TOPOLOGY, routing=routing)
        loads = [
            report["normalised_load"] for report in cloud.region_reports().values()
        ]
        policies[routing] = {
            "seconds": seconds,
            "jobs_completed": len(records),
            "jobs_failed": len(cloud.failed),
            "migrations": len(cloud.migrations),
            "mean_fidelity": (
                sum(r.fidelity for r in records) / len(records) if records else None
            ),
            "mean_communication_time": (
                sum(r.communication_time for r in records) / len(records)
                if records else None
            ),
            "normalised_load_spread": max(loads) - min(loads),
        }

    payload = {
        "benchmark": "multiregion",
        "tiny": TINY,
        "skip_timing": SKIP_TIMING,
        "config": {
            "num_jobs": NUM_JOBS,
            "policy": "fidelity",
            "seed": 17,
            "topologies": list(TOPOLOGIES),
            "policy_topology": POLICY_TOPOLOGY,
        },
        "shard_scaling": scaling,
        "routing_policies": policies,
    }

    print(f"\nshard-count scaling ({NUM_JOBS} jobs, serial vs process):")
    print(f"{'topology':<14} {'shards':>6} {'serial':>9} {'process':>9} "
          f"{'done':>6} {'fail':>5} {'identical':>10}")
    for name, entry in scaling.items():
        print(f"{name:<14} {entry['regions']:>6} {entry['serial_seconds']:>9.3f} "
              f"{entry['process_seconds']:>9.3f} {entry['jobs_completed']:>6} "
              f"{entry['jobs_failed']:>5} {str(entry['records_identical']):>10}")
    print(f"\nrouting policies on {POLICY_TOPOLOGY}:")
    print(f"{'policy':<18} {'done':>6} {'fail':>5} {'mig':>5} {'fidelity':>9} "
          f"{'T_comm':>8} {'spread':>8}")
    for name, entry in policies.items():
        fidelity = entry["mean_fidelity"]
        comm = entry["mean_communication_time"]
        print(f"{name:<18} {entry['jobs_completed']:>6} {entry['jobs_failed']:>5} "
              f"{entry['migrations']:>5} "
              f"{fidelity:>9.5f} {comm:>8.2f} {entry['normalised_load_spread']:>8.3f}")

    # -- acceptance checks (all BEFORE the artifact write) -------------------
    for name, entry in scaling.items():
        assert entry["records_identical"], (
            f"{name}: process-parallel shards diverged from serial execution"
        )
        assert entry["jobs_completed"] + entry["jobs_failed"] == NUM_JOBS, (
            f"{name}: {entry['jobs_completed']} completed + "
            f"{entry['jobs_failed']} failed != {NUM_JOBS}"
        )
    for name, entry in policies.items():
        assert entry["jobs_completed"] + entry["jobs_failed"] == NUM_JOBS, (
            f"routing={name}: jobs unaccounted for"
        )
        assert entry["normalised_load_spread"] >= 0.0

    write_artifact(RESULTS_PATH, payload)
