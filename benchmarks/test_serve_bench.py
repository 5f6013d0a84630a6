"""Serve-layer benchmark: broker dispatch throughput under heavy arrivals.

Two measurements, recorded in ``BENCH_serve.json`` at the repository root
(the perf trajectory of the serve subsystem):

* **Single-tenant overhead** — the same high-arrival-rate workload is pushed
  through the plain broker and through the serve broker with the ``single``
  mix (whose results are byte-identical by construction).  The wall-clock
  delta isolates the pure cost of the serve machinery: admission checks,
  fair-tag bookkeeping and the sorted dispatch queue.  The full-size run
  asserts this stays **< 10 %**.
* **Multi-tenant dispatch throughput** — every multi-tenant preset is timed
  on the same arrival storm and reported as jobs dispatched (completed +
  rejected) per wall-clock second.  Admission shedding and class overtaking
  legitimately change the simulated work, so these are context, not
  asserted overhead.

Set ``REPRO_SERVE_BENCH_TINY=1`` (the CI smoke job does) for a seconds-fast
run that exercises every preset without asserting the overhead bound.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from benchmarks.conftest import write_artifact
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.serve import available_tenant_mixes

TINY = os.environ.get("REPRO_SERVE_BENCH_TINY", "0") not in ("0", "", "false", "False")

#: Contention-tolerant mode: skip wall-clock assertions (correctness
#: assertions still run and still gate the artifact write).  Implied by TINY;
#: ``REPRO_BENCH_SKIP_TIMING=1`` sets it repo-wide for loaded CI machines.
SKIP_TIMING = TINY or os.environ.get(
    "REPRO_BENCH_SKIP_TIMING", "0"
) not in ("0", "", "false", "False")

#: Jobs per run — arriving as a fast Poisson storm to stress the dispatch queue.
NUM_JOBS = 60 if TINY else 600
#: Poisson arrival rate (jobs/second of simulated time): far above the fleet's
#: drain rate, so the dispatch queue stays deep for most of the run.
ARRIVAL_RATE = 0.5
#: Timed repetitions per configuration (best-of is reported).
REPEATS = 1 if TINY else 5

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"


def _config(tenants):
    return SimulationConfig(
        num_jobs=NUM_JOBS,
        policy="fidelity",
        arrival="poisson",
        arrival_rate=ARRIVAL_RATE,
        tenants=tenants,
    )


def _run_once(tenants):
    start = time.perf_counter()
    # Both sides of the overhead ratio pin one engine, the per-job one, so
    # the ratio isolates the serve layer's bookkeeping cost; the flat
    # engine's serve cost is not timed here.
    env = QCloudSimEnv(_config(tenants), fast_path=False)
    records = env.run_until_complete()
    return time.perf_counter() - start, env, records


def test_serve_overhead_benchmark():
    configurations = [None] + list(available_tenant_mixes())
    _run_once(None)  # warm-up: device catalogue, coupling maps, caches

    # Interleave repetitions round-robin so transient machine load hits every
    # configuration equally instead of biasing one overhead ratio.
    best = {name: float("inf") for name in configurations}
    rounds = {name: [] for name in configurations}
    last = {}
    for _ in range(REPEATS):
        for name in configurations:
            seconds, env, records = _run_once(name)
            best[name] = min(best[name], seconds)
            rounds[name].append(seconds)
            last[name] = (env, records)

    results = {}
    for name in configurations:
        env, records = last[name]
        key = name or "plain-broker"
        rejected = len(getattr(env.broker, "rejected_jobs", []))
        dispatched = len(records) + rejected
        results[key] = {
            "seconds": best[name],
            "jobs_completed": len(records),
            "jobs_rejected": rejected,
            "preemptions": getattr(env.broker, "preempted_total", 0),
            "dispatch_throughput_jobs_per_s": dispatched / best[name],
        }

    plain_seconds = results["plain-broker"]["seconds"]
    for key, result in results.items():
        if key != "plain-broker":
            result["wallclock_vs_plain"] = result["seconds"] / plain_seconds - 1.0
    # Overhead is the min of *per-round paired* ratios, not best/best across
    # rounds: a sustained load spike slows both sides of a round equally and
    # cancels in the ratio, where best-of picks times from different rounds
    # and lets the spike land on only one side.
    serve_overhead = min(
        single / plain - 1.0
        for single, plain in zip(rounds["single"], rounds[None])
    )
    results["single"]["paired_overhead_vs_plain"] = serve_overhead

    payload = {
        "benchmark": "serve",
        "tiny": TINY,
        "skip_timing": SKIP_TIMING,
        "config": {
            "num_jobs": NUM_JOBS,
            "policy": "fidelity",
            "arrival_rate": ARRIVAL_RATE,
            "repeats": REPEATS,
        },
        "single_tenant_overhead_vs_plain": serve_overhead,
        "mixes": results,
    }

    print(f"\nserve dispatch wall-clock ({NUM_JOBS} jobs @ {ARRIVAL_RATE}/s, "
          f"best of {REPEATS}):")
    print(f"{'mix':<22} {'seconds':>9} {'done':>6} {'rej':>5} {'pre':>5} "
          f"{'jobs/s':>9} {'vs plain':>10}")
    for key, result in results.items():
        delta = result.get("wallclock_vs_plain")
        suffix = f"{delta:+10.1%}" if delta is not None else "    (base)"
        print(f"{key:<22} {result['seconds']:>9.3f} {result['jobs_completed']:>6} "
              f"{result['jobs_rejected']:>5} {result['preemptions']:>5} "
              f"{result['dispatch_throughput_jobs_per_s']:>9.1f} {suffix}")
    print(f"serve overhead (single vs plain broker): {serve_overhead:+.1%}")

    # Assertions gate the artifact: BENCH_serve.json is only (re)written once
    # they pass, so a failing run never overwrites a good baseline.
    # The single mix must not lose or shed jobs (byte-identical path).
    assert results["single"]["jobs_completed"] == NUM_JOBS
    assert results["single"]["jobs_rejected"] == 0
    if not SKIP_TIMING:
        # Acceptance target: tenant bookkeeping + sorted dispatch stays under
        # 10 % wall-clock vs the plain broker in single-tenant mode.
        assert serve_overhead < 0.10, f"serve overhead {serve_overhead:.1%} exceeds 10%"

    write_artifact(RESULTS_PATH, payload)
