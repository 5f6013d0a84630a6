"""Million-job scale benchmark: the flat-event fast path at full stretch.

One workload — a million-job diurnal trace (Poisson arrivals whose rate
swings between a night-time base and a daytime peak, §6 workload shapes,
generated vectorised by :func:`~repro.workloads.arrivals.bulk_diurnal_arrival_times`)
— pushed through the flat-event dispatcher with constant-memory streaming
records.  Results land in ``BENCH_scale.json`` at the repository root:

* **Dispatch throughput** — completed jobs per wall-clock second over the
  end-to-end run (environment construction + event loop), best of
  ``REPEATS`` with the garbage collector paused.  The acceptance target is
  **30k jobs/s**; because identical code swings +/-15% with the machine's
  wall-clock weather, the full-size run asserts only a noise-tolerant hard
  floor (``THROUGHPUT_FLOOR``).
* **Legacy-engine baseline** — the same workload shape through the per-job
  process engine (``fast_path=False``), sized down so it finishes in
  seconds.  Its wall-clock speedup ratio is reported, not asserted: the two
  engines share every lifecycle step, so the ratio times only event
  plumbing, and on a shared host the same code measures 2.5-3.3x.  What the
  flat engine saves is asserted as a count from the same run instead: heap
  events per job, flat ``<=`` per-job / 3 (2.0 against 10.0).
* **Event-loop stats** — :class:`~repro.des.monitoring.EventLoopStats` of
  the measured run; the flat path sustains O(1) events per job (one feed,
  one pooled completion), asserted as ``events <= 3 * jobs``.
* **Streaming-memory sublinearity** — ``tracemalloc`` peak of construction
  + run at two workload sizes.  Everything the engine allocates during the
  run (pending deque, event pool, P² sketches, event counters) is bounded
  by concurrency, not workload length, so quadrupling the job count must
  not double the traced peak.

All assertions run **before** the JSON artifact is written, so a failing
run cannot leave a fresh-but-wrong ``BENCH_scale.json`` behind.

Set ``REPRO_SCALE_BENCH_TINY=1`` (the CI smoke job does) for a
seconds-fast run that exercises every stage without the full-size floors.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import time
import tracemalloc
from pathlib import Path

import numpy as np

from benchmarks.conftest import write_artifact
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.cloud.fastpath import JobTable
from repro.cloud.records_stream import StreamingRecordsManager
from repro.des.monitoring import EventLoopStats
from repro.workloads.arrivals import bulk_diurnal_arrival_times

TINY = os.environ.get("REPRO_SCALE_BENCH_TINY", "0") not in ("0", "", "false", "False")

#: Contention-tolerant mode: skip wall-clock assertions (correctness and
#: memory assertions still run and still gate the artifact write).  Implied
#: by TINY; ``REPRO_BENCH_SKIP_TIMING=1`` sets it repo-wide for loaded CI
#: machines.
SKIP_TIMING = TINY or os.environ.get(
    "REPRO_BENCH_SKIP_TIMING", "0"
) not in ("0", "", "false", "False")

#: Jobs in the measured trace.
NUM_JOBS = 5_000 if TINY else 1_000_000
#: Jobs in the legacy-engine baseline run (per-job processes are ~5x
#: slower, so the baseline is sized to finish in seconds).
BASELINE_JOBS = 500 if TINY else 5_000
#: Timed repetitions of the measured run (best-of is reported).
REPEATS = 1 if TINY else 3
#: Workload sizes for the traced-memory sublinearity check (1:4 ratio).
MEM_SMALL, MEM_LARGE = (1_000, 4_000) if TINY else (50_000, 200_000)
#: Acceptance target for the full-size run: >= 10x the plain-broker dispatch
#: throughput regime of BENCH_serve.json.  Best-of-REPEATS runs on an idle
#: machine land around this number and the checked-in artifact must meet it.
THROUGHPUT_TARGET = 30_000.0
#: Hard floor asserted on every full-size run.  Identical code measures
#: 25k-33k jobs/s depending on the machine's wall-clock weather, so the
#: hard gate sits well under that band — it catches catastrophic
#: regressions (the legacy engine measures ~6-8k on the same workload);
#: the heap-events-per-job count against the legacy engine guards the
#: flat engine's event economy without depending on the clock.
THROUGHPUT_FLOOR = 20_000.0

#: Workload parameters (fixed so BENCH_scale.json is comparable across PRs).
SEED = 42
QUBIT_RANGE = (2, 16)
DEPTH_RANGE = (5, 20)
SHOTS_RANGE = (100, 1_000)
BASE_RATE = 2.5
PEAK_RATE = 5.5
PERIOD_MINUTES = 1_440.0

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_scale.json"


def _make_table(num_jobs: int) -> JobTable:
    rng = np.random.default_rng(SEED)
    arrivals = bulk_diurnal_arrival_times(
        rng,
        num_jobs,
        base_rate=BASE_RATE,
        peak_rate=PEAK_RATE,
        period=PERIOD_MINUTES,
    )
    return JobTable.synthetic(
        num_jobs,
        seed=SEED,
        qubit_range=QUBIT_RANGE,
        depth_range=DEPTH_RANGE,
        shots_range=SHOTS_RANGE,
        arrival_times=arrivals,
    )


def _timed_fast_run(num_jobs: int):
    """Construct and run the fast-path engine, timing the whole thing."""
    table = _make_table(num_jobs)
    records = StreamingRecordsManager()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        env = QCloudSimEnv(config=SimulationConfig(), job_table=table, records=records)
        env.run()
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    assert env.fast_path_active
    return wall, env, records


def _legacy_baseline(num_jobs: int):
    """The same workload shape through the per-job process engine."""
    table = _make_table(num_jobs)
    jobs = [table.job_for(row) for row in range(num_jobs)]
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        env = QCloudSimEnv(config=SimulationConfig(), jobs=jobs, fast_path=False)
        env.run()
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    assert not env.fast_path_active
    completed = len(env.records.completed_records)
    assert completed == num_jobs, f"legacy baseline completed {completed}/{num_jobs}"
    return wall, completed / wall, EventLoopStats.from_env(env, wall)


def _traced_peaks():
    """tracemalloc peak of construction + run at two workload sizes."""
    peaks = {}
    for num_jobs in (MEM_SMALL, MEM_LARGE):
        table = _make_table(num_jobs)
        records = StreamingRecordsManager()
        gc.collect()
        tracemalloc.start()
        try:
            env = QCloudSimEnv(config=SimulationConfig(), job_table=table, records=records)
            env.run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert records.completed == num_jobs
        peaks[num_jobs] = peak
    return peaks


def test_scale_benchmark():
    _timed_fast_run(min(2_000, NUM_JOBS))  # warm-up: catalogues, caches

    baseline_seconds, baseline_jps, baseline_stats = _legacy_baseline(BASELINE_JOBS)
    baseline_events_per_job = baseline_stats.events_processed / BASELINE_JOBS

    best = None
    for _ in range(REPEATS):
        wall, env, records = _timed_fast_run(NUM_JOBS)
        if best is None or wall < best[0]:
            best = (wall, env, records)
    wall, env, records = best
    throughput = records.completed / wall
    stats = EventLoopStats.from_env(env, wall)
    events_per_job = stats.events_processed / NUM_JOBS

    peaks = _traced_peaks()
    mem_ratio = peaks[MEM_LARGE] / peaks[MEM_SMALL]
    jobs_ratio = MEM_LARGE / MEM_SMALL
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- acceptance checks (all BEFORE the artifact write) -------------------
    assert records.completed == NUM_JOBS, (
        f"completed {records.completed}/{NUM_JOBS} jobs"
    )
    assert stats.events_processed <= 3 * NUM_JOBS, (
        f"flat path used {stats.events_processed} events for {NUM_JOBS} jobs "
        "(expected O(1) events/job)"
    )
    assert events_per_job <= baseline_events_per_job / 3.0, (
        f"flat path used {events_per_job:.2f} heap events per job, not a third "
        f"of the legacy engine's {baseline_events_per_job:.2f}"
    )
    assert mem_ratio < jobs_ratio / 2.0, (
        f"streaming peak memory grew {mem_ratio:.2f}x for {jobs_ratio:.0f}x the "
        f"jobs ({peaks}) — not sublinear"
    )
    if not SKIP_TIMING:
        assert throughput >= THROUGHPUT_FLOOR, (
            f"dispatch throughput {throughput:,.0f} jobs/s below the "
            f"{THROUGHPUT_FLOOR:,.0f} floor"
        )

    serve_baseline = None
    serve_path = RESULTS_PATH.parent / "BENCH_serve.json"
    if serve_path.exists():
        serve_payload = json.loads(serve_path.read_text())
        serve_baseline = (
            serve_payload.get("mixes", {})
            .get("plain-broker", {})
            .get("dispatch_throughput_jobs_per_s")
        )

    payload = {
        "benchmark": "scale",
        "tiny": TINY,
        "skip_timing": SKIP_TIMING,
        "config": {
            "num_jobs": NUM_JOBS,
            "seed": SEED,
            "qubit_range": list(QUBIT_RANGE),
            "depth_range": list(DEPTH_RANGE),
            "shots_range": list(SHOTS_RANGE),
            "arrival": "diurnal",
            "base_rate": BASE_RATE,
            "peak_rate": PEAK_RATE,
            "period_minutes": PERIOD_MINUTES,
            "repeats": REPEATS,
        },
        "throughput": {
            "wall_seconds_best": wall,
            "jobs_completed": records.completed,
            "dispatch_throughput_jobs_per_s": throughput,
            "throughput_target_jobs_per_s": None if TINY else THROUGHPUT_TARGET,
            "throughput_floor_jobs_per_s": None if TINY else THROUGHPUT_FLOOR,
            "legacy_baseline": {
                "num_jobs": BASELINE_JOBS,
                "wall_seconds": baseline_seconds,
                "jobs_per_s": baseline_jps,
                "events_per_job": baseline_events_per_job,
            },
            "events_per_job": events_per_job,
            "speedup_vs_legacy_engine": throughput / baseline_jps,
            "serve_bench_plain_broker_jobs_per_s": serve_baseline,
        },
        "event_loop": stats.as_dict(),
        "streaming_aggregates": records.aggregates(),
        "memory": {
            "peak_rss_mb": peak_rss_mb,
            "traced_peak_bytes": {str(n): peaks[n] for n in peaks},
            "traced_peak_ratio": mem_ratio,
            "jobs_ratio": jobs_ratio,
        },
    }
    print(f"\nscale benchmark ({NUM_JOBS:,} jobs, diurnal arrivals, "
          f"best of {REPEATS}):")
    print(f"  dispatch throughput : {throughput:,.0f} jobs/s "
          f"({wall:.1f}s wall)")
    print(f"  legacy engine       : {baseline_jps:,.0f} jobs/s "
          f"({BASELINE_JOBS:,} jobs) -> {throughput / baseline_jps:.1f}x")
    print(f"  heap events per job : {events_per_job:.2f} flat vs "
          f"{baseline_events_per_job:.2f} legacy")
    print(f"  event loop          : {stats.events_processed:,} events, "
          f"{stats.events_per_second:,.0f} events/s, "
          f"max batch {stats.max_batch_size}")
    print(f"  streaming memory    : {peaks[MEM_SMALL]:,}B @ {MEM_SMALL:,} jobs "
          f"-> {peaks[MEM_LARGE]:,}B @ {MEM_LARGE:,} jobs "
          f"({mem_ratio:.2f}x for {jobs_ratio:.0f}x)")
    print(f"  peak RSS            : {peak_rss_mb:,.0f} MB")
    write_artifact(RESULTS_PATH, payload)
