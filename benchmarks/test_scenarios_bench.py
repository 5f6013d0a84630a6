"""Scenario overhead benchmark: what do world dynamics cost at runtime?

Two measurements, recorded in ``BENCH_scenarios.json`` at the repository
root (the perf trajectory of the dynamics subsystem):

* **Hook overhead** — a ``hooks-only`` scenario fires zero-volatility drift
  events at 3x the rate of the ``drift`` preset (hundreds of world events per
  run) without changing any scheduling outcome, so its wall-clock delta vs
  ``static`` isolates the pure cost of the event-source processes, the
  ``WorldEvent`` funnel and the lazy calibration rescale.  The delta is
  reported; what is asserted, on every run, is the work behind it: the
  record and event streams equal static's, so do the ``plan()`` calls, and
  the heap events exceed static's by exactly one per world-event instant
  plus two (see :func:`_hook_heap_events`).
* **Preset wall-clocks** — every preset is timed and recorded.  Outage and
  traffic presets legitimately change the simulated work itself (requeued
  jobs re-execute, offline fleets stretch the schedule), so their deltas are
  reported as context, not asserted as overhead.

Set ``REPRO_SCENARIO_BENCH_TINY=1`` (the CI smoke job does) for a
seconds-fast run that exercises every preset; the counter gates hold at
every size.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from benchmarks.conftest import CountingPlanner, write_artifact
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.dynamics import DriftSpec, Scenario, available_scenarios

TINY = os.environ.get("REPRO_SCENARIO_BENCH_TINY", "0") not in ("0", "", "false", "False")

#: Jobs per scenario run.
NUM_JOBS = 30 if TINY else 600
#: Timed repetitions per scenario (best-of is reported).
REPEATS = 1 if TINY else 5

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_scenarios.json"

#: Fires world events at the drift preset's exact rate but with volatility 0,
#: so scheduling outcomes are identical to static and the wall-clock delta
#: is pure hook cost (what the shipped ``drift`` preset pays in machinery).
HOOKS_ONLY = Scenario(
    name="hooks-only",
    drift=DriftSpec(
        interval=1800.0,
        volatility=0.0,
        coherence_volatility=0.0,
        recalibration_period=10_800.0,
    ),
)


def _run_once(scenario):
    start = time.perf_counter()
    env = QCloudSimEnv(
        SimulationConfig(num_jobs=NUM_JOBS, policy="fidelity"),
        scenario=scenario,
        policy=CountingPlanner("fidelity"),
    )
    records = env.run_until_complete()
    return time.perf_counter() - start, env, records


def _hook_heap_events(static_events, env):
    """The heap events a zero-volatility drift run must process: static's,
    plus one drift timeout per distinct world-event instant, plus two at
    t=0 — the drift source's start event, and the first pump, which that
    pending start event pushes onto the heap as a ``PUMP`` event (in a
    static run nothing else is due at t=0 and the pump runs inline)."""
    instants = {event.time for event in env.scenario_engine.applied_events}
    return static_events + len(instants) + 2


def _streams(env):
    return ([(e.job_id, e.event, e.time, e.detail) for e in env.records.events],
            [r.as_dict() for r in env.records.completed_records])


def test_scenario_overhead_benchmark():
    scenarios = {name: name for name in available_scenarios()}
    scenarios["hooks-only"] = HOOKS_ONLY
    _run_once(None)  # warm-up: device catalogue, coupling maps, caches

    # Interleave the repetitions round-robin so transient machine load hits
    # every scenario equally instead of biasing one overhead ratio.
    best = {name: float("inf") for name in scenarios}
    last = {}
    for _ in range(REPEATS):
        for name, scenario in scenarios.items():
            seconds, env, records = _run_once(scenario)
            best[name] = min(best[name], seconds)
            last[name] = (env, records)

    results = {}
    for name in scenarios:
        env, records = last[name]
        engine = env.scenario_engine
        results[name] = {
            "seconds": best[name],
            "jobs_completed": len(records),
            "world_events": len(engine.applied_events) if engine is not None else 0,
            "event_counts": engine.event_counts() if engine is not None else {},
            "requeues": sum(r.retries for r in records),
            "heap_events": env.events_processed,
            "plan_calls": env.policy.calls,
        }

    static_seconds = results["static"]["seconds"]
    for name, result in results.items():
        if name != "static":
            result["wallclock_vs_static"] = result["seconds"] / static_seconds - 1.0
    hook_overhead = results["hooks-only"]["wallclock_vs_static"]

    payload = {
        "benchmark": "scenarios",
        "tiny": TINY,
        "config": {"num_jobs": NUM_JOBS, "policy": "fidelity", "repeats": REPEATS},
        "hook_overhead_vs_static": hook_overhead,
        "scenarios": results,
    }

    print(f"\nscenario wall-clock ({NUM_JOBS} jobs, best of {REPEATS}):")
    print(f"{'scenario':<14} {'seconds':>9} {'events':>7} {'requeues':>9} {'vs static':>10}")
    for name, result in results.items():
        delta = result.get("wallclock_vs_static")
        suffix = f"{delta:+10.1%}" if delta is not None else "    (base)"
        print(f"{name:<14} {result['seconds']:>9.3f} {result['world_events']:>7} "
              f"{result['requeues']:>9} {suffix}")
    static_env, hooks_env = last["static"][0], last["hooks-only"][0]
    print(f"hook overhead (hooks-only vs static): {hook_overhead:+.1%}; heap events "
          f"{static_env.events_processed} -> {hooks_env.events_processed}, "
          f"plan() calls {static_env.policy.calls} -> {hooks_env.policy.calls}")

    # Assertions gate the artifact: BENCH_scenarios.json is only (re)written
    # once they pass, so a failing run never overwrites a good baseline.
    for name in scenarios:
        assert results[name]["jobs_completed"] == NUM_JOBS, f"{name} lost jobs"
    assert results["hooks-only"]["world_events"] > (10 if TINY else 100)
    # The hooks change no scheduling outcome and add no planning work; their
    # whole event cost is the drift source's own events.
    assert _streams(hooks_env) == _streams(static_env)
    assert hooks_env.policy.calls == static_env.policy.calls
    assert hooks_env.events_processed == _hook_heap_events(
        static_env.events_processed, hooks_env
    )

    write_artifact(RESULTS_PATH, payload)
