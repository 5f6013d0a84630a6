"""Adaptive-QoS benchmark: closed-loop control vs a static configuration.

Two measurements, recorded in ``BENCH_adaptive.json`` at the repository root
(the headline numbers of the adaptive control plane):

* **SLO attainment uplift** — the ``predictive`` policy (AIMD admission,
  SLO-aware planning, elastic pools, proactive checkpointing) against the
  all-off ``static`` policy on two hostile scenario × tenant-mix pairs:
  a ``black-friday`` arrival storm over the ``noisy-neighbor`` mix, and a
  ``flaky-fleet`` outage regime over the ``batch-vs-interactive`` mix.  The
  metric is mean SLO attainment over the SLO-bearing tenants (tenants with
  at least one declared target); the run asserts adaptive >= static on both
  pairs.
* **Control-loop overhead** — the ``reactive`` policy against no adaptive
  policy at all on a static scenario with the ``single`` tenant mix, where
  every controller is provably outcome-neutral (no SLOs to bias toward, no
  token buckets to adjust, one priority class).  Two wall-clock ratios are
  reported: the best paired per-round ratio and best against best.  What
  is asserted, on every run, is the work behind them: the records are
  byte-identical, the ``plan()`` calls are equal, and the heap events exceed
  the plain run's by exactly one per control tick plus two (see
  :func:`_reactive_heap_events`).

Set ``REPRO_ADAPTIVE_BENCH_TINY=1`` (the CI smoke job does) for a
seconds-fast run; every assertion holds at every size.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from benchmarks.conftest import CountingPlanner, write_artifact
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv

TINY = os.environ.get("REPRO_ADAPTIVE_BENCH_TINY", "0") not in ("0", "", "false", "False")

#: Jobs per attainment run.
NUM_JOBS = 40 if TINY else 160
#: Jobs per overhead run (static scenario, high arrival pressure).
OVERHEAD_JOBS = 60 if TINY else 400
#: Timed repetitions for the overhead measurement (paired rounds).
REPEATS = 1 if TINY else 5
SEED = 7

#: The two hostile scenario × mix pairs the control plane is judged on.
SCENARIO_PAIRS = (
    ("black-friday", "noisy-neighbor"),
    ("flaky-fleet", "batch-vs-interactive"),
)

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_adaptive.json"


def _slo_attainments(env):
    """Per-tenant attainment over the SLO-bearing tenants of the run's mix."""
    out = {}
    for report in env.broker.tenant_reports():
        slo = env.tenant_mix.tenant(report.tenant).slo
        has_slo = (
            slo.queue_deadline is not None
            or slo.completion_deadline is not None
            or slo.fidelity_floor is not None
        )
        if has_slo and report.attainment is not None:
            out[report.tenant] = report.attainment
    return out


def _attainment_run(scenario, tenants, adaptive):
    config = SimulationConfig(
        num_jobs=NUM_JOBS,
        seed=SEED,
        policy="fidelity",
        scenario=scenario,
        tenants=tenants,
        adaptive=adaptive,
    )
    env = QCloudSimEnv(config)
    records = env.run_until_complete()
    per_tenant = _slo_attainments(env)
    assert per_tenant, f"{tenants} declares no SLO-bearing tenants"
    return {
        "mean_slo_attainment": sum(per_tenant.values()) / len(per_tenant),
        "per_tenant_attainment": per_tenant,
        "jobs_completed": len(records),
        "jobs_rejected": len(env.broker.rejected_jobs),
        "jobs_failed": len(env.broker.failed_jobs),
        "control_ticks": env.adaptive_engine.ticks if env.adaptive_engine else 0,
    }


def _overhead_run(adaptive):
    config = SimulationConfig(
        num_jobs=OVERHEAD_JOBS,
        seed=SEED,
        policy="fidelity",
        arrival="poisson",
        arrival_rate=0.5,
        tenants="single",
        adaptive=adaptive,
    )
    start = time.perf_counter()
    env = QCloudSimEnv(config, policy=CountingPlanner("fidelity"))
    records = env.run_until_complete()
    return time.perf_counter() - start, env, records


def _reactive_heap_events(plain_events, env):
    """The heap events a reactive run on the single mix must process: the
    plain run's, plus one timeout per control tick, plus two at t=0 — the
    control loop's start event, and the first pump, which that pending
    start event pushes onto the heap as a ``PUMP`` event (in the plain run
    nothing else is due at t=0 and the pump runs inline)."""
    return plain_events + env.adaptive_engine.ticks + 2


def test_adaptive_qos_benchmark():
    # -- SLO attainment: predictive vs static on both hostile pairs ----------
    attainment = {}
    for scenario, tenants in SCENARIO_PAIRS:
        pair_key = f"{scenario}+{tenants}"
        attainment[pair_key] = {
            policy: _attainment_run(scenario, tenants, policy)
            for policy in ("static", "predictive")
        }
        static = attainment[pair_key]["static"]["mean_slo_attainment"]
        adaptive = attainment[pair_key]["predictive"]["mean_slo_attainment"]
        attainment[pair_key]["attainment_uplift"] = adaptive - static

    # -- control-loop overhead on a static scenario --------------------------
    _overhead_run(None)  # warm-up: device catalogue, coupling maps, caches
    rounds = {None: [], "reactive": []}
    last = {}
    for _ in range(REPEATS):
        # Interleave rounds so machine-load transients hit both sides equally.
        for adaptive in (None, "reactive"):
            seconds, env, records = _overhead_run(adaptive)
            rounds[adaptive].append(seconds)
            last[adaptive] = (env, records)
    # Paired per-round ratio: a load spike slows both sides of a round and
    # cancels, where best-of-rounds would let it land on only one side.
    overhead = min(
        adaptive / plain - 1.0
        for adaptive, plain in zip(rounds["reactive"], rounds[None])
    )
    best_overhead = min(rounds["reactive"]) / min(rounds[None]) - 1.0
    env_reactive, records_reactive = last["reactive"]
    env_plain, records_plain = last[None]

    payload = {
        "benchmark": "adaptive",
        "tiny": TINY,
        "config": {
            "num_jobs": NUM_JOBS,
            "overhead_jobs": OVERHEAD_JOBS,
            "policy": "fidelity",
            "seed": SEED,
            "repeats": REPEATS,
        },
        "slo_attainment": attainment,
        "control_loop": {
            "seconds_plain": min(rounds[None]),
            "seconds_reactive": min(rounds["reactive"]),
            "paired_overhead_vs_plain": overhead,
            "best_overhead_vs_plain": best_overhead,
            "control_ticks": env_reactive.adaptive_engine.ticks,
            "heap_events_plain": env_plain.events_processed,
            "heap_events_reactive": env_reactive.events_processed,
            "plan_calls": env_reactive.policy.calls,
        },
    }

    print(f"\nadaptive SLO attainment ({NUM_JOBS} jobs, seed {SEED}):")
    print(f"{'scenario+mix':<38} {'static':>8} {'adaptive':>9} {'uplift':>8}")
    for pair_key, result in attainment.items():
        print(f"{pair_key:<38} "
              f"{result['static']['mean_slo_attainment']:>8.3f} "
              f"{result['predictive']['mean_slo_attainment']:>9.3f} "
              f"{result['attainment_uplift']:>+8.3f}")
    print(f"control-loop overhead (reactive vs none, {OVERHEAD_JOBS} jobs, "
          f"{REPEATS} rounds): paired {overhead:+.1%}, best/best {best_overhead:+.1%}; "
          f"heap events {env_plain.events_processed} -> {env_reactive.events_processed} "
          f"({env_reactive.adaptive_engine.ticks} ticks), plan() calls "
          f"{env_plain.policy.calls} -> {env_reactive.policy.calls}")

    # Assertions gate the artifact: BENCH_adaptive.json is only (re)written
    # once they pass, so a failing run never overwrites a good baseline.
    for pair_key, result in attainment.items():
        assert result["attainment_uplift"] >= 0.0, (
            f"adaptive attainment below static on {pair_key}: "
            f"{result['predictive']['mean_slo_attainment']:.3f} < "
            f"{result['static']['mean_slo_attainment']:.3f}"
        )
        assert result["predictive"]["control_ticks"] > 0, "control loop never ticked"
        assert result["static"]["control_ticks"] == 0
    # The overhead runs do identical simulated work on both sides: on the
    # single mix every controller is outcome-neutral, so the control plane
    # adds no planning work, and its whole event cost is its own ticks.
    assert len(records_plain) == len(records_reactive) == OVERHEAD_JOBS
    assert [r.as_dict() for r in records_reactive] == [r.as_dict() for r in records_plain]
    assert env_reactive.policy.calls == env_plain.policy.calls
    assert env_reactive.events_processed == _reactive_heap_events(
        env_plain.events_processed, env_reactive
    )

    write_artifact(RESULTS_PATH, payload)
