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
  token buckets to adjust, one priority class): records are byte-identical,
  so the paired per-round wall-clock ratio isolates the pure cost of signal
  collection plus control ticks.  The full-size run asserts it stays
  **< 10 %**.

Set ``REPRO_ADAPTIVE_BENCH_TINY=1`` (the CI smoke job does) for a
seconds-fast run that still asserts the attainment ordering but skips the
wall-clock bound.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from benchmarks.conftest import write_artifact
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv

TINY = os.environ.get("REPRO_ADAPTIVE_BENCH_TINY", "0") not in ("0", "", "false", "False")

#: Contention-tolerant mode: skip wall-clock assertions (attainment and
#: correctness assertions still run and still gate the artifact write).
#: Implied by TINY; ``REPRO_BENCH_SKIP_TIMING=1`` sets it repo-wide.
SKIP_TIMING = TINY or os.environ.get(
    "REPRO_BENCH_SKIP_TIMING", "0"
) not in ("0", "", "false", "False")

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
    env = QCloudSimEnv(config)
    records = env.run_until_complete()
    return time.perf_counter() - start, env, records


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
    env_reactive, records_reactive = last["reactive"]
    env_plain, records_plain = last[None]

    payload = {
        "benchmark": "adaptive",
        "tiny": TINY,
        "skip_timing": SKIP_TIMING,
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
            "control_ticks": env_reactive.adaptive_engine.ticks,
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
          f"paired best of {REPEATS}): {overhead:+.1%}")

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
    # single mix every controller is outcome-neutral, so any wall-clock
    # delta is pure control-plane cost, not a different schedule.
    assert len(records_plain) == len(records_reactive) == OVERHEAD_JOBS
    assert [r.as_dict() for r in records_reactive] == [r.as_dict() for r in records_plain]
    if not SKIP_TIMING:
        # Acceptance target: signal collection + control ticks stay under
        # 10 % wall-clock on a run where the controllers have nothing to do.
        assert overhead < 0.10, f"control-loop overhead {overhead:.1%} exceeds 10%"

    write_artifact(RESULTS_PATH, payload)
