#!/usr/bin/env python3
"""Benchmark of the quantum-cloud scheduling simulator.

Run from the repository root::

    python3 perfbench/run.py                      # all four workloads, tracing off
    python3 perfbench/run.py --workload paper-batch --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload serve-flaky --trace 1

The host side is a closed loop of one caller: one simulation at a time, back
to back, in this process, with no thread or process pool.  Arrivals inside a
simulation are open-loop in simulated time, at the rates each workload fixes.

``--trace 0`` prints every end-to-end metric: host throughput, set-up time
and peak memory, plus the simulated-time outcome of the run.  ``--trace 1``
runs the workload once untraced and once with spans around every layer
boundary, prints the per-layer table and writes the spans as JSONL under
``perfbench/out/``.  Either way the outputs pass the correctness gate and the
workload's regime guards before anything is printed; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``METRICS.md`` documents every metric and
workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import hostspeed

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Set-up passes per run (``setup_s`` is their median): at least
#: SETUP_REPEATS, and more while the set-up stage has run for less than
#: SETUP_SECONDS of wall time, up to SETUP_MAX.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.5
SETUP_MAX = 50
#: Fewest timed simulations per run, however long they take.
MIN_TIMED_PASSES = 3

#: Time base of the end-to-end metrics measured on the host; the rest are
#: simulated.
HOST_METRICS = {
    "jobs_per_s": "host (rescaled)",
    "setup_s": "host (rescaled)",
    "peak_mem_mb": "host",
}

#: Workload-specific metrics, printed as n/a elsewhere.
ONLY_ON = {
    "table2_fidelity_err": "paper-batch",
    "table2_makespan_err": "paper-batch",
}


def load_spec() -> Dict[str, Dict[str, Dict[str, Any]]]:
    """The lists of ``BENCHMARK.json``: ``workloads``, ``end_to_end`` and
    ``per_layer``, each as name -> entry."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {entry["name"]: entry for entry in spec[kind]}
        for kind in ("workloads", "end_to_end", "per_layer")
    }


class CheckFailed(Exception):
    """The outputs failed the correctness gate or a regime guard."""


# -- one workload -------------------------------------------------------------
def _gate(workload: Any, outcome: Any, tracer: Any) -> None:
    """Raise :class:`CheckFailed` unless the pass is correct and in regime."""
    from workloads import qubit_problems

    problems = list(outcome.problems) + qubit_problems(tracer.envs)
    if not problems:
        plans = (tracer.plans, tracer.plans_none)
        problems = [f"regime: {p}" for p in workload.regime_problems(outcome, plans)]
    if problems:
        raise CheckFailed(f"{workload.name}: " + "; ".join(problems))


def _status_mb(key: str) -> float:
    """A memory figure of this process from ``/proc/self/status``, in MB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(key):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"{key} is missing from /proc/self/status")


def verified_pass(workload: Any, seed: int) -> Tuple[Any, Any, float]:
    """Set up and run once, checked, as the first pass of the process.

    Returns the inputs, the outcome and the peak resident memory the pass
    added (MB).  The correctness gate and the regime guards run here, before
    any timing; the pass also warms every cache the timed passes use.
    """
    from spans import Tracer

    gc.collect()
    base = _status_mb("VmRSS:")
    try:
        # Resets the high-water mark VmHWM to the current resident size.
        # Without it VmHWM is the peak since start-up, which is the import
        # peak, within a fraction of a MB of ``base``.
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass
    probes = Tracer(spans=False)
    with probes.installed():
        inputs = workload.inputs(seed)
        result = workload.run(workload.build(inputs, checked=True))
    peak_mb = _status_mb("VmHWM:") - base
    outcome = workload.outcome(result)
    _gate(workload, outcome, probes)
    return inputs, outcome, peak_mb


def measure(workload: Any, seed: int, seconds: float) -> Tuple[Dict[str, float], int, Any]:
    """End-to-end metrics of one workload (tracing off while timed).

    Host times are rescaled to the reference speed (``hostspeed.py``);
    the raw figures are printed beside them.
    """
    inputs, verified, peak_mb = verified_pass(workload, seed)

    setup: List[float] = []
    raw_setup: List[float] = []
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(setup) < SETUP_REPEATS or (
        time.perf_counter() < deadline and len(setup) < SETUP_MAX
    ):
        gc.collect()
        elapsed, scaled, _ = hostspeed.timed(lambda: workload.build(workload.inputs(seed)))
        raw_setup.append(elapsed)
        setup.append(scaled)

    rates: List[float] = []
    raw_rates: List[float] = []
    attempted = verified.submitted
    deadline = time.perf_counter() + seconds
    while len(rates) < MIN_TIMED_PASSES or time.perf_counter() < deadline:
        sims = workload.build(inputs)
        gc.collect()
        elapsed, scaled, result = hostspeed.timed(lambda: workload.run(sims))
        outcome = workload.outcome(result)
        if outcome.digest != verified.digest:
            raise CheckFailed(f"{workload.name}: records differ between runs of one seed")
        raw_rates.append(outcome.resolved / elapsed)
        rates.append(outcome.resolved / scaled)
        attempted += outcome.submitted
        del sims, result

    metrics = {
        "jobs_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup),
        "peak_mem_mb": peak_mb,
    }
    metrics.update(verified.sim)
    print(
        f"# {workload.name}: {len(rates)} timed simulations of {verified.submitted} jobs, "
        f"jobs_per_s quartiles {_quartiles(rates)} (raw host {_quartiles(raw_rates)}); "
        f"{len(setup)} set-up passes, quartiles {_quartiles(setup)} s "
        f"(raw host {_quartiles(raw_setup)} s)"
    )
    print(f"# {workload.name}: records digest {verified.digest}")
    return metrics, attempted, verified


def _quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4g}/{q2:.4g}/{q3:.4g}"


def trace(workload: Any, seed: int, units: Dict[str, str]) -> Tuple[Dict[str, float], int]:
    """Per-layer metrics of one workload from a traced pass."""
    from spans import Tracer

    inputs = workload.inputs(seed)
    workload.run(workload.build(inputs))  # warm-up
    sims = workload.build(inputs, checked=True)
    gc.collect()
    _, untraced_s, result = hostspeed.timed(lambda: workload.run(sims))
    reference = workload.outcome(result)
    del sims, result

    tracer = Tracer()
    before = hostspeed.sample()
    with tracer.installed():
        with tracer.span("setup"):
            inputs = workload.inputs(seed)
            sims = workload.build(inputs, checked=True)
        gc.collect()
        with tracer.span("run"):
            result = workload.run(sims)
    traced_s = hostspeed.rescale(tracer.duration("run"), before, hostspeed.sample())
    outcome = workload.outcome(result)
    _gate(workload, outcome, tracer)
    if outcome.digest != reference.digest or outcome.sim != reference.sim:
        raise CheckFailed(f"{workload.name}: the traced run's outputs differ from the untraced run's")

    metrics = layer_metrics(tracer, outcome, traced_s / untraced_s - 1.0)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload.name}.spans.jsonl"
    tracer.write_jsonl(str(path))
    print_layer_table(tracer, metrics, outcome, units)
    print(f"# {workload.name}: records digest {outcome.digest} (equal to the untraced run's)")
    print(f"# spans: {path.relative_to(ROOT)}")
    return metrics, reference.submitted + outcome.submitted


def layer_metrics(tracer: Any, outcome: Any, overhead: float) -> Dict[str, float]:
    """Every per-layer metric; a layer the workload never enters reads 0."""
    run = tracer.totals(within="run")
    every = tracer.totals()
    zero = {"count": 0, "total_s": 0.0, "self_s": 0.0}

    def count(name: str) -> int:
        return run.get(name, zero)["count"]

    def self_s(name: str) -> float:
        return run.get(name, zero)["self_s"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    envs = tracer.envs
    events = sum(env.events_processed for env in envs)
    batches = sum(env.batches_processed for env in envs)
    devices = [d for env in envs for d in env.cloud.devices]
    completed = sum(d.completed_subjobs for d in devices)
    aborted = sum(d.aborted_subjobs for d in devices)
    jobs = outcome.submitted
    plans = count("scheduling.plan")
    ticks = count("adaptive.tick")
    counts = outcome.counts
    return {
        "des.events": events,
        "des.events_per_job": ratio(events, jobs),
        "des.mean_batch": ratio(events, batches),
        "des.peak_queue": max((env.peak_queue_size for env in envs), default=0),
        "des.self_s": self_s("des.run"),
        "des.us_per_event": ratio(run.get("des.run", zero)["total_s"], events) * 1e6,
        "scheduling.plan_calls": plans,
        "scheduling.plans_per_job": ratio(plans, jobs),
        "scheduling.plan_s": self_s("scheduling.plan"),
        "scheduling.plan_none_frac": ratio(tracer.plans_none, plans),
        "rl.predict_calls": count("rl.predict"),
        "rl.predict_s": self_s("rl.predict"),
        "rl.train_s": every.get("rl.train", zero)["total_s"],
        "circuits.partition_calls": count("circuits.partition"),
        "circuits.partition_s": self_s("circuits.partition"),
        "cloud.kernel_calls": count("cloud.kernel"),
        "cloud.kernel_s": self_s("cloud.kernel"),
        "cloud.records_calls": count("cloud.records"),
        "cloud.records_s": self_s("cloud.records"),
        "cloud.env_build_s": every.get("cloud.env_build", zero)["total_s"],
        "cloud.useful_subjob_frac": ratio(completed, completed + aborted),
        "metrics.p2_add_calls": count("metrics.p2_add"),
        "metrics.p2_add_s": self_s("metrics.p2_add"),
        "metrics.fidelity_s": self_s("metrics.fidelity"),
        "hardware.error_score_calls": count("hardware.error_score"),
        "hardware.error_score_s": self_s("hardware.error_score"),
        "serve.submit_calls": count("serve.submit"),
        "serve.submit_s": self_s("serve.submit"),
        "serve.admit_s": self_s("serve.admit"),
        "serve.shed_frac": ratio(counts.get("rejected", 0), jobs),
        "serve.preemptions": counts.get("preemptions", 0),
        "serve.report_s": self_s("serve.report"),
        "dynamics.apply_calls": count("dynamics.apply"),
        "dynamics.apply_s": self_s("dynamics.apply"),
        "dynamics.requeues": counts.get("requeues", 0),
        "dynamics.resumes": counts.get("resumes", 0),
        "adaptive.ticks": ticks,
        "adaptive.tick_s": self_s("adaptive.tick"),
        "adaptive.us_per_tick": ratio(self_s("adaptive.tick"), ticks) * 1e6,
        "region.assign_calls": count("region.assign"),
        "region.assign_s": self_s("region.assign"),
        "region.shard_s": run.get("region.shard", zero)["total_s"],
        "region.self_s": self_s("region.run"),
        "region.migrations": counts.get("migrations", 0),
        "workloads.gen_s": every.get("workloads.gen", zero)["total_s"],
        "trace.spans": len(tracer),
        "trace.overhead_frac": overhead,
    }


# -- output ---------------------------------------------------------------------
def print_layer_table(
    tracer: Any, metrics: Dict[str, float], outcome: Any, units: Dict[str, str]
) -> None:
    run_s = tracer.duration("run")
    run = tracer.totals(within="run")
    print(f"{'span (inside run)':<22} {'count':>10} {'self s':>10} {'share of run':>13}")
    for name, row in sorted(run.items(), key=lambda item: -item[1]["self_s"]):
        if row["count"]:
            share = row["self_s"] / run_s if run_s else 0.0
            print(f"{name:<22} {row['count']:>10,} {row['self_s']:>10.4f} {share:>12.1%}")
    print(f"{'run (traced)':<22} {'':>10} {run_s:>10.4f}")
    bases = {
        "des.events_per_job": f"per submitted job ({outcome.submitted:,})",
        "des.mean_batch": "events per drained batch",
        "des.us_per_event": f"des.run time per event ({metrics['des.events']:,})",
        "scheduling.plans_per_job": f"per submitted job ({outcome.submitted:,})",
        "scheduling.plan_none_frac": f"of {metrics['scheduling.plan_calls']:,} plan() calls",
        "cloud.useful_subjob_frac": "completed of completed + aborted sub-jobs",
        "serve.shed_frac": f"of {outcome.submitted:,} submitted jobs",
        "adaptive.us_per_tick": f"per controller tick ({metrics['adaptive.ticks']:,})",
        "trace.overhead_frac": "traced run time over untraced run time, minus 1",
    }
    print(f"{'per-layer metric':<28} {'value':>14} {'unit':<12} base")
    for name, value in metrics.items():
        print(f"{name:<28} {value:>14.6g} {units[name]:<12} {bases.get(name, '')}")


def print_end_to_end(name: str, metrics: Dict[str, float], spec: Dict[str, Any]) -> None:
    print(f"{'metric':<22} {'value':>14} {'unit':<6} {'better':<7} time base")
    for metric, entry in spec.items():
        shown = "n/a" if ONLY_ON.get(metric, name) != name else f"{metrics[metric]:.6g}"
        base = HOST_METRICS.get(metric, "simulated")
        print(f"{metric:<22} {shown:>14} {entry['unit']:<6} {entry['better']:<7} {base}")


def print_table2(rows: Dict[str, Tuple[float, float, float]]) -> None:
    """The simulated Table 2 rows beside the paper's, with relative errors."""
    from workloads import TABLE2

    print("Table 2, simulated vs paper (the model is not calibrated to the paper):")
    header = "  ".join(f"{col:>10} {'paper':>10} {'err':>7}" for col in ("T_sim s", "fidelity", "T_comm s"))
    print(f"{'strategy':<10} {header}")
    for strategy, row in rows.items():
        cells = "  ".join(
            f"{value:>10.5g} {paper:>10.5g} {value / paper - 1.0:>+7.1%}"
            for value, paper in zip(row, TABLE2[strategy])
        )
        print(f"{strategy:<10} {cells}")


def result_line(correct: bool, attempted: int, failed: int, metrics: Dict[str, float], units) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    )


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=2025, help="workload seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="timed phase length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown}; choose from {list(WORKLOADS)}", file=sys.stderr)
        return 2

    lists = load_spec()
    spec = lists["per_layer" if args.trace else "end_to_end"]
    units = {metric: entry["unit"] for metric, entry in spec.items()}
    results: Dict[str, Dict[str, float]] = {}
    attempted = 0
    for name in names:
        workload = WORKLOADS[name]
        print(f"== {name} (seed {args.seed}): {lists['workloads'][name]['why']}")
        try:
            if args.trace:
                metrics, count = trace(workload, args.seed, units)
            else:
                metrics, count, verified = measure(workload, args.seed, args.seconds)
                print_end_to_end(name, metrics, spec)
                if "rows" in verified.regime:
                    print_table2(verified.regime["rows"])
        except CheckFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            print(result_line(False, max(attempted, 1), 1, {}, units))
            return 1
        if set(metrics) != set(spec):
            print(f"error: metrics {sorted(set(metrics) ^ set(spec))} do not match "
                  "BENCHMARK.json", file=sys.stderr)
            return 1
        results[name] = metrics
        attempted += count

    if len(names) == 1:
        flat = results[names[0]]
    else:
        flat = {f"{n}/{k}": v for n, m in results.items() for k, v in m.items()}
        units = {f"{n}/{k}": units[k] for n, m in results.items() for k in m}
    print(result_line(True, attempted, 0, flat, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
