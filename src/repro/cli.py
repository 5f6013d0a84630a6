"""Command-line interface.

Exposes the framework's main workflows without writing Python::

    python -m repro devices                      # list the device catalogue
    python -m repro scenarios                    # list world-dynamics presets
    python -m repro workload -n 100 -o jobs.csv  # generate a synthetic workload
    python -m repro simulate --policy speed -n 100
    python -m repro simulate --policy fidelity --jobs jobs.csv --records out.csv
    python -m repro simulate --scenario flaky-fleet -n 100 --trace run.jsonl
    python -m repro simulate --scenario run.jsonl -n 100   # deterministic replay
    python -m repro simulate --scenario flaky-fleet --checkpointing -n 100
    python -m repro sweep --param checkpointing --values false true
    python -m repro serve --list                 # list multi-tenant mix presets
    python -m repro serve --tenants free-tier-vs-premium -n 200
    python -m repro serve --tenants noisy-neighbor --scenario rush-hour -n 200
    python -m repro serve --tenants free-tier-vs-premium -n 200 --stream
    python -m repro regions                      # list multi-region topologies
    python -m repro simulate --regions dual -n 200 --backend process
    python -m repro adaptive -v                  # list adaptive QoS policies
    python -m repro serve --tenants noisy-neighbor --scenario black-friday \
        --adaptive predictive -n 200
    python -m repro sweep --param adaptive --values static reactive predictive
    python -m repro compare --regions global-triad --routing least-loaded -n 200
    python -m repro sweep --param routing --regions dual \
        --values locality least-loaded calibration-aware round-robin
    python -m repro compare -n 200               # Table-2-style comparison
    python -m repro compare -n 200 --scenario rush-hour
    python -m repro compare -n 200 --backend process --workers 4
    python -m repro sweep --param comm_fidelity_penalty --values 0.9 0.95 1.0
    python -m repro sweep --param scenario --values static drift black-friday
    python -m repro train --timesteps 20000 --model policy.npz
    python -m repro simulate --policy rlbase --model policy.npz -n 100

Every simulation-driving command delegates to the experiment engine
(:mod:`repro.engine`): ``--backend process`` fans cells out over a process
pool, and ``--results-dir`` persists summaries/records with content-keyed
caching so repeated sweeps skip already-computed cells.

Every command prints a short human-readable report to stdout; ``--records``
and ``--curve`` write machine-readable CSV/JSON artefacts for further
analysis.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from repro import __version__
from repro.registry import AXES

__all__ = ["build_parser", "main"]


# --------------------------------------------------------------------------- #
# Command implementations
# --------------------------------------------------------------------------- #
def _make_runner(args: argparse.Namespace):
    """Build the ExperimentRunner requested by --backend/--workers/--results-dir."""
    from repro.engine import ExperimentRunner, ResultStore

    store = ResultStore(args.results_dir) if getattr(args, "results_dir", None) else None
    return ExperimentRunner(
        backend=getattr(args, "backend", "serial"),
        max_workers=getattr(args, "workers", None),
        store=store,
    )


def _positive_int(value: str) -> int:
    number = int(value)
    if number <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return number


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=("serial", "process"), default="serial",
                        help="experiment execution backend")
    parser.add_argument("--workers", type=_positive_int,
                        help="process-pool size (process backend)")
    parser.add_argument("--results-dir",
                        help="persist/cache results in this directory (ResultStore)")


def _add_axis_options(
    parser: argparse.ArgumentParser, *fields: str, **defaults: str
) -> None:
    """Add the named-axis flags of *fields* (all axes when empty), in axis
    order; ``--routing`` rides along with ``--regions``."""
    for axis in AXES:
        if fields and axis.field not in fields:
            continue
        default = defaults.get(axis.field)
        parser.add_argument(f"--{axis.field}", default=default,
                            help=axis.help + (" (default: %(default)s)" if default else ""))
        if axis.field == "regions":
            parser.add_argument("--routing", default="locality",
                                choices=("locality", "least-loaded", "calibration-aware",
                                         "round-robin"),
                                help="routing policy of the multi-region front tier")


def _axis_config(args: argparse.Namespace) -> Dict[str, Optional[str]]:
    """The SimulationConfig fields set by :func:`_add_axis_options` flags."""
    names = [axis.field for axis in AXES] + ["routing"]
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _cmd_devices(args: argparse.Namespace) -> int:
    from repro.hardware.backends import get_device_profile, list_available_devices

    print(f"{'device':<18} {'qubits':>7} {'QV':>6} {'CLOPS':>9} {'error score':>12}")
    for name in list_available_devices():
        profile = get_device_profile(name, num_qubits=args.qubits, quantum_volume=args.qv)
        print(
            f"{name:<18} {profile.num_qubits:>7} {profile.quantum_volume:>6.0f} "
            f"{profile.clops:>9.0f} {profile.error_score():>12.6f}"
        )
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.dynamics import available_scenarios, get_scenario

    names = available_scenarios()
    width = max(len("scenario"), *map(len, names))
    print(f"{'scenario':<{width}} {'drift':>5} {'outage':>6} {'maint':>5} {'traffic':>8}  description")
    for name in names:
        scenario = get_scenario(name)
        traffic = scenario.traffic.model if scenario.traffic is not None else "-"
        print(
            f"{name:<{width}} {'yes' if scenario.drift else '-':>5} "
            f"{'yes' if scenario.outages else '-':>6} "
            f"{len(scenario.maintenance) if scenario.maintenance else '-':>5} "
            f"{traffic:>8}  {scenario.description}"
        )
    return 0


def _cmd_regions(args: argparse.Namespace) -> int:
    from repro.region import available_topologies, get_topology

    print(f"{'topology':<24} {'regions':>7}  description")
    for name in available_topologies():
        topology = get_topology(name)
        print(f"{name:<24} {len(topology.regions):>7}  {topology.description}")
        if args.verbose:
            for region in topology.regions:
                pool = ",".join(region.device_names) if region.device_names else "(inherit)"
                scenario = region.scenario or "-"
                print(
                    f"  - {region.name:<18} share={region.workload_share:<5g} "
                    f"scenario={scenario:<18} devices={pool}"
                )
    return 0


def _cmd_adaptive(args: argparse.Namespace) -> int:
    from repro.adaptive import available_adaptive_policies, get_adaptive_policy

    print(f"{'policy':<12} {'tick(s)':>8} {'controllers':<12}  description")
    for name in available_adaptive_policies():
        spec = get_adaptive_policy(name)
        controllers = len(spec.controller_names) or "-"
        print(f"{name:<12} {spec.tick_interval:>8g} {controllers!s:<12}  {spec.description}")
        if args.verbose:
            for controller in spec.controller_names:
                print(f"  - {controller}")
            if spec.adaptive_admission:
                print(f"    aimd: +{spec.aimd_increase:g}*base / x{spec.aimd_decrease:g} "
                      f"in [{spec.aimd_floor:g}, {spec.aimd_ceiling:g}]*base, "
                      f"depth>{spec.queue_depth_high}")
            if spec.slo_planner:
                print(f"    planner: pressure>={spec.deadline_pressure:g}*deadline, "
                      f"subset={spec.latency_pool_fraction:g} of fleet")
            if spec.elastic_pooling:
                print(f"    pooling: hysteresis={spec.pool_hysteresis:g} of fleet")
            if spec.proactive_checkpointing:
                print(f"    forecast: window={spec.forecast_window:g}s "
                      f"horizon={spec.forecast_horizon:g}s rush>={spec.rush_factor:g}x "
                      f"risk>={spec.outage_risk_threshold:g}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_tenant_table
    from repro.cloud.config import SimulationConfig
    from repro.cloud.environment import QCloudSimEnv
    from repro.cloud.records import records_to_csv
    from repro.serve import available_tenant_mixes, get_tenant_mix

    if args.list:
        print(f"{'mix':<22} {'tenants':>7} {'classes':>8}  tenants (class/weight/share)")
        for name in available_tenant_mixes():
            mix = get_tenant_mix(name)
            detail = ", ".join(
                f"{t.name}({t.priority_class}/{t.weight:g}/{t.share:g})" for t in mix.tenants
            )
            print(
                f"{name:<22} {len(mix.tenants):>7} {len(mix.priority_classes):>8}  {detail}"
            )
        return 0

    config = SimulationConfig(
        policy=args.policy,
        num_jobs=args.num_jobs,
        seed=args.seed,
        max_requeues=args.max_requeues,
        checkpointing=args.checkpointing,
        **_axis_config(args),
    )

    if args.stream:
        # O(1)-memory serving: records stream into P2 sketches (and
        # optionally a chunked JSONL file) instead of RAM.
        from repro.cloud.records_stream import StreamingRecordsManager

        with StreamingRecordsManager(export_path=args.records) as manager:
            env = QCloudSimEnv(config=config, policy=_load_policy(args), records=manager)
            env.run_until_complete()
            print(f"policy        : {getattr(env.policy, 'name', config.policy)}")
            print(f"tenant mix    : {env.tenant_mix.name}")
            print(f"jobs completed: {manager.completed}")
            print(f"jobs rejected : {len(env.broker.rejected_jobs)}")
            print(f"jobs failed   : {len(env.broker.failed_jobs)}")
            print(f"preemptions   : {env.broker.preempted_total}")
            if env.adaptive_engine is not None and env.adaptive_engine.controllers:
                print(f"adaptive      : {env.adaptive_policy.name} "
                      f"({env.adaptive_engine.ticks} ticks)")
            if manager.mean_fidelity is not None:
                print(f"fidelity      : {manager.mean_fidelity:.5f} (streaming mean)")
            tenants = sorted({t.name for t in env.tenant_mix.tenants})
            print()
            print(f"{'tenant':<14} {'q_p50':>10} {'q_p95':>10} {'q_p99':>10} "
                  f"{'c_p50':>10} {'c_p95':>10} {'c_p99':>10}")
            print("-" * 80)
            for tenant in tenants:
                p = env.records.latency_percentiles(tenant)

                def ms(value):
                    return "-" if value is None else f"{value:,.1f}"

                print(f"{tenant:<14} {ms(p['wait_p50']):>10} {ms(p['wait_p95']):>10} "
                      f"{ms(p['wait_p99']):>10} {ms(p['turnaround_p50']):>10} "
                      f"{ms(p['turnaround_p95']):>10} {ms(p['turnaround_p99']):>10}")
            if args.records:
                print(f"\nstreamed per-job records to {args.records} (JSONL)")
            if args.report:
                payload = {
                    "aggregates": manager.aggregates(),
                    "tenants": {t: manager.latency_percentiles(t) for t in tenants},
                }
                with open(args.report, "w") as fh:
                    json.dump(payload, fh, indent=2)
                print(f"wrote streaming aggregate report to {args.report}")
            return 0 if manager.completed else 1

    env = QCloudSimEnv(config=config, policy=_load_policy(args))
    records = env.run_until_complete()
    reports = env.tenant_reports()

    print(f"policy        : {getattr(env.policy, 'name', config.policy)}")
    print(f"tenant mix    : {env.tenant_mix.name}")
    print(f"jobs completed: {len(records)}")
    print(f"jobs rejected : {len(env.broker.rejected_jobs)}")
    print(f"jobs failed   : {len(env.broker.failed_jobs)}")
    print(f"preemptions   : {env.broker.preempted_total}")
    if env.adaptive_engine is not None and env.adaptive_engine.controllers:
        report = env.adaptive_report()
        admission = report["decisions"].get("adaptive-admission", {})
        print(f"adaptive      : {env.adaptive_policy.name} ({report['ticks']} ticks, "
              f"{admission.get('adjustments', 0)} rate adjustments)")
    if records:
        summary = env.summary()
        print(f"T_sim (s)     : {summary.total_simulation_time:,.2f}")
        print(f"fidelity      : {summary.mean_fidelity:.5f} ± {summary.std_fidelity:.5f}")
    print()
    print(format_tenant_table(reports))

    if args.records:
        # A zero-completion run (e.g. heavy admission shedding) writes a
        # header-only CSV so downstream tooling always finds the schema.
        records_to_csv(records, args.records)
        print(f"\nwrote per-job records to {args.records}")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump([r.as_dict() for r in reports], fh, indent=2)
        print(f"wrote tenant SLO report to {args.report}")
    return 0 if len(records) else 1


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.cloud.io import jobs_to_csv, jobs_to_json
    from repro.cloud.job_generator import generate_synthetic_jobs

    jobs = generate_synthetic_jobs(
        num_jobs=args.num_jobs,
        seed=args.seed,
        qubit_range=(args.min_qubits, args.max_qubits),
        arrival=args.arrival,
        arrival_rate=args.arrival_rate,
    )
    if args.output.endswith(".json"):
        jobs_to_json(jobs, args.output)
    else:
        jobs_to_csv(jobs, args.output)
    print(f"Wrote {len(jobs)} jobs to {args.output}")
    return 0


def _load_policy(args: argparse.Namespace):
    """Build the policy instance requested on the command line (or None)."""
    if args.policy in ("rlbase", "rl"):
        if not args.model:
            raise SystemExit("--model PATH is required for the rlbase policy")
        import numpy as np

        from repro.gymapi.spaces import Box
        from repro.rl.policies import ActorCriticPolicy
        from repro.scheduling.rl_policy import RLAllocationPolicy

        policy_net = ActorCriticPolicy(
            Box(0.0, np.inf, shape=(16,), dtype=np.float64),
            Box(0.0, 1.0, shape=(5,), dtype=np.float64),
            seed=0,
        )
        policy_net.load(args.model)
        return RLAllocationPolicy(policy_net)
    return None  # let the environment build it from the registry by name


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import run_policy_simulation
    from repro.cloud.config import SimulationConfig
    from repro.cloud.io import jobs_from_csv, jobs_from_json
    from repro.cloud.records import records_to_csv

    config = SimulationConfig(
        policy=args.policy,
        num_jobs=args.num_jobs,
        seed=args.seed,
        checkpointing=args.checkpointing,
        **_axis_config(args),
    )
    jobs = None
    if args.jobs:
        jobs = jobs_from_json(args.jobs) if args.jobs.endswith(".json") else jobs_from_csv(args.jobs)

    if args.regions:
        # Multi-region run: shards execute on the requested backend (the
        # process backend runs regions as real parallel processes).
        if args.trace or args.stats:
            raise SystemExit("--trace/--stats are not supported with --regions")
        from repro.analysis.reporting import format_region_table
        from repro.engine import ExperimentRunner
        from repro.region import RegionalCloud

        cloud = RegionalCloud(
            config=config,
            jobs=jobs,
            policy=_load_policy(args),
            runner=ExperimentRunner(backend=args.backend, max_workers=args.workers),
        )
        records = cloud.run_until_complete()
        summary = cloud.summary()
        print(f"policy        : {summary.strategy}")
        print(f"topology      : {cloud.topology.name} ({len(cloud.topology.regions)} regions, "
              f"{config.routing} routing)")
        print(f"jobs completed: {summary.num_jobs}")
        print(f"jobs failed   : {len(cloud.failed)}")
        print(f"migrations    : {len(cloud.migrations)}")
        if records:
            print(f"T_sim (s)     : {summary.total_simulation_time:,.2f}")
            print(f"fidelity      : {summary.mean_fidelity:.5f} ± {summary.std_fidelity:.5f}")
            print(f"T_comm (s)    : {summary.total_communication_time:,.2f}")
        print()
        print(format_region_table(cloud.region_reports()))
        if args.records:
            records_to_csv(records, args.records)
            print(f"\nwrote per-job records to {args.records}")
        return 0 if len(records) else 1

    if args.trace or args.stats:
        # Trace recording and loop statistics need the live environment, so
        # bypass the runner.
        if args.backend != "serial" or args.workers or args.results_dir:
            flag = "--trace" if args.trace else "--stats"
            print(f"note: {flag} runs in-process; ignoring --backend/--workers/--results-dir",
                  file=sys.stderr)
        import time as _time

        from repro.cloud.environment import QCloudSimEnv

        from repro.metrics import empty_summary

        env = QCloudSimEnv(config=config, jobs=jobs, policy=_load_policy(args))
        wall_start = _time.perf_counter()
        records = env.run_until_complete()
        wall = _time.perf_counter() - wall_start
        # Zero-completion runs (e.g. every job infeasible or requeue-exhausted)
        # still report and write their trace instead of raising.
        name = getattr(env.policy, "name", config.policy)
        summary = env.summary() if records else empty_summary(name)
        if args.trace:
            env.save_trace(args.trace)
            print(f"wrote scenario trace to {args.trace}")
        if env.scenario_engine is not None and env.scenario_engine.applied_events:
            counts = env.scenario_engine.event_counts()
            print("world events  : " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
        if args.stats:
            from repro.des.monitoring import EventLoopStats

            stats = EventLoopStats.from_env(env, wall_seconds=wall)
            print(f"events        : {stats.events_processed:,} in {stats.batches_processed:,} batches "
                  f"(mean {stats.mean_batch_size:.2f}, max {stats.max_batch_size})")
            print(f"peak queue    : {stats.peak_queue_size:,}")
            if stats.events_per_second is not None:
                print(f"throughput    : {stats.events_per_second:,.0f} events/s "
                      f"({wall:.2f}s wall)")
    else:
        summary, records = run_policy_simulation(
            config, policy=_load_policy(args), jobs=jobs, runner=_make_runner(args)
        )

    print(f"policy        : {summary.strategy}")
    print(f"jobs completed: {summary.num_jobs}")
    if records:
        print(f"T_sim (s)     : {summary.total_simulation_time:,.2f}")
        print(f"fidelity      : {summary.mean_fidelity:.5f} ± {summary.std_fidelity:.5f}")
        print(f"T_comm (s)    : {summary.total_communication_time:,.2f}")
        print(f"devices/job   : {summary.mean_devices_per_job:.2f}")

    if args.records:
        # A zero-completion run still writes a header-only CSV.
        records_to_csv(records, args.records)
        print(f"wrote per-job records to {args.records}")
    return 0 if len(records) else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import run_case_study
    from repro.analysis.histogram import ascii_histogram
    from repro.analysis.reporting import format_table2
    from repro.cloud.config import SimulationConfig

    strategies: List[str] = list(args.strategies)
    rl_model = None
    if args.model:
        import numpy as np

        from repro.gymapi.spaces import Box
        from repro.rl.policies import ActorCriticPolicy

        rl_model = ActorCriticPolicy(
            Box(0.0, np.inf, shape=(16,), dtype=np.float64),
            Box(0.0, 1.0, shape=(5,), dtype=np.float64),
            seed=0,
        )
        rl_model.load(args.model)
        if "rlbase" not in strategies:
            strategies.append("rlbase")

    config = SimulationConfig(num_jobs=args.num_jobs, seed=args.seed, **_axis_config(args))
    runner = _make_runner(args)
    result = run_case_study(
        config, strategies=tuple(strategies), rl_model=rl_model, runner=runner
    )
    print(format_table2(result.summaries))
    if args.histograms:
        for name in result.summaries:
            print()
            print(ascii_histogram(result.fidelities(name), bins=12, width=40, title=f"[{name}]"))
    if runner.store is not None:
        path = runner.store.write_summaries_csv(result.summary_rows())
        print(f"\nwrote summary rows to {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.cloud.config import SimulationConfig
    from repro.engine import ExperimentSpec

    field_names = {f.name for f in dataclasses.fields(SimulationConfig)}
    if args.param not in field_names:
        raise SystemExit(
            f"unknown config field {args.param!r}; choose one of {sorted(field_names)}"
        )

    config = SimulationConfig(num_jobs=args.num_jobs, seed=args.seed, **_axis_config(args))
    field_types = {f.name: str(f.type) for f in dataclasses.fields(SimulationConfig)}
    ftype = field_types[args.param]
    if "Tuple" in ftype or "List" in ftype:
        raise SystemExit(f"cannot sweep compound field {args.param!r} ({ftype}) from the CLI")

    def parse_bool(text: str) -> bool:
        lowered = text.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(text)

    parse_bool.__name__ = "bool"  # readable --values error message
    if "bool" in ftype:
        cast = parse_bool
    else:
        cast = int if "int" in ftype else float if "float" in ftype else str
    try:
        values = [cast(v) for v in args.values]
    except ValueError:
        raise SystemExit(f"--values for {args.param} must be {cast.__name__}s, got {args.values}")

    runner = _make_runner(args)
    spec = ExperimentSpec(
        base_config=config,
        strategies=tuple(args.strategies),
        replicates=args.replicates,
        overrides=tuple({args.param: value} for value in values),
    )
    try:
        outcome = runner.run(spec)
    except ValueError as exc:
        # Config validation rejected a swept value (e.g. phi outside [0, 1]).
        raise SystemExit(f"invalid sweep value for {args.param}: {exc}")

    print(f"{args.param:<24} {'strategy':<10} {'seed':>12} {'T_sim(s)':>12} "
          f"{'fidelity':>10} {'T_comm(s)':>12} {'cached':>7}")
    per_value = len(outcome) // len(values)
    for i, cell_result in enumerate(outcome):
        value = values[i // per_value]
        s = cell_result.summary
        print(f"{value!s:<24} {cell_result.cell.strategy:<10} {cell_result.cell.seed:>12} "
              f"{s.total_simulation_time:>12,.1f} {s.mean_fidelity:>10.5f} "
              f"{s.total_communication_time:>12,.1f} {'yes' if cell_result.cached else 'no':>7}")

    if runner.store is not None:
        rows = outcome.summary_rows()
        for i, row in enumerate(rows):
            row[args.param] = values[i // per_value]
        path = runner.store.write_summaries_csv(rows)
        print(f"\nwrote summary rows to {path}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.analysis.training_curve import downsample_curve, summarize_training_curve
    from repro.rlenv.train import train_allocation_policy

    model, curve = train_allocation_policy(
        total_timesteps=args.timesteps,
        seed=args.seed,
        communication_aware=args.comm_aware,
        n_envs=args.n_envs,
    )
    stats = summarize_training_curve(curve)
    print(f"updates           : {int(stats['num_updates'])}")
    print(f"reward            : {stats['initial_reward']:.4f} -> {stats['final_reward']:.4f}")
    print(f"entropy loss      : {stats['initial_entropy_loss']:.2f} -> {stats['final_entropy_loss']:.2f}")

    model.save(args.model)
    print(f"saved policy to {args.model}")

    if args.curve:
        with open(args.curve, "w") as fh:
            json.dump(downsample_curve(curve, max_points=args.curve_points), fh, indent=2)
        print(f"wrote training curve to {args.curve}")
    return 0


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quantum-cloud scheduling simulator (ICPP 2025 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_devices = sub.add_parser("devices", help="list the simulated device catalogue")
    p_devices.add_argument("--qubits", type=int, default=127, help="qubits per device")
    p_devices.add_argument("--qv", type=float, default=127, help="quantum volume per device")
    p_devices.set_defaults(func=_cmd_devices)

    p_scen = sub.add_parser("scenarios", help="list the world-dynamics scenario presets")
    p_scen.set_defaults(func=_cmd_scenarios)

    p_regions = sub.add_parser("regions", help="list the multi-region topology presets")
    p_regions.add_argument("--list", action="store_true",
                           help="list the registered topologies (the default action)")
    p_regions.add_argument("-v", "--verbose", action="store_true",
                           help="also print each topology's regions, pools and scenarios")
    p_regions.set_defaults(func=_cmd_regions)

    p_adaptive = sub.add_parser("adaptive", help="list the adaptive QoS policy presets")
    p_adaptive.add_argument("--list", action="store_true",
                            help="list the registered policies (the default action)")
    p_adaptive.add_argument("-v", "--verbose", action="store_true",
                            help="also print each policy's controllers and gains")
    p_adaptive.set_defaults(func=_cmd_adaptive)

    p_workload = sub.add_parser("workload", help="generate a synthetic workload file")
    p_workload.add_argument("-n", "--num-jobs", type=int, default=100)
    p_workload.add_argument("-o", "--output", default="workload.csv", help=".csv or .json path")
    p_workload.add_argument("--seed", type=int, default=2025)
    p_workload.add_argument("--min-qubits", type=int, default=130)
    p_workload.add_argument("--max-qubits", type=int, default=250)
    p_workload.add_argument("--arrival", choices=("batch", "poisson"), default="batch")
    p_workload.add_argument("--arrival-rate", type=float, default=0.01)
    p_workload.set_defaults(func=_cmd_workload)

    p_sim = sub.add_parser("simulate", help="run one simulation with one policy")
    p_sim.add_argument("--policy", default="speed",
                       help="speed | fidelity | fair | rlbase | any registered policy")
    p_sim.add_argument("-n", "--num-jobs", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=2025)
    p_sim.add_argument("--jobs", help="CSV/JSON workload file (overrides --num-jobs)")
    p_sim.add_argument("--model", help="trained policy .npz (required for rlbase)")
    p_sim.add_argument("--records", help="write per-job records to this CSV file")
    p_sim.add_argument("--trace", help="record the run's scenario trace to this JSONL file")
    p_sim.add_argument("--checkpointing", action="store_true",
                       help="checkpointed preemption: aborted jobs (outages, preemptions) "
                            "resume with only their remaining shots")
    p_sim.add_argument("--stats", action="store_true",
                       help="print event-loop statistics (events, batches, events/s); "
                            "runs in-process")
    _add_axis_options(p_sim)
    _add_engine_options(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_serve = sub.add_parser(
        "serve",
        help="run a multi-tenant serving simulation and report per-tenant SLOs",
    )
    p_serve.add_argument("--list", action="store_true",
                         help="list the registered tenant-mix presets and exit")
    p_serve.add_argument("--policy", default="speed",
                         help="speed | fidelity | fair | rlbase | any registered policy")
    p_serve.add_argument("-n", "--num-jobs", type=int, default=100)
    p_serve.add_argument("--seed", type=int, default=2025)
    p_serve.add_argument("--max-requeues", type=int, default=100,
                         help="starvation guard: fail a job after this many outage/preemption "
                              "requeues")
    p_serve.add_argument("--checkpointing", action="store_true",
                         help="checkpointed preemption: preempted/killed jobs resume with "
                              "only their remaining shots")
    p_serve.add_argument("--model", help="trained policy .npz (required for rlbase)")
    p_serve.add_argument("--records", help="write per-job records to this CSV file "
                                           "(JSONL with --stream)")
    p_serve.add_argument("--report", help="write the per-tenant SLO report to this JSON file")
    p_serve.add_argument("--stream", action="store_true",
                         help="O(1)-memory serving: stream records into P2 percentile "
                              "sketches instead of RAM (million-job runs)")
    _add_axis_options(p_serve, "adaptive", "tenants", "scenario", tenants="single")
    p_serve.set_defaults(func=_cmd_serve)

    p_cmp = sub.add_parser("compare", help="compare allocation strategies (Table 2)")
    p_cmp.add_argument("-n", "--num-jobs", type=int, default=100)
    p_cmp.add_argument("--seed", type=int, default=2025)
    p_cmp.add_argument("--strategies", nargs="+", default=["speed", "fidelity", "fair"])
    p_cmp.add_argument("--model", help="trained policy .npz; adds the rlbase row")
    p_cmp.add_argument("--histograms", action="store_true", help="print Fig.-6-style histograms")
    _add_axis_options(p_cmp)
    _add_engine_options(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="sweep one config field over a value grid")
    p_sweep.add_argument("--param", required=True,
                         help="SimulationConfig field to sweep (e.g. comm_fidelity_penalty)")
    p_sweep.add_argument("--values", nargs="+", required=True, help="values to sweep over")
    p_sweep.add_argument("--strategies", nargs="+", default=["speed"])
    p_sweep.add_argument("-n", "--num-jobs", type=int, default=50)
    p_sweep.add_argument("--seed", type=int, default=2025)
    p_sweep.add_argument("--replicates", type=int, default=1,
                         help="workload replicates per grid cell (seeds derived)")
    _add_axis_options(p_sweep, "regions")
    _add_engine_options(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_train = sub.add_parser("train", help="train the PPO allocation policy (Fig. 5)")
    p_train.add_argument("--timesteps", type=int, default=100_000)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--model", default="rl_allocation_policy.npz")
    p_train.add_argument("--curve", help="write the training curve to this JSON file")
    p_train.add_argument("--curve-points", type=int, default=50)
    p_train.add_argument("--comm-aware", action="store_true",
                         help="fold the communication penalty into the reward (paper future work)")
    p_train.add_argument("--n-envs", type=int, default=1,
                         help="rows of the batched rollout environment (1 = serial "
                              "training; 16 trains several times faster)")
    p_train.set_defaults(func=_cmd_train)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
