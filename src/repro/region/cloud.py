"""The sharded multi-region cloud: one broker shard per region.

A :class:`RegionalCloud` turns a :class:`~repro.region.spec.RegionTopology`
into N independent :class:`~repro.cloud.environment.QCloudSimEnv` shards —
one per region, each owning its device pool and (optionally) its own world-
dynamics scenario — behind a :class:`~repro.region.router.Router` front
tier.  The execution model is *epoch-based*:

1. The router assigns every job a region (deterministically, in arrival
   order).  Jobs served outside their origin region arrive at the remote
   shard ``latency_per_qubit * num_qubits`` seconds late and pay one hop of
   the link's fidelity penalty.
2. All shards with work run to completion — serially, or as real parallel
   processes via the ``"process"`` backend of
   :class:`~repro.engine.runner.ExperimentRunner`.  A shard is a pure
   function of its picklable :class:`_ShardTask`, so both backends produce
   byte-identical records.
3. Jobs that *terminally failed* in their shard (requeue limit exhausted,
   infeasible in that pool) migrate: the router re-routes them with the
   failed region excluded, they pay the extra hop, and a follow-up epoch
   runs on the target shards.  After ``max_migration_rounds`` epochs the
   survivors are reported as failed.
4. Per-shard record streams merge into one globally job-id-ordered result.
   Off-origin records are restored to their *original* arrival time, with
   the accumulated transfer latency added to ``communication_time`` and the
   per-hop fidelity penalties multiplied in — so the merged stream reads
   exactly like one cloud's output, with cross-region cost made visible.

A one-region topology bypasses routing and workload splitting entirely: the
single shard receives the unmodified config (and workload), making the run
byte-identical to the plain single-broker cloud — the regression tested in
``tests/region/test_single_region_equivalence.py``.

Multi-region runs generate each region's origin workload from the region's
own scenario traffic model (or the config's default arrival process) on an
independent seed sub-stream, split over regions by workload share with the
share-split builder of :mod:`repro.workloads.split` that tenant mixes use
too.
Multi-tenant mixes and a global ``config.scenario`` are rejected for
multi-region runs: tenancy lives inside a shard, world dynamics live in the
per-region scenarios.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.cloud.config import SimulationConfig
from repro.cloud.qjob import QJob
from repro.cloud.records import JobRecord, JobRecordsManager
from repro.engine.runner import ExperimentRunner
from repro.engine.spec import derive_seed
from repro.metrics.aggregate import StrategySummary, empty_summary, summarize_records
from repro.region.presets import resolve_topology
from repro.region.router import Router
from repro.region.spec import RegionSpec, RegionTopology
from repro.workloads.split import config_jobs, draw_parts, split_workload

__all__ = [
    "RegionalCloud",
    "regional_jobs",
    "route_jobs_to_regions",
]


# -- regional workloads ----------------------------------------------------------
def regional_jobs(
    topology: RegionTopology, config: SimulationConfig
) -> Optional[Tuple[List[QJob], Dict[int, str]]]:
    """The merged multi-region workload, or ``None`` for one-region topologies.

    Every region contributes its workload share of ``config.num_jobs``,
    generated from its scenario's traffic model (or the config's default
    arrival process) on an independent seed sub-stream.  Returns the merged,
    arrival-ordered, renumbered job list plus each job's origin region.

    A one-region topology returns ``None``: the shard then generates the
    exact default workload itself, keeping the run byte-identical to the
    plain cloud.
    """
    if topology.is_single_region:
        return None

    def generate(index: int, count: int) -> List[QJob]:
        region = topology.regions[index]
        traffic = None
        if region.scenario is not None:
            from repro.dynamics import resolve_scenario

            traffic = resolve_scenario(region.scenario).traffic
        seed = derive_seed(config.seed, "region-workload", topology.name, region.name)
        return config_jobs(config, count, seed, traffic=traffic)

    jobs, parts = split_workload(_shares(topology), config.num_jobs, generate)
    return jobs, _origins(jobs, topology, parts)


def route_jobs_to_regions(
    jobs: Sequence[QJob], topology: RegionTopology, seed: Optional[int]
) -> Dict[int, str]:
    """Attribute an *existing* workload to origin regions by workload share.

    One deterministic weighted draw per job from a dedicated seed sub-stream
    (like :func:`repro.serve.route_jobs_to_tenants`); arrival times and
    circuits are untouched.  Returns job id → origin region name.
    """
    jobs = list(jobs)
    seed = derive_seed(seed, "region-routing", topology.name)
    return _origins(jobs, topology, draw_parts(_shares(topology), len(jobs), seed))


def _shares(topology: RegionTopology) -> List[float]:
    return [region.workload_share for region in topology.regions]


def _origins(
    jobs: Sequence[QJob], topology: RegionTopology, parts: Sequence[int]
) -> Dict[int, str]:
    names = topology.region_names
    return {job.job_id: names[index] for job, index in zip(jobs, parts)}


# -- the shard worker ------------------------------------------------------------
@dataclass(frozen=True)
class _ShardTask:
    """Everything one region shard needs, picklable for the process pool."""

    region: str
    config: SimulationConfig
    jobs: Optional[Tuple[QJob, ...]] = None
    policy: Optional[Any] = None


@dataclass(frozen=True)
class _ShardResult:
    """One shard's complete outcome, picklable for the process pool."""

    region: str
    records: Tuple[JobRecord, ...]
    #: Terminally failed jobs (status reset by ``clone`` — re-routable).
    failed_jobs: Tuple[QJob, ...]
    #: job id → (failure time, reason) of the terminal failures.
    failures: Dict[int, Tuple[float, str]] = field(default_factory=dict)
    #: Per-device execution statistics of the shard.
    device_utilization: Dict[str, Dict[str, float]] = field(default_factory=dict)


def _run_shard(task: _ShardTask) -> _ShardResult:
    """Run one region shard to completion (worker entry point).

    Module-level so the process backend can pickle it by reference; a pure
    function of the task (jobs are cloned before simulation), so serial and
    process execution produce byte-identical results.
    """
    from repro.cloud.environment import QCloudSimEnv

    jobs = [job.clone() for job in task.jobs] if task.jobs is not None else None
    env = QCloudSimEnv(config=task.config, jobs=jobs, policy=task.policy)
    records = env.run_until_complete()
    failures: Dict[int, Tuple[float, str]] = {}
    for event in env.records.events:
        if event.event == "failed":
            failures[event.job_id] = (event.time, event.detail or "")
    return _ShardResult(
        region=task.region,
        records=tuple(records),
        failed_jobs=tuple(job.clone() for job in env.broker.failed_jobs),
        failures=failures,
        device_utilization=env.device_utilization_report(),
    )


# -- the regional cloud ----------------------------------------------------------
class RegionalCloud:
    """A sharded multi-region quantum cloud behind a routing tier.

    Parameters
    ----------
    config:
        The run's configuration.  ``config.regions`` names the topology
        (unless *topology* is given) and ``config.routing`` the policy.
    topology:
        Explicit topology (name or instance); overrides ``config.regions``.
    jobs:
        Explicit global workload (cloned at intake; origin regions assigned
        by weighted share).  Default: each region generates its own origin
        workload from its share of ``config.num_jobs``.
    policy:
        Allocation-policy instance shipped to every shard (overrides
        ``config.policy``; required for ``"rlbase"``).
    records:
        Records manager the merged stream is fed into — pass a
        :class:`~repro.cloud.records_stream.StreamingRecordsManager` to keep
        million-job multi-region runs in O(1) memory.
    runner:
        The :class:`~repro.engine.runner.ExperimentRunner` executing the
        shards: ``backend="process"`` runs regions as real parallel
        processes, byte-identical to the default serial execution.
    max_migration_rounds:
        Epochs of cross-region spillover for terminally failed jobs.
    """

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        topology: Optional[Union[str, RegionTopology]] = None,
        jobs: Optional[Sequence[QJob]] = None,
        policy: Optional[Any] = None,
        records: Optional[JobRecordsManager] = None,
        runner: Optional[ExperimentRunner] = None,
        max_migration_rounds: int = 2,
    ) -> None:
        self.config = config if config is not None else SimulationConfig(regions="dual")
        if topology is None:
            if self.config.regions is None:
                raise ValueError(
                    "a region topology is required: set SimulationConfig.regions "
                    "(e.g. 'dual') or pass topology=..."
                )
            topology = self.config.regions
        self.topology = resolve_topology(topology)
        if not self.topology.is_single_region:
            if self.config.tenants is not None:
                raise ValueError(
                    "multi-region runs do not support tenant mixes; tenancy lives "
                    "inside a shard — run the mix against a single-region topology"
                )
            if self.config.scenario is not None:
                raise ValueError(
                    "multi-region runs take world dynamics from the per-region "
                    "scenarios of the topology, not config.scenario"
                )
        if max_migration_rounds < 0:
            raise ValueError("max_migration_rounds must be non-negative")
        self.policy = policy
        self.records = records if records is not None else JobRecordsManager()
        self.runner = runner if runner is not None else ExperimentRunner(backend="serial")
        self.max_migration_rounds = max_migration_rounds
        self.router = Router(self.topology, self.config, policy=self.config.routing)

        # -- workload and initial routing -------------------------------------
        self._explicit_jobs = jobs is not None
        self._jobs: Optional[List[QJob]] = None
        #: job id → origin region (arrival side of the routing decision).
        self.origin_of: Dict[int, str] = {}
        #: job id → region that (last) served the job.
        self.region_of: Dict[int, str] = {}
        #: Applied migrations: (job id, from region, to region, round).
        self.migrations: List[Tuple[int, str, str, int]] = []
        #: Terminally failed jobs after all migration rounds:
        #: ``{"job_id", "time", "reason", "regions_tried"}`` dicts.
        self.failed: List[Dict[str, Any]] = []
        self._shard_stats: Dict[str, Dict[str, Any]] = {}
        self._ran = False

        if jobs is not None:
            self._jobs = [job.clone() for job in jobs]
            self.origin_of = route_jobs_to_regions(self._jobs, self.topology, self.config.seed)
        elif not self.topology.is_single_region:
            generated = regional_jobs(self.topology, self.config)
            assert generated is not None
            self._jobs, self.origin_of = generated
        # else: one region, jobs=None — the shard generates the default
        # workload itself (byte-identity with the plain cloud).

    # -- shard construction ----------------------------------------------------
    def _shard_config(self, region: RegionSpec) -> SimulationConfig:
        """The configuration one region's shard runs with."""
        payload = asdict(self.config)
        payload["regions"] = None
        payload["routing"] = "locality"
        if region.device_names:
            payload["device_names"] = list(region.device_names)
        if not self.topology.is_single_region:
            payload["scenario"] = region.scenario
        elif region.scenario is not None and payload["scenario"] is None:
            payload["scenario"] = region.scenario
        return SimulationConfig(**payload)

    # -- execution -------------------------------------------------------------
    def run_until_complete(self) -> List[JobRecord]:
        """Route, run every shard (and migration epochs), merge the streams.

        Returns the merged completed records, globally ordered by job id —
        empty when a streaming records manager aggregates them instead.
        """
        if self._ran:
            raise RuntimeError("this RegionalCloud has already run")
        self._ran = True

        if self.topology.is_single_region:
            merged = self._run_single_region()
        else:
            merged = self._run_multi_region()

        for record in merged:
            self.records.add_record(record)
        for failure in self.failed:
            # log_event, not log_failure: StreamingRecordsManager implements
            # only the shared event funnel, and "failed" goes through it.
            self.records.log_event(
                failure["job_id"], "failed", failure["time"], detail=failure["reason"]
            )
        return self.records.completed_records

    def _run_single_region(self) -> List[JobRecord]:
        region = self.topology.regions[0]
        task = _ShardTask(
            region=region.name,
            config=self._shard_config(region),
            jobs=tuple(self._jobs) if self._jobs is not None else None,
            policy=self.policy,
        )
        result = self.runner.map(_run_shard, [task])[0]
        self._ingest_shard_stats(result)
        for job in result.failed_jobs:
            time, reason = result.failures.get(job.job_id, (0.0, "failed"))
            self.failed.append(
                {
                    "job_id": job.job_id,
                    "time": time,
                    "reason": reason,
                    "regions_tried": [region.name],
                }
            )
        for record in result.records:
            self.region_of[record.job_id] = region.name
        return sorted(result.records, key=lambda r: r.job_id)

    def _run_multi_region(self) -> List[JobRecord]:
        assert self._jobs is not None
        # Per-job routing state: accumulated transfer cost across hops.
        state: Dict[int, Dict[str, Any]] = {}
        epoch: Dict[str, List[QJob]] = {name: [] for name in self.topology.region_names}
        for job in self._jobs:  # arrival order — the router is sequential
            origin = self.origin_of[job.job_id]
            target = self.router.assign(job, origin=origin)
            entry = {
                "origin": origin,
                "arrival": job.arrival_time,
                "region": target,
                "transfer": 0.0,
                "penalty": 1.0,
                "tried": {target},
            }
            shipped = job.clone()
            if target != origin:
                link = self.topology.link(origin, target)
                assert link is not None
                entry["transfer"] = link.latency_per_qubit * job.num_qubits
                entry["penalty"] = link.penalty(2)
                shipped.arrival_time = job.arrival_time + entry["transfer"]
            state[job.job_id] = entry
            self.region_of[job.job_id] = target
            epoch[target].append(shipped)

        merged: List[JobRecord] = []
        round_index = 0
        while True:
            tasks = [
                _ShardTask(
                    region=region.name,
                    config=self._shard_config(region),
                    jobs=tuple(epoch[region.name]),
                    policy=self.policy,
                )
                for region in self.topology.regions
                if epoch[region.name]
            ]
            failures: List[Tuple[QJob, float, str]] = []
            for result in self.runner.map(_run_shard, tasks):
                self._ingest_shard_stats(result)
                merged.extend(result.records)
                for job in result.failed_jobs:
                    time, reason = result.failures.get(job.job_id, (0.0, "failed"))
                    failures.append((job, time, reason))

            if not failures or round_index >= self.max_migration_rounds:
                for job, time, reason in sorted(failures, key=lambda f: f[0].job_id):
                    entry = state[job.job_id]
                    self.failed.append(
                        {
                            "job_id": job.job_id,
                            "time": time,
                            "reason": reason,
                            "regions_tried": sorted(entry["tried"]),
                        }
                    )
                break

            round_index += 1
            epoch = {name: [] for name in self.topology.region_names}
            for job, fail_time, reason in sorted(failures, key=lambda f: f[0].job_id):
                entry = state[job.job_id]
                tried = entry["tried"]
                if len(tried) >= len(self.topology.regions):
                    self.failed.append(
                        {
                            "job_id": job.job_id,
                            "time": fail_time,
                            "reason": reason,
                            "regions_tried": sorted(tried),
                        }
                    )
                    continue
                # Route from where the job failed, at the time it failed.
                probe = job.clone()
                probe.arrival_time = fail_time
                target = self.router.assign(
                    probe, origin=entry["origin"], exclude=frozenset(tried)
                )
                link = self.topology.link(entry["region"], target)
                assert link is not None  # target is never the failed region
                hop = link.latency_per_qubit * job.num_qubits
                migrated = job.clone()
                migrated.arrival_time = fail_time + hop
                self.migrations.append((job.job_id, entry["region"], target, round_index))
                entry["transfer"] += hop
                entry["penalty"] *= link.penalty(2)
                entry["region"] = target
                tried.add(target)
                self.region_of[job.job_id] = target
                epoch[target].append(migrated)

        # Restore origin-side arrival times and surface cross-region cost.
        for record in merged:
            entry = state[record.job_id]
            if entry["transfer"] > 0.0:
                record.arrival_time = entry["arrival"]
                record.communication_time += entry["transfer"]
                record.fidelity *= entry["penalty"]
        merged.sort(key=lambda r: r.job_id)
        return merged

    # -- reporting -------------------------------------------------------------
    def _ingest_shard_stats(self, result: _ShardResult) -> None:
        stats = self._shard_stats.setdefault(
            result.region,
            {"completed": 0, "failed": 0, "device_utilization": {}},
        )
        stats["completed"] += len(result.records)
        stats["failed"] += len(result.failed_jobs)
        stats["device_utilization"] = result.device_utilization

    def summary(self, strategy: Optional[str] = None) -> StrategySummary:
        """Aggregate the merged records into one Table-2 row."""
        name = strategy if strategy is not None else getattr(
            self.policy, "name", self.config.policy
        )
        records = self.records.completed_records
        return summarize_records(records, strategy=name) if records else empty_summary(name)

    def region_reports(self) -> Dict[str, Dict[str, Any]]:
        """Per-region outcome: routed/served/failed counts plus router load."""
        routed: Dict[str, int] = {name: 0 for name in self.topology.region_names}
        for region_name in self.region_of.values():
            routed[region_name] += 1
        origin_counts: Dict[str, int] = {name: 0 for name in self.topology.region_names}
        for region_name in self.origin_of.values():
            origin_counts[region_name] += 1
        migrated_out: Dict[str, int] = {name: 0 for name in self.topology.region_names}
        migrated_in: Dict[str, int] = {name: 0 for name in self.topology.region_names}
        for _, source, target, _ in self.migrations:
            migrated_out[source] += 1
            migrated_in[target] += 1
        load = self.router.load_report()
        reports: Dict[str, Dict[str, Any]] = {}
        for name in self.topology.region_names:
            stats = self._shard_stats.get(name, {})
            reports[name] = {
                "origin_jobs": origin_counts[name],
                "served_jobs": routed[name],
                "completed": stats.get("completed", 0),
                "failed": stats.get("failed", 0),
                "migrated_in": migrated_in[name],
                "migrated_out": migrated_out[name],
                **load[name],
            }
        return reports
