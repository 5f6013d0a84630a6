"""The benchmark's four workloads, their correctness gate and regime guards.

Each workload turns the ``--seed`` into inputs (:meth:`inputs`), builds the
simulation(s) from them (:meth:`build`), runs them (:meth:`run`) and reads
the outcome (:meth:`outcome`).  The simulator receives only the generated
inputs; every constant below is part of the workload definition, documented
with its reason in ``METRICS.md``.

Simulator functions that the traced run wraps (see ``spans.py``) are called
through their modules, so the wrappers see these calls too.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

import repro.region.cloud as region_cloud
import repro.rlenv.train as rl_train
import repro.serve.workload as serve_workload
from repro.cloud import fastpath, job_generator
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.cloud.records_stream import StreamingRecordsManager
from repro.dynamics import get_scenario
from repro.dynamics.scenario import Scenario, TrafficSpec
from repro.engine.runner import ExperimentRunner
from repro.scheduling.registry import create_policy
from repro.serve import AdmissionSpec, SLOSpec, TenantMix, TenantSpec
from repro.workloads import arrivals

#: The paper's Table 2 (1,000 large circuits on five 127-qubit QPUs):
#: strategy -> (T_sim in s, mean fidelity, T_comm in s).
TABLE2: Dict[str, Tuple[float, float, float]] = {
    "speed": (108_775.38, 0.65332, 5_707.80),
    "fidelity": (209_873.02, 0.68781, 3_822.74),
    "fair": (108_778.16, 0.64373, 5_707.80),
    "rlbase": (106_206.21, 0.62087, 6_105.52),
}

#: Value reported for a metric that does not apply to a workload: every
#: workload prints the same keys, and the value never changes.
NOT_APPLICABLE = 1.0

#: Relative tolerance of the wait + service = turnaround identity.
_TIME_TOLERANCE = 1e-9


@dataclass
class Outcome:
    """What one simulation pass produced, as the benchmark reads it."""

    #: Jobs submitted to the simulator.
    submitted: int
    #: Jobs that ended: completed + failed + rejected.
    resolved: int
    #: SHA-256 over the pass's records (equal across passes of one seed).
    digest: str
    #: The simulated-time end-to-end metrics (``sim_*``, ``slo_*``, ...).
    sim: Dict[str, float]
    #: Outcome counts reported by the per-layer metrics.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Correctness-gate violations (empty when the outputs are correct).
    problems: List[str] = field(default_factory=list)
    #: Values the regime guards test.
    regime: Dict[str, Any] = field(default_factory=dict)


# -- shared checks ------------------------------------------------------------
def _records_digest(records: Iterable[Any], *extra: Any) -> str:
    """Digest of completed records (exact float bits) plus extra lists."""
    digest = hashlib.sha256()
    for r in sorted(records, key=lambda r: r.job_id):
        digest.update(
            (
                f"{r.job_id} {r.arrival_time.hex()} {float(r.start_time).hex()} "
                f"{float(r.finish_time).hex()} {float(r.fidelity).hex()} "
                f"{float(r.communication_time).hex()} {'|'.join(r.devices)} "
                f"{'|'.join(map(str, r.allocation))} {r.retries} {r.tenant}\n"
            ).encode()
        )
    digest.update(repr(extra).encode())
    return digest.hexdigest()


def _identity_holds(wait: float, service: float, turnaround: float) -> bool:
    return abs(wait + service - turnaround) <= _TIME_TOLERANCE * max(1.0, abs(turnaround))


def _record_problems(
    label: str,
    submitted: Sequence[int],
    records: Sequence[Any],
    failed: Sequence[int],
    rejected: Sequence[int] = (),
) -> List[str]:
    """Each submitted job ends exactly once; wait + service = turnaround."""
    problems: List[str] = []
    ends = Counter(r.job_id for r in records)
    ends.update(failed)
    ends.update(rejected)
    wrong = [j for j in submitted if ends.get(j, 0) != 1]
    unknown = set(ends) - set(submitted)
    if wrong or unknown:
        problems.append(
            f"{label}: {len(wrong)} jobs did not end exactly once "
            f"(e.g. {wrong[:5]}), {len(unknown)} unknown job ids ended"
        )
    bad = [
        r.job_id
        for r in records
        if not _identity_holds(r.wait_time, r.effective_service_time, r.turnaround_time)
    ]
    if bad:
        problems.append(f"{label}: wait + service != turnaround for jobs {bad[:5]}")
    return problems


def qubit_problems(envs: Sequence[Any]) -> List[str]:
    """Every qubit of every simulated device is released at the end."""
    held = [
        f"{d.name}:{d.used_qubits}"
        for env in envs
        for d in env.cloud.devices
        if d.used_qubits != 0
    ]
    return [f"qubits still reserved at the end: {held[:5]}"] if held else []


def _percentiles(waits: Sequence[float]) -> Tuple[float, float]:
    p50, p99 = np.percentile(np.asarray(waits, dtype=np.float64), [50, 99])
    return float(p50), float(p99)


def _completion_metrics(records: Sequence[Any], submitted: int) -> Dict[str, float]:
    """``sim_*`` metrics and the completed share from in-memory records."""
    p50, p99 = _percentiles([r.wait_time for r in records])
    return {
        "sim_makespan_s": max(r.finish_time for r in records)
        - min(r.arrival_time for r in records),
        "sim_mean_fidelity": float(np.mean([r.fidelity for r in records])),
        "sim_comm_s": float(sum(r.communication_time for r in records)),
        "sim_wait_p50_s": p50,
        "sim_wait_p99_s": p99,
        "jobs_done_frac": len(records) / submitted,
    }


# -- paper-batch ------------------------------------------------------------------
class PaperBatch:
    """The paper's §7 case study, once per Table 2 strategy."""

    name = "paper-batch"
    strategies = ("speed", "fidelity", "fair", "rlbase")
    #: PPO budget of the rlbase policy: fixed, independent of --seed (the
    #: trained model is part of the program, the workload seed is not).
    training = dict(
        total_timesteps=4_096, n_steps=512, n_envs=8, batch_size=128, n_epochs=5, seed=0
    )

    def inputs(self, seed: int) -> Any:
        config = SimulationConfig(seed=seed)
        jobs = job_generator.generate_synthetic_jobs(
            num_jobs=config.num_jobs,
            seed=config.seed,
            qubit_range=config.qubit_range,
            depth_range=config.depth_range,
            shots_range=config.shots_range,
            two_qubit_density=config.two_qubit_density,
            arrival=config.arrival,
            arrival_rate=config.arrival_rate,
        )
        model, _curve = rl_train.train_allocation_policy(**self.training)
        return config, jobs, model

    def build(self, inputs: Any, checked: bool = False) -> Any:
        config, jobs, model = inputs
        envs = []
        for strategy in self.strategies:
            kwargs = {"model": model} if strategy == "rlbase" else {}
            envs.append(
                QCloudSimEnv(
                    config,
                    jobs=[job.clone() for job in jobs],
                    policy=create_policy(strategy, **kwargs),
                )
            )
        return jobs, envs

    def run(self, sims: Any) -> Any:
        for env in sims[1]:
            env.run_until_complete()
        return sims

    def outcome(self, result: Any) -> Outcome:
        jobs, envs = result
        ids = [job.job_id for job in jobs]
        rows: Dict[str, Tuple[float, float, float]] = {}
        problems: List[str] = []
        all_records: List[Any] = []
        digests = []
        min_devices = []
        for strategy, env in zip(self.strategies, envs):
            records = env.records.completed_records
            failed = [job.job_id for job in env.broker.failed_jobs]
            problems += _record_problems(strategy, ids, records, failed)
            if not records:
                problems.append(f"{strategy}: no job completed")
                continue
            m = _completion_metrics(records, len(ids))
            rows[strategy] = (m["sim_makespan_s"], m["sim_mean_fidelity"], m["sim_comm_s"])
            all_records += records
            digests.append(_records_digest(records, sorted(failed)))
            min_devices.append(min(r.num_devices for r in records))
        if problems:
            return Outcome(len(ids) * len(envs), 0, "", {}, problems=problems)
        p50, p99 = _percentiles([r.wait_time for r in all_records])
        sim = {
            "sim_makespan_s": float(np.mean([row[0] for row in rows.values()])),
            "sim_mean_fidelity": float(np.mean([row[1] for row in rows.values()])),
            "sim_comm_s": float(np.mean([row[2] for row in rows.values()])),
            "sim_wait_p50_s": p50,
            "sim_wait_p99_s": p99,
            "jobs_done_frac": len(all_records) / (len(ids) * len(envs)),
        }
        sim["slo_attainment"] = sim["jobs_done_frac"]
        sim["table2_fidelity_err"] = float(
            np.mean([abs(rows[s][1] / TABLE2[s][1] - 1.0) for s in self.strategies])
        )
        sim["table2_makespan_err"] = float(
            np.mean([abs(rows[s][0] / TABLE2[s][0] - 1.0) for s in self.strategies])
        )
        return Outcome(
            submitted=len(ids) * len(envs),
            resolved=len(ids) * len(envs),
            digest=hashlib.sha256("".join(digests).encode()).hexdigest(),
            sim=sim,
            regime={"min_devices": min(min_devices), "rows": rows},
        )

    def regime_problems(self, outcome: Outcome, plans: Tuple[int, int]) -> List[str]:
        problems = []
        if outcome.regime["min_devices"] < 2:
            problems.append("a job ran on a single device; every job must split")
        rows = outcome.regime["rows"]
        if max(rows, key=lambda s: rows[s][1]) != "fidelity":
            problems.append("Table 2 shape: 'fidelity' does not have the highest fidelity")
        if min(rows, key=lambda s: rows[s][2]) != "fidelity":
            problems.append("Table 2 shape: 'fidelity' does not have the lowest T_comm")
        return problems


# -- diurnal-contended ------------------------------------------------------------
class CheckedStream(StreamingRecordsManager):
    """Streaming records that also note how often each job ended, the
    wait + service = turnaround identity and the summed communication time
    (which the streaming aggregates do not keep)."""

    def __init__(self, num_jobs: int) -> None:
        super().__init__()
        self.ends = np.zeros(num_jobs, dtype=np.int64)
        self.comm_s = 0.0
        self.identity_breaks: List[int] = []

    def add_record(self, record: Any) -> None:
        super().add_record(record)
        self.ends[record.job_id] += 1
        self.comm_s += record.communication_time
        if not _identity_holds(
            record.wait_time, record.effective_service_time, record.turnaround_time
        ):
            self.identity_breaks.append(record.job_id)

    def log_event(self, job_id: int, event: str, time: float, detail: Optional[str] = None) -> None:
        super().log_event(job_id, event, time, detail)
        if event in ("failed", "rejected"):
            self.ends[job_id] += 1


class DiurnalContended:
    """Flat-event fast path under diurnal load that backs up at every crest."""

    name = "diurnal-contended"
    num_jobs = 25_000
    #: A crest far above the drain rate puts every seed in the same regime; a
    #: crest near it is metastable (see METRICS.md, "Measured regimes").
    base_rate = 2.0
    peak_rate = 90.0
    period_s = 120.0
    qubit_range = (2, 16)
    depth_range = (5, 20)
    shots_range = (100, 1_000)

    def inputs(self, seed: int) -> Any:
        times = arrivals.bulk_diurnal_arrival_times(
            np.random.default_rng(seed),
            self.num_jobs,
            base_rate=self.base_rate,
            peak_rate=self.peak_rate,
            period=self.period_s,
        )
        return fastpath.JobTable.synthetic(
            self.num_jobs,
            seed=seed,
            qubit_range=self.qubit_range,
            depth_range=self.depth_range,
            shots_range=self.shots_range,
            arrival_times=times,
        )

    def build(self, table: Any, checked: bool = False) -> Any:
        records = CheckedStream(len(table)) if checked else StreamingRecordsManager()
        return table, QCloudSimEnv(SimulationConfig(), job_table=table, records=records)

    def run(self, sims: Any) -> Any:
        sims[1].run_until_complete()
        return sims

    def outcome(self, result: Any) -> Outcome:
        table, env = result
        records = env.records
        aggregates = records.aggregates()
        failed = len(env.broker.failed_jobs)
        digest = hashlib.sha256(
            json.dumps([aggregates, env.now.hex(), failed], sort_keys=True).encode()
        ).hexdigest()
        outcome = Outcome(len(table), records.completed + failed, digest, {})
        if not isinstance(records, CheckedStream):
            return outcome
        wrong = np.flatnonzero(records.ends != 1)
        if len(wrong):
            outcome.problems.append(
                f"{len(wrong)} jobs did not end exactly once (e.g. {wrong[:5].tolist()})"
            )
        if records.identity_breaks:
            outcome.problems.append(
                f"wait + service != turnaround for jobs {records.identity_breaks[:5]}"
            )
        done = records.completed / len(table)
        outcome.sim = {
            "sim_makespan_s": env.now - float(table.arrival[0]),
            "sim_mean_fidelity": records.mean_fidelity,
            "sim_comm_s": records.comm_s,
            "sim_wait_p50_s": aggregates["wait_p50"],
            "sim_wait_p99_s": aggregates["wait_p99"],
            "jobs_done_frac": done,
            "slo_attainment": done,
            "table2_fidelity_err": NOT_APPLICABLE,
            "table2_makespan_err": NOT_APPLICABLE,
        }
        return outcome

    def regime_problems(self, outcome: Outcome, plans: Tuple[int, int]) -> List[str]:
        problems = []
        if not outcome.sim["sim_wait_p99_s"] > 0:
            problems.append("no job waited: the cloud is idle, not contended")
        calls, nones = plans
        if not (calls and nones):
            problems.append("no plan() call returned None: the pending queue never backed up")
        return problems


# -- serve-flaky ----------------------------------------------------------------------
#: The benchmark's own tenant mix (the registered presets are sized for
#: ~100-job runs and collapse at this length).  A backlog of best-effort batch
#: jobs arrives at t=0 and keeps the fleet busy; interactive jobs preempt it
#: once they wait past their 60 s queueing SLO, and a bursty tenant is held
#: back by a token bucket.
SERVE_MIX = TenantMix(
    name="perfbench-serve",
    description="interactive + bursty (token bucket) + preemptible batch backlog",
    tenants=(
        TenantSpec(
            name="interactive",
            priority_class=0,
            weight=2.0,
            share=0.10,
            traffic=TrafficSpec(model="poisson", rate=0.004),
            qubit_range=(20, 120),
            depth_range=(5, 10),
            shots_range=(10_000, 40_000),
            slo=SLOSpec(queue_deadline=60.0, completion_deadline=300.0),
        ),
        TenantSpec(
            name="bursty",
            priority_class=1,
            share=0.10,
            traffic=TrafficSpec(
                model="mmpp", rate=0.002, burst_rate=0.05, dwell_normal=300.0, dwell_burst=100.0
            ),
            qubit_range=(20, 160),
            admission=AdmissionSpec(rate=0.003, burst=6.0, max_queued=30),
            slo=SLOSpec(queue_deadline=1_800.0),
        ),
        TenantSpec(
            name="batch",
            priority_class=3,
            share=0.80,
            qubit_range=(130, 250),
            depth_range=(10, 20),
            shots_range=(10_000, 40_000),
            job_priority=5,
        ),
    ),
)


def draining_flaky_fleet() -> Scenario:
    """The ``flaky-fleet`` scenario with outages that drain running sub-jobs.

    ``BaseQDevice.set_offline(kill_running=True)`` interrupts the device's
    running processes in the iteration order of a ``set``, which follows
    object addresses, so two runs of one seed in one process diverge once an
    outage kills more than one sub-job.  Until that is fixed the workload
    keeps flaky-fleet's drift, outage timing and maintenance window but lets
    running work drain; requeues and resumes come from serve preemptions.
    """
    preset = get_scenario("flaky-fleet")
    # The name seeds the scenario's random streams: keeping it keeps the
    # preset's drift and outage timing.
    return replace(preset, outages=replace(preset.outages, kill_running=False))


class ServeFlaky:
    """Multi-tenant serving with every feature on."""

    name = "serve-flaky"
    num_jobs = 4_000

    def inputs(self, seed: int) -> Any:
        config = SimulationConfig(
            num_jobs=self.num_jobs,
            seed=seed,
            policy="speed",
            adaptive="predictive",
            checkpointing=True,
        )
        return config, serve_workload.tenant_jobs(SERVE_MIX, config)

    def build(self, inputs: Any, checked: bool = False) -> Any:
        config, jobs = inputs
        env = QCloudSimEnv(
            config,
            jobs=[job.clone() for job in jobs],
            tenants=SERVE_MIX,
            scenario=draining_flaky_fleet(),
        )
        return jobs, env

    def run(self, sims: Any) -> Any:
        jobs, env = sims
        env.run_until_complete()
        return jobs, env, env.tenant_reports()

    def outcome(self, result: Any) -> Outcome:
        jobs, env, reports = result
        broker = env.broker
        records = env.records.completed_records
        failed = [job.job_id for job in broker.failed_jobs]
        rejected = [job.job_id for job in broker.rejected_jobs]
        ids = [job.job_id for job in jobs]
        events = Counter(event.event for event in env.records.events)
        outcome = Outcome(
            submitted=len(ids),
            resolved=len(records) + len(failed) + len(rejected),
            digest=_records_digest(records, sorted(failed), sorted(rejected), broker.preempted_total),
            sim={},
            counts={
                "rejected": len(rejected),
                "preemptions": broker.preempted_total,
                "requeues": events["requeue"],
                "resumes": events["resume"],
            },
            problems=_record_problems(self.name, ids, records, failed, rejected),
        )
        if not records:
            outcome.problems.append("no job completed")
            return outcome
        attainments = [
            r.attainment
            for r in reports
            if not SERVE_MIX.tenant(r.tenant).slo.is_unbounded and r.attainment is not None
        ]
        outcome.sim = _completion_metrics(records, len(ids))
        outcome.sim["slo_attainment"] = float(np.mean(attainments))
        outcome.sim["table2_fidelity_err"] = NOT_APPLICABLE
        outcome.sim["table2_makespan_err"] = NOT_APPLICABLE
        outcome.regime = {"attainments": attainments}
        return outcome

    def regime_problems(self, outcome: Outcome, plans: Tuple[int, int]) -> List[str]:
        counts = outcome.counts
        problems = []
        if not 0 < counts["rejected"] < outcome.submitted / 2:
            problems.append(f"admission shed {counts['rejected']} jobs; need > 0 and < half")
        for key in ("preemptions", "requeues", "resumes"):
            if not counts[key] > 0:
                problems.append(f"no {key}")
        if not any(0 < a < 1 for a in outcome.regime["attainments"]):
            problems.append("no SLO tenant has 0 < attainment < 1")
        return problems


# -- multiregion ------------------------------------------------------------------------
class MultiRegion:
    """Three regions behind the least-loaded router, shards run serially."""

    name = "multiregion"
    num_jobs = 4_000

    def inputs(self, seed: int) -> Any:
        return SimulationConfig(
            num_jobs=self.num_jobs, seed=seed, regions="follow-the-sun", routing="least-loaded"
        )

    def build(self, config: Any, checked: bool = False) -> Any:
        return region_cloud.RegionalCloud(config, runner=ExperimentRunner(backend="serial"))

    def run(self, cloud: Any) -> Any:
        cloud.run_until_complete()
        return cloud

    def outcome(self, cloud: Any) -> Outcome:
        records = cloud.records.completed_records
        failed = [entry["job_id"] for entry in cloud.failed]
        ids = list(cloud.origin_of)
        outcome = Outcome(
            submitted=len(ids),
            resolved=len(records) + len(failed),
            digest=_records_digest(records, sorted(failed), cloud.migrations),
            sim={},
            counts={"migrations": len(cloud.migrations)},
            problems=_record_problems(self.name, ids, records, failed),
            regime={
                "completed": {n: r["completed"] for n, r in cloud.region_reports().items()}
            },
        )
        if not records:
            outcome.problems.append("no job completed")
            return outcome
        outcome.sim = _completion_metrics(records, len(ids))
        outcome.sim["slo_attainment"] = outcome.sim["jobs_done_frac"]
        outcome.sim["table2_fidelity_err"] = NOT_APPLICABLE
        outcome.sim["table2_makespan_err"] = NOT_APPLICABLE
        return outcome

    def regime_problems(self, outcome: Outcome, plans: Tuple[int, int]) -> List[str]:
        idle = [name for name, done in outcome.regime["completed"].items() if done == 0]
        return [f"shards ran no jobs: {idle}"] if idle else []


WORKLOADS = {w.name: w for w in (PaperBatch(), DiurnalContended(), ServeFlaky(), MultiRegion())}
