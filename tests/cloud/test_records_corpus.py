"""The records-digest corpus: the dispatch engine's byte-identity contract.

Every case below is one complete simulation.  Its digest is the sha256 of
the run's whole observable output, serialised as sorted-key JSON (floats by
their shortest round-trip ``repr``):

* ``[r.as_dict() for r in records]``, every completed record,
* ``(job_id, event, time, detail)`` for every logged event,
* the failed and the rejected job ids,
* the serve broker's ``preempted_total``,
* ``device_utilization_report()`` and ``env.now``,
* the adaptive report and the tenant reports where the run has them, and
  the message of the error a run stops with (a policy bug, a job that
  never ends, an unknown tenant).

``records_corpus.json`` maps each case name to its digest.  The file was
written while the repository still carried two dispatch engines: each case
ran on the generator-per-job reference engine and on the flat-event engine,
both runs produced the same digest, and ``json.dumps({name:
digest(observe(name))}, indent=1, sort_keys=True)`` stored it.  The cases
are the configurations the engine-identity tests compared, so the corpus is
the reference engine's output, frozen; the flat-event engine, now the only
one, must keep reproducing it.  A change that moves a digest changes
simulated behaviour; such a change has to say why, and rewrite the entry
from a run of the new code.  A case added later (the overlapping
maintenance windows) was frozen from the code of its day before the code
it covers was rewritten.

Some cases also carry a check: a property of the run that shows the case
still exercises what it was written for (kills, requeues, preemptions,
rejections).

The 42 ``checkpoint`` cases that share their digest with their
``restart`` twin abort nothing.  The twins stay on purpose: each pins that
checkpointing leaves a run without aborts exactly as it is.  A change that
made it touch such a run would move the ``checkpoint`` digest and leave the
``restart`` one.  Cases that were the same run by construction were left
out: a traffic-only scenario (``rush-hour``) over an explicit job list
without a controller, and a ``drift`` run that ends before the first drift
step (the ``world/drift`` cases cover drift).
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np
import pytest

from repro.circuits.circuit import CircuitSpec
from repro.circuits.generators import random_circuit_spec
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.cloud.job_generator import generate_synthetic_jobs
from repro.cloud.qjob import QJob
from repro.cloud.records_stream import StreamingRecordsManager
from repro.dynamics import available_scenarios
from repro.dynamics.scenario import MaintenanceWindow, Scenario, TrafficSpec
from repro.hardware.backends import get_device_profile
from repro.scheduling.base import AllocationPlan
from repro.scheduling.speed import SpeedPolicy
from repro.serve import AdmissionSpec, SLOSpec, TenantMix, TenantSpec
from tests.timeline import timeline

CORPUS_PATH = Path(__file__).with_name("records_corpus.json")

#: Case name -> (builder, check).  The builder returns fresh
#: ``QCloudSimEnv`` keyword arguments, plus an optional ``setup(env)``
#: called before the run; the check, when present, gets the observed run.
CASES: Dict[str, Tuple[Callable[[], Dict[str, Any]], Optional[Callable[[Dict], None]]]] = {}

POLICIES = ("speed", "fidelity", "fair", "balanced")


def _case(name: str, build: Callable[[], Dict[str, Any]],
          check: Optional[Callable[[Dict], None]] = None) -> None:
    assert name not in CASES, name
    CASES[name] = (build, check)


def _count(run: Dict, event: str) -> int:
    return sum(1 for e in run["events"] if e[1] == event)


def _assert(condition: bool) -> None:
    """An assert usable in a lambda check."""
    assert condition


def _two_devices() -> list:
    return [get_device_profile("ibm_strasbourg"), get_device_profile("ibm_kyiv")]


def _job(job_id, num_qubits, arrival_time=0.0, tenant=None, seed=None):
    rng = np.random.default_rng(job_id + 7 * num_qubits if seed is None else seed)
    circuit = random_circuit_spec(rng, qubit_range=(num_qubits, num_qubits))
    return QJob(job_id=job_id, circuit=circuit, arrival_time=arrival_time, tenant=tenant)


def _outage(env, device, at, back_after=None, signal=True):
    """A user-code outage: *device* goes offline (killing) at *at* and,
    with *back_after*, returns that much later."""
    def back():
        env.cloud.device(device).set_online()
        if signal:
            env.cloud.signal_capacity_change()

    steps = [(at, lambda: env.cloud.device(device).set_offline(kill_running=True))]
    if back_after is not None:
        steps.append((back_after, back))
    timeline(env, *steps)


# -- policies × arrivals × rush-hour, plain and adaptive -----------------------
def _synthetic(policy, arrival, scenario, adaptive=None):
    def build():
        jobs = generate_synthetic_jobs(
            num_jobs=50, seed=11,
            arrival="poisson" if arrival is not None else "batch",
            arrival_rate=arrival if arrival is not None else 0.01,
        )
        return dict(config=SimulationConfig(policy=policy), jobs=jobs, scenario=scenario,
                    adaptive=adaptive)
    return build


for _policy in POLICIES:
    for _arrival, _arrival_name in ((None, "batch"), (0.5, "poisson")):
        _case(f"streams/{_policy}/{_arrival_name}/none", _synthetic(_policy, _arrival, None))
        for _scenario in (None, "rush-hour"):
            # The controllers read the scenario's traffic forecast; the
            # plain broker never sees a traffic-only scenario.
            _scenario_name = _scenario or "none"
            for _adaptive in ("reactive", "predictive"):
                _case(f"adaptive/{_policy}/{_adaptive}/{_arrival_name}/{_scenario_name}",
                      _synthetic(_policy, _arrival, _scenario, _adaptive))


def _capacity_exceeding_job():
    # One job wider than the whole fleet hits the can-ever-fit guard.
    giant = QJob(job_id=999, arrival_time=0.0, circuit=CircuitSpec(
        num_qubits=100_000, depth=5, num_shots=100, num_two_qubit_gates=10))
    return dict(config=SimulationConfig(policy="speed"),
                jobs=generate_synthetic_jobs(num_jobs=6, seed=3) + [giant])


def _check_giant_failed(run):
    assert 999 in run["failed"]


_case("capacity-exceeding-job", _capacity_exceeding_job, _check_giant_failed)


def _same_time_completions():
    # Jobs 0 and 1 share a device and complete at the same float time; the
    # blocked head (job 3) re-plans once, after both releases.
    def job(job_id, qubits, shots):
        return QJob(job_id=job_id, arrival_time=0.0, circuit=CircuitSpec(
            num_qubits=qubits, depth=10, num_shots=shots, num_two_qubit_gates=3 * qubits))

    jobs = [job(0, 60, 20_000), job(1, 60, 20_000), job(2, 100, 90_000), job(3, 90, 20_000)]
    return dict(config=SimulationConfig(policy="speed"), jobs=jobs, devices=_two_devices())


def _check_job3_on_strasbourg(run):
    job3 = next(r for r in run["records"] if r["job_id"] == 3)
    assert job3["devices"] == "ibm_strasbourg"


_case("same-time-completions", _same_time_completions, _check_job3_on_strasbourg)


# -- whole configurations --------------------------------------------------------
def _config(**fields):
    return lambda: dict(config=SimulationConfig(**fields))


for _scenario in ("static", "flaky-fleet", "rush-hour", "black-friday"):
    _case(f"config/scenario/{_scenario}", _config(num_jobs=15, seed=9, scenario=_scenario))
for _tenants in ("single", "free-tier-vs-premium", "batch-vs-interactive", "noisy-neighbor"):
    _case(f"config/tenants/{_tenants}", _config(num_jobs=15, seed=9, tenants=_tenants))
# Without checkpointing this is ``config/scenario/flaky-fleet``.
_case("config/flaky-fleet/checkpointing=True",
      _config(num_jobs=15, seed=9, scenario="flaky-fleet", checkpointing=True))


# -- world dynamics: drift, outages, maintenance, replayed traces ------------------
_RESTART = {False: "restart", True: "checkpoint"}

for _scenario in sorted(available_scenarios()):
    for _checkpointing in (False, True):
        for _adaptive in (None, "predictive"):
            _case(f"world/{_scenario}/{_RESTART[_checkpointing]}/{_adaptive or 'open-loop'}",
                  _config(num_jobs=30, seed=9, scenario=_scenario, arrival="poisson",
                          arrival_rate=0.05, checkpointing=_checkpointing,
                          adaptive=_adaptive))


def _check_kills(checkpointing):
    def check(run):
        # A busy fleet under flaky-fleet: many kills, several at one instant.
        assert _count(run, "requeue") >= 10
        assert (_count(run, "resume") > 0) == checkpointing
    return check


def _check_some_failed(run):
    assert run["failed"]
    assert _count(run, "failed") == len(run["failed"])


for _checkpointing in (False, True):
    _case(f"world/kills-requeue-resume/{_RESTART[_checkpointing]}",
          _config(num_jobs=120, seed=1, scenario="flaky-fleet", qubit_range=(20, 90),
                  checkpointing=_checkpointing),
          _check_kills(_checkpointing))
for _max_requeues in (0, 1):
    # Wide jobs block the queue head; a job failing at the requeue limit
    # releases qubits that must wake that head.
    _case(f"world/requeue-limit-blocked-heads/max_requeues={_max_requeues}",
          _config(num_jobs=80, seed=1, scenario="flaky-fleet", arrival="poisson",
                  arrival_rate=0.05, qubit_range=(60, 250), max_requeues=_max_requeues),
          _check_some_failed)
_case("world/requeue-limit",
      _config(num_jobs=120, seed=1, scenario="flaky-fleet", qubit_range=(20, 90),
              max_requeues=1),
      _check_some_failed)


def _replayed_trace():
    from repro.dynamics import load_trace

    config = SimulationConfig(num_jobs=60, seed=3, scenario="flaky-fleet", arrival="poisson",
                              arrival_rate=0.05, checkpointing=True)
    recorded = QCloudSimEnv(config)
    recorded.run_until_complete()
    with tempfile.TemporaryDirectory() as tmp:
        trace = load_trace(recorded.save_trace(str(Path(tmp) / "flaky.jsonl")))
    return dict(config=config, scenario=trace)


_case("world/replayed-trace", _replayed_trace,
      lambda run: _assert(_count(run, "requeue") > 0))


def _check_all_split(run):
    # 130-250-qubit jobs on 127-qubit devices all split; drift steps the
    # calibration while fragments run.
    assert all(r["num_devices"] > 1 for r in run["records"])


_case("world/drift-split-jobs",
      _config(num_jobs=40, seed=4, scenario="drift", arrival="poisson", arrival_rate=0.05),
      _check_all_split)


def _overlapping_maintenance():
    # Strasbourg: a killing window 100-300, an overlapping one declared at
    # 150 and deferred to 300-400, and a window starting at 400, right as the
    # deferred one ends.  The device is back online only for an instant at
    # 300 and at 400.
    windows = (
        MaintenanceWindow(start=100.0, duration=200.0, device="ibm_strasbourg",
                          kill_running=True),
        MaintenanceWindow(start=150.0, duration=100.0, device="ibm_strasbourg"),
        MaintenanceWindow(start=400.0, duration=50.0, device="ibm_strasbourg"),
    )
    jobs = generate_synthetic_jobs(num_jobs=24, seed=5, qubit_range=(60, 120),
                                   arrival="poisson", arrival_rate=0.05)
    return dict(config=SimulationConfig(num_jobs=24, policy="speed"), devices=_two_devices(),
                jobs=jobs, scenario=Scenario(name="overlapping-maintenance",
                                             maintenance=windows))


def _check_deferred_windows(run):
    starts = [e[2] for e in run["events"]
              if e[1] == "start" and "ibm_strasbourg" in e[3].split(",")]
    assert starts and min(starts) < 100.0 and max(starts) >= 450.0
    assert not [t for t in starts if 100.0 <= t < 450.0]
    assert _count(run, "requeue") > 0
    assert run["devices"]["ibm_strasbourg"]["outages"] == 3


_case("world/maintenance-deferred-and-back-to-back", _overlapping_maintenance,
      _check_deferred_windows)


# -- tenant mixes: admission, fair share, floor yielding, preemption ---------------
#: Three priority classes under pressure: interactive jobs with a short
#: queueing deadline preempt a best-effort batch backlog queued at t=0, and
#: a bursty middle class is held back by a token bucket and a queue cap.
STRESS_MIX = TenantMix(
    name="identity-stress",
    tenants=(
        TenantSpec(name="interactive", priority_class=0, weight=2.0, share=0.3,
                   traffic=TrafficSpec(model="poisson", rate=0.02),
                   qubit_range=(20, 120), shots_range=(10_000, 40_000),
                   slo=SLOSpec(queue_deadline=10.0)),
        TenantSpec(name="bursty", priority_class=1, share=0.1,
                   traffic=TrafficSpec(model="mmpp", rate=0.005, burst_rate=0.1,
                                       dwell_normal=200.0, dwell_burst=50.0),
                   qubit_range=(20, 160),
                   admission=AdmissionSpec(rate=0.01, burst=3.0, max_queued=5),
                   slo=SLOSpec(queue_deadline=300.0)),
        TenantSpec(name="batch", priority_class=3, share=0.6, qubit_range=(130, 250),
                   shots_range=(10_000, 40_000), job_priority=5),
    ),
)

#: Two classes: a premium tenant with a 2 s queueing deadline over a batch one.
TWO_CLASS = TenantMix(name="two-class", tenants=(
    TenantSpec(name="premium", priority_class=0, slo=SLOSpec(queue_deadline=2.0)),
    TenantSpec(name="batch", priority_class=3),
))

for _tenants in ("single", "free-tier-vs-premium", "batch-vs-interactive", "noisy-neighbor"):
    for _scenario in (None, "flaky-fleet", "black-friday"):
        for _adaptive in (None, "reactive"):
            for _policy in ("speed", "fidelity", "fair"):
                for _checkpointing in (False, True):
                    _case(f"tenants/{_tenants}/{_scenario or 'none'}/{_adaptive or 'open-loop'}"
                          f"/{_policy}/{_RESTART[_checkpointing]}",
                          _config(num_jobs=60, seed=9, tenants=_tenants, policy=_policy,
                                  scenario=_scenario, checkpointing=_checkpointing,
                                  adaptive=_adaptive))


def _check_stress(policy):
    def check(run):
        assert run["rejected"]
        # Under the fidelity policy no deadline preemption fires in this mix.
        if policy != "fidelity":
            assert run["preempted_total"] > 0 and run["failed"]
    return check


for _policy in POLICIES:
    for _checkpointing in (False, True):
        # Killing outages and deadline preemptions against a requeue limit
        # of one: victims re-run, or fail on their second abort.
        _case(f"tenants/stress/{_policy}/{_RESTART[_checkpointing]}",
              lambda policy=_policy, checkpointing=_checkpointing: dict(
                  config=SimulationConfig(num_jobs=200, seed=1, policy=policy,
                                          scenario="flaky-fleet", checkpointing=checkpointing,
                                          adaptive="predictive", max_requeues=1),
                  tenants=STRESS_MIX),
              _check_stress(_policy))


def _plan_attempt_limit():
    # A yielding head keeps its failed-plan count across yields.
    def limit(env):
        env.broker.max_plan_attempts = 3

    return dict(config=SimulationConfig(num_jobs=150, seed=1, policy="speed"),
                tenants=STRESS_MIX, setup=limit)


_case("tenants/plan-attempt-limit", _plan_attempt_limit,
      lambda run: _assert(any(e[1] == "failed" and e[3] == "no feasible allocation"
                              for e in run["events"])))
_case("tenants/streaming-records",
      lambda: dict(config=SimulationConfig(num_jobs=150, seed=2, scenario="flaky-fleet"),
                   tenants=STRESS_MIX, records=StreamingRecordsManager()),
      lambda run: _assert(run["preempted_total"] > 0))


def _head_preempts_job_dispatched_in_same_pump():
    # At t=5 a kill-and-restore of the premium job's device requeues it
    # behind the parked batch job 2; one pump dispatches job 2 and plans the
    # premium job, which must preempt job 2 (the latest-started victim).
    def kill_and_restore(env):
        def outage():
            start = next(e for e in env.records.events if e.job_id == 1 and e.event == "start")
            device = env.cloud.device(start.detail)
            device.set_offline(kill_running=True)
            device.set_online()
            env.cloud.signal_capacity_change()

        timeline(env, (5.0, outage))

    jobs = [_job(0, 127, 0.0, "batch"), _job(1, 100, 0.0, "premium"),
            _job(2, 100, 1.0, "batch")]
    return dict(config=SimulationConfig(num_jobs=3, policy="speed"), tenants=TWO_CLASS,
                jobs=jobs, devices=_two_devices(), setup=kill_and_restore)


def _check_same_pump_preemption(run):
    assert [e for e in run["events"] if e[1] == "preempted"] == [
        [2, "preempted", 5.0, "by job 1 (premium)"]
    ]
    starts = [e[:3] for e in run["events"] if e[1] == "start" and e[2] == 5.0]
    assert starts == [[2, "start", 5.0], [1, "start", 5.0]]


_case("tenants/head-preempts-same-pump", _head_preempts_job_dispatched_in_same_pump,
      _check_same_pump_preemption)


def _check_preemptions_logged_first(run):
    at_deadline = [e[:2] for e in run["events"] if e[2] == 3.0]
    assert at_deadline == [[1, "preempted"], [0, "preempted"], [1, "requeue"],
                           [0, "requeue"], [2, "start"]]


# The premium job parks at t=1; its deadline at t=3 wakes it, and it needs
# both running batch jobs preempted: both preemptions are logged before the
# first victim's requeue.
_case("tenants/preemptions-logged-before-kills",
      lambda: dict(config=SimulationConfig(num_jobs=3, policy="speed"), tenants=TWO_CLASS,
                   jobs=[_job(0, 127, 0.0, "batch"), _job(1, 100, 0.0, "batch"),
                         _job(2, 200, 1.0, "premium")],
                   devices=_two_devices()),
      _check_preemptions_logged_first)


def _unknown_tenant():
    jobs = generate_synthetic_jobs(num_jobs=3, seed=1)
    jobs[1].tenant = "nobody"
    return dict(config=SimulationConfig(tenants="free-tier-vs-premium"), jobs=jobs)


_case("tenants/unknown-tenant", _unknown_tenant,
      lambda run: _assert("unknown tenant 'nobody'" in run["error"]))


# -- availability changes made by user code ----------------------------------------
def _availability_job(job_id, num_qubits, arrival_time=0.0):
    return _job(job_id, num_qubits, arrival_time, seed=job_id)


def _graceful_offline():
    def toggle(env):
        device = env.cloud.device("ibm_strasbourg")
        timeline(env, (100.0, lambda: device.set_offline(kill_running=False)),
                 (1_000.0, device.set_online))

    jobs = [_availability_job(0, 100, 0.0), _availability_job(1, 100, 500.0),
            _availability_job(2, 100, 50_000.0)]
    return dict(config=SimulationConfig(num_jobs=3, policy="speed"), devices=_two_devices(),
                jobs=jobs, setup=toggle)


_case("availability/graceful-offline", _graceful_offline)

for _num_qubits, _shape in ((100, "unsplit"), (200, "split")):
    for _checkpointing in (False, True):
        _case(f"availability/user-kill/{_shape}/{_RESTART[_checkpointing]}",
              lambda num_qubits=_num_qubits, checkpointing=_checkpointing: dict(
                  config=SimulationConfig(num_jobs=2, checkpointing=checkpointing),
                  devices=_two_devices(),
                  jobs=[_availability_job(0, num_qubits), _availability_job(1, 60, 0.5)],
                  setup=lambda env: _outage(env, "ibm_strasbourg", 1.0, back_after=50.0)))

_case("availability/failed-attempt-wakes-head",
      lambda: dict(config=SimulationConfig(num_jobs=2, max_requeues=0), devices=_two_devices(),
                   jobs=[_availability_job(0, 200), _availability_job(1, 100, 0.5)],
                   setup=lambda env: _outage(env, "ibm_strasbourg", 1.0)))


def _capacity_signal_wakes_head():
    def recover(env):
        device = env.cloud.devices[0]
        device.set_offline(kill_running=False)

        def back():
            device.set_online()
            env.cloud.signal_capacity_change()

        timeline(env, (100.0, back))

    jobs = [_availability_job(i, 560 + 20 * i, 10.0) for i in range(3)]
    return dict(config=SimulationConfig(num_jobs=3), jobs=jobs, setup=recover)


_case("availability/capacity-signal-wakes-head", _capacity_signal_wakes_head)


def _never_ending_jobs():
    def leave(env):
        def run():
            env.cloud.devices[0].set_offline(kill_running=False)
            env.cloud.devices[1].set_offline(kill_running=False)

        timeline(env, (0.5, run))

    return dict(config=SimulationConfig(num_jobs=4, policy="speed"),
                jobs=[_availability_job(i, 400 + 30 * i) for i in range(4)], setup=leave)


_case("availability/never-ending-jobs", _never_ending_jobs,
      lambda run: _assert("3 job(s) never ended" in run["error"]))


# -- policy bugs stop the run ------------------------------------------------------
class _ShortPlanPolicy(SpeedPolicy):
    """Places one qubit too few on the first planned device."""

    def plan(self, job, devices):
        plan = super().plan(job, devices)
        first = plan.allocations[0]
        return AllocationPlan.from_pairs(
            [(first.device, first.num_qubits - 1)]
            + [(a.device, a.num_qubits) for a in plan.allocations[1:]]
        )


class _OverfullPlanPolicy(SpeedPolicy):
    """Places the whole job on the first device, wider than it is."""

    name = "overfull"

    def plan(self, job, devices):
        return AllocationPlan.from_pairs([(devices[0], job.num_qubits)])


def _broken_policy(policy_type):
    def build():
        devices = [get_device_profile(name, num_qubits=12, quantum_volume=32)
                   for name in ("ibm_strasbourg", "ibm_kyiv")]
        job = QJob(job_id=0, arrival_time=0.0, circuit=CircuitSpec(
            num_qubits=16, depth=6, num_shots=5_000, num_two_qubit_gates=20))
        return dict(devices=devices, jobs=[job], policy=policy_type())
    return build


_case("plan-check/qubit-total", _broken_policy(_ShortPlanPolicy),
      lambda run: _assert("allocated 15 qubits for a job needing 16" in run["error"]))
_case("plan-check/infeasible", _broken_policy(_OverfullPlanPolicy),
      lambda run: _assert("returned an infeasible plan for job 0" in run["error"]))

# The workload ``python -m repro simulate --policy speed -n 8 --seed 4`` runs.
_case("cli/simulate-speed-8-jobs", _config(policy="speed", num_jobs=8, seed=4))


# -- observing and hashing a run ---------------------------------------------------
def observe(name: str) -> Dict[str, Any]:
    """Run case *name* and return its observable output (see the module
    docstring)."""
    build, _ = CASES[name]
    return run_observed(**build())


def run_observed(setup: Optional[Callable] = None, **kwargs: Any) -> Dict[str, Any]:
    """Build ``QCloudSimEnv(**kwargs)``, call *setup* with it, run it and
    return its observable output."""
    env = QCloudSimEnv(**kwargs)
    if setup is not None:
        setup(env)
    error = None
    try:
        env.run_until_complete()
    except (RuntimeError, KeyError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    broker = env.broker
    serve = env.tenant_mix is not None
    run = {
        "records": [r.as_dict() for r in env.records.completed_records],
        "events": [(e.job_id, e.event, e.time, e.detail) for e in env.records.events],
        "failed": [job.job_id for job in broker.failed_jobs],
        "rejected": [job.job_id for job in broker.rejected_jobs] if serve else [],
        "preempted_total": broker.preempted_total if serve else 0,
        "devices": env.device_utilization_report(),
        "now": env.now,
        "adaptive": env.adaptive_report() if env.adaptive_engine is not None else None,
        "tenants": repr(env.tenant_reports()) if serve else None,
        "error": error,
    }
    # Through JSON once, so checks see what the digest hashes (tuples as lists).
    return json.loads(json.dumps(run))


def digest(run: Dict[str, Any]) -> str:
    """The sha256 of *run* as sorted-key JSON."""
    return hashlib.sha256(json.dumps(run, sort_keys=True).encode()).hexdigest()


CORPUS: Dict[str, str] = json.loads(CORPUS_PATH.read_text())


def test_corpus_names_every_case():
    assert sorted(CORPUS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_frozen_digest(name):
    run = observe(name)
    _, check = CASES[name]
    if check is not None:
        check(run)
    assert digest(run) == CORPUS[name]
