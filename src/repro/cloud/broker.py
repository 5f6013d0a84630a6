"""The broker: the unified allocation workflow (paper §5.1, Algorithm 1).

For every incoming job the broker

1. asks the configured allocation policy for a device-selection / partition
   plan based on the *current* fleet state (Algorithm 1, lines 3-5),
2. reserves the planned qubits on each selected device (lines 6-7),
3. launches the sub-jobs in parallel and waits for all of them (line 8),
4. performs the blocking classical communication between dependent sub-jobs
   (lines 10-12),
5. computes the final fidelity with the communication penalty (line 13),
6. releases the qubits and logs completion (line 14).

Jobs are planned one at a time, in dispatch order (FIFO here), so two jobs
never race for the same free qubits.  If no feasible plan exists, the job at
the head of the line waits for the cloud's capacity-released signal and
re-plans.

Non-stationary scenarios (:mod:`repro.dynamics`) extend the workflow: the
broker only plans over *online* devices, and when a device outage kills a
job's in-flight sub-jobs the broker releases every reservation and requeues
the job from the planning step, up to ``max_requeues`` attempts.

Checkpointed preemption (``checkpointing=True``) makes those requeues cheap:
an aborted attempt records how many shots every sub-job completed (the
job-level checkpoint is the *minimum* across fragments — shots are only
usable once every fragment has executed them in lock-step), and the requeued
job re-plans and executes **only the remaining shots**.  The final fidelity
becomes the shot-weighted merge of the per-segment Eq.-8 values, each
segment evaluated on its own device allocation (a resumed attempt may land
on entirely different devices).  With checkpointing off — the default —
every path is byte-identical to full re-execution.

Lifecycle steps
---------------
The event plumbing lives in the dispatch engine,
:class:`~repro.cloud.fastpath.FlatDispatcher`; every job transition is
written here or on the device:

* an :class:`_Attempt` is built from the policy's plan before its qubits
  are reserved: it refuses a misallocated or infeasible plan and takes the
  attempt's one checkpoint decision;
* :meth:`Broker._start_attempt` marks the job ``RUNNING`` and logs
  ``start`` (and ``resume`` for a checkpointed job);
* each sub-job ends in ``IBMQuantumDevice.complete_subjob`` or
  ``IBMQuantumDevice.abort_subjob``;
* :meth:`Broker._complete_attempt` computes the Eq. 8 fidelity, releases
  the qubits, logs ``fidelity`` and ``finish``, and stores and reports the
  :class:`~repro.cloud.records.JobRecord`;
* an aborted attempt ends in :meth:`Broker._abort_attempt`, then
  :meth:`Broker._requeue` or :meth:`Broker._fail`.

The broker's hooks (``submit``, ``dispatch_key``, ``_on_dispatch``,
``_blocked`` and the running-set and requeue hooks) are where a broker
subclass, such as :class:`~repro.serve.ServeBroker`, plugs its policy in.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.cloud.qcloud import QCloud
from repro.cloud.qjob import QJob, QJobStatus
from repro.cloud.records import JobRecord, JobRecordsManager
from repro.des.environment import Environment
from repro.metrics.fidelity import FidelityBreakdown, final_fidelity, merge_segment_fidelities

__all__ = ["Broker"]


class _JobRun:
    """Cross-attempt state of one job's plan/reserve/execute cycles, created
    at its first aborted attempt (:meth:`Broker._abort_attempt`).

    Tracks what today's stateless attempts lose on abort: how often the job
    was requeued, when it first started executing, how much time its
    attempts have consumed, and — under checkpointing — the shots (with
    their fidelity breakdowns) completed by aborted attempts.
    """

    __slots__ = ("retries", "first_start", "service_time", "completed_shots", "segments")

    def __init__(self, first_start: float) -> None:
        #: Requeues so far (outage kills and preemptions).
        self.retries = 0
        #: Simulation time the first execution attempt started.
        self.first_start = first_start
        #: Cumulative time spent in execution attempts (aborted attempts'
        #: elapsed wall-clock plus the completing attempt, comm included).
        self.service_time = 0.0
        #: Shots completed and checkpointed by aborted attempts.
        self.completed_shots = 0
        #: One ``(shots, breakdowns)`` pair per checkpointed attempt.
        self.segments: List[Tuple[int, List[FidelityBreakdown]]] = []

    def merged_fidelity(
        self, shots: int, breakdowns: List[FidelityBreakdown], phi: float
    ) -> Tuple[float, List[FidelityBreakdown]]:
        """Final fidelity and breakdowns of a job whose last attempt ran
        *shots* shots on *breakdowns*: the shot-weighted Eq.-8 merge over
        the checkpointed segments plus that attempt."""
        segments = self.segments + [(shots, breakdowns)]
        fidelity = merge_segment_fidelities(
            [(n, [b.device for b in bds]) for n, bds in segments], phi=phi
        )
        return fidelity, [b for _, bds in segments for b in bds]


class _Attempt:
    """One execution attempt of a dispatched job: what the engine starts,
    aborts and completes through the broker's lifecycle steps.

    Built from the job (a :class:`QJob`, or the engine's row view of a
    streaming table) and its policy's plan, before the plan's qubits are
    reserved: the constructor refuses a plan that does not allocate exactly
    the job's qubits or does not fit the fleet right now (a policy bug), and
    takes the attempt's one checkpoint decision.  The engine fills in
    :attr:`durations` and :attr:`breakdowns` as the sub-jobs run, and
    :attr:`comm_delay` once they have all finished.
    """

    __slots__ = (
        "job_id",
        "qubits",
        "depth",
        "shots",
        "arrival",
        "start",
        "plan",
        "allocations",
        "device_names",
        "qubit_counts",
        "durations",
        "breakdowns",
        "comm_delay",
        "run",
        "attempt_shots",
        "checkpoint",
    )

    def __init__(self, broker: "Broker", job: Any, plan: Any, run: Optional[_JobRun]) -> None:
        qubits = job.num_qubits
        allocations = plan.allocations
        # One pass over the allocations checks the plan and collects its
        # device names and qubit counts.
        names = []
        counts = []
        total = 0
        feasible = True
        for a in allocations:
            device = a.device
            n = a.num_qubits
            names.append(device.name)
            counts.append(n)
            total += n
            if device.free_qubits < n:
                feasible = False
        if total != qubits:
            raise RuntimeError(
                f"policy {broker.policy.name!r} allocated {total} qubits "
                f"for a job needing {qubits}"
            )
        if not feasible:
            raise RuntimeError(
                f"policy {broker.policy.name!r} returned an infeasible plan for job {job.job_id}"
            )
        self.job_id = job.job_id
        self.qubits = qubits
        self.depth = job.depth
        self.shots = shots = job.num_shots
        self.arrival = job.arrival_time
        # ``_now`` rather than the ``now`` property: one attempt is built
        # per dispatch.
        self.start = broker.env._now
        self.plan = plan
        self.allocations = allocations
        self.device_names = names
        self.qubit_counts = counts
        k = len(allocations)
        #: Per-sub-job durations and fidelity breakdowns, by allocation.
        self.durations: List[float] = [0.0] * k
        self.breakdowns: List[Any] = [None] * k
        self.comm_delay = 0.0
        #: Cross-attempt state; ``None`` until the job's first abort.
        self.run = run
        #: Shots this attempt executes (a resume runs only the remainder).
        self.attempt_shots = shots if run is None else shots - run.completed_shots
        # Resolved once per attempt so the decision stays consistent between
        # launch and a mid-attempt abort even if the policy flips meanwhile.
        adaptive = broker.adaptive
        self.checkpoint = (
            broker.checkpointing if adaptive is None else adaptive.checkpoint(job)
        )


class Broker:
    """Mediates between job requests and quantum devices.

    Parameters
    ----------
    env:
        Simulation environment.
    cloud:
        The device fleet.
    policy:
        An allocation policy (anything exposing ``plan(job, devices)`` and a
        ``name`` attribute — see :class:`repro.scheduling.base.AllocationPolicy`).
    records:
        Job records manager used for life-cycle logging.
    max_plan_attempts:
        Safety valve: a job fails after this many unsuccessful re-planning
        rounds (prevents infinite waits for jobs that can never fit).
    max_requeues:
        Safety valve: a job fails after this many outage-triggered requeues.
    checkpointing:
        Save each aborted attempt's completed shots and resume requeued jobs
        with only the remainder (shot-weighted fidelity merge across
        attempts).  Off by default: requeued jobs re-execute from scratch,
        byte-identical to the historical behaviour.
    """

    #: Order of the jobs waiting for the dispatch floor: ``None`` is FIFO; a
    #: broker with its own order defines ``dispatch_key(job)``, the job's
    #: sort key (unique per job), and reads :attr:`waiting_line`.
    dispatch_key: Optional[Callable[[QJob], Any]] = None

    def __init__(
        self,
        env: Environment,
        cloud: QCloud,
        policy: Any,
        records: JobRecordsManager,
        max_plan_attempts: int = 100_000,
        max_requeues: int = 100,
        checkpointing: bool = False,
    ) -> None:
        if not hasattr(policy, "plan"):
            raise TypeError("policy must expose a plan(job, devices) method")
        self.env = env
        self.cloud = cloud
        self.policy = policy
        self.records = records
        self.max_plan_attempts = int(max_plan_attempts)
        self.max_requeues = int(max_requeues)
        self.checkpointing = bool(checkpointing)
        #: Jobs of the workload not yet ended (completed, failed or rejected);
        #: set by :meth:`expect`, counted down by each job's single end point.
        self.unended = 0
        #: Succeeds when the last expected job ends.
        self.all_ended = env.event()
        #: Jobs that could never be allocated.
        self.failed_jobs: List[QJob] = []
        #: The adaptive control plane (an ``AdaptiveEngine``, attached by its
        #: ``install()``): fed job reports, asked for checkpoint decisions.
        self.adaptive: Optional[Any] = None
        #: For a broker with a :attr:`dispatch_key`: the engine's line of
        #: jobs waiting for the dispatch floor, set by the engine.  Its ``best_waiting_key`` is the smallest key behind
        #: the floor holder (``None`` when nobody waits).
        self.waiting_line: Optional[Any] = None

    # -- public API ---------------------------------------------------------------
    def submit(self, job: QJob) -> bool:
        """Admit an arriving job.

        Marks *job* queued and reports it; returns whether it was admitted
        (always, here).  The engine then queues an admitted job for
        dispatch.
        """
        job.status = QJobStatus.QUEUED
        if self.adaptive is not None:
            self.adaptive.signals.on_submit(job.tenant, True)
        return True

    def expect(self, num_jobs: int) -> None:
        """Set the workload size: :attr:`all_ended` succeeds once *num_jobs*
        jobs have ended (at once for an empty workload)."""
        self.unended = num_jobs
        if num_jobs == 0:
            self.all_ended.succeed()

    def _ended(self) -> None:
        """Count down one job's end: its completion, failure or rejection."""
        self.unended -= 1
        if self.unended == 0:
            self.all_ended.succeed()

    # -- dispatch hooks (the engine calls them; the serve broker's tenant
    # policy plugs in here) -------------------------------------------------------
    def _on_dispatch(self, job: QJob) -> None:
        """Called each time *job* is granted the dispatch floor."""

    def _blocked(self, job: QJob) -> Optional[Any]:
        """The event a floor holder with no feasible plan waits on before
        re-planning, or ``None`` to give the floor up."""
        return self.cloud.capacity_released

    # -- attempt lifecycle (job=None for a streaming table's rows) -----------------
    def _start_attempt(self, job: Optional[QJob], attempt: _Attempt) -> None:
        """Mark *job* running and log the attempt's start, plus its resume
        when earlier attempts checkpointed shots."""
        if job is not None:
            job.status = QJobStatus.RUNNING
        records = self.records
        # Streaming managers discard event details: skip formatting them.
        keep = records.KEEPS_EVENT_DETAIL
        records.log_event(
            attempt.job_id, "start", attempt.start,
            ",".join(attempt.device_names) if keep else None,
        )
        run = attempt.run
        if run is not None and run.completed_shots:
            records.log_resume(
                attempt.job_id,
                attempt.start,
                f"{attempt.attempt_shots}/{attempt.shots} shots remaining" if keep else None,
            )

    def _complete_attempt(self, job: Optional[QJob], attempt: _Attempt) -> JobRecord:
        """Complete the job of an attempt whose sub-jobs (and communication)
        have all finished: Eq. 8 fidelity, shot-weighted across checkpoint
        segments, then release its qubits, log the completion, store and
        report its record.  The engine then signals the released capacity
        and counts the job's end."""
        run = attempt.run
        breakdowns = attempt.breakdowns
        if run is not None and run.segments:
            fidelity, breakdowns = run.merged_fidelity(
                attempt.attempt_shots, breakdowns, self.cloud.communication.fidelity_penalty
            )
        elif len(breakdowns) == 1:
            # Single device: Eq. 8 collapses to the device fidelity itself
            # (``mean([f]) == 0.0 + f`` and ``phi**0 == 1.0`` are both exact),
            # so skip the general kernel on the hot path.
            b = breakdowns[0]
            fidelity = b.single_qubit * b.two_qubit * b.readout
        else:
            fidelity = final_fidelity(
                [b.device for b in breakdowns], phi=self.cloud.communication.fidelity_penalty
            )

        if job is not None:
            self._unregister_running(job)
        for alloc in attempt.allocations:
            alloc.device.release_qubits(alloc.num_qubits)
        finish = self.env._now
        if job is not None:
            job.status = QJobStatus.COMPLETED
        job_id = attempt.job_id
        records = self.records
        records.log_event(
            job_id, "fidelity", finish, f"{fidelity:.6f}" if records.KEEPS_EVENT_DETAIL else None
        )
        records.log_event(job_id, "finish", finish)
        start = attempt.start
        if run is None:
            retries, first_start, service_time, resumed_shots = 0, start, finish - start, 0
        else:
            run.service_time += finish - start
            retries, first_start, service_time, resumed_shots = (
                run.retries, run.first_start, run.service_time, run.completed_shots
            )
        record = JobRecord(
            job_id=job_id,
            num_qubits=attempt.qubits,
            depth=attempt.depth,
            num_shots=attempt.shots,
            arrival_time=attempt.arrival,
            start_time=start,
            finish_time=finish,
            fidelity=fidelity,
            communication_time=attempt.comm_delay,
            num_devices=len(attempt.allocations),
            devices=attempt.device_names,
            allocation=attempt.qubit_counts,
            processing_time=max(attempt.durations),
            breakdowns=breakdowns,
            retries=retries,
            tenant=job.tenant if job is not None else None,
            first_start_time=first_start,
            service_time=service_time,
            resumed_shots=resumed_shots,
        )
        records.add_record(record)
        if self.adaptive is not None:
            self.adaptive.signals.on_completed(record)
        self.cloud.jobs_completed += 1
        return record

    def _abort_attempt(self, attempt: _Attempt, completed: int) -> _JobRun:
        """End an attempt an outage or preemption aborted: charge its time,
        checkpoint its *completed* shots (the minimum over its sub-jobs —
        shots are usable only once *every* fragment has executed them, in
        lock-step; always 0 without checkpointing) with the attempt's
        per-fragment breakdowns, and release its qubits.  Returns the job's
        cross-attempt state, created (as ``attempt.run``) at its first abort."""
        run = attempt.run
        if run is None:
            run = attempt.run = _JobRun(attempt.start)
        run.service_time += self.env.now - attempt.start
        if completed > 0:
            run.completed_shots += completed
            run.segments.append((completed, attempt.breakdowns))
            self.records.log_checkpoint(
                attempt.job_id,
                self.env.now,
                detail=f"{run.completed_shots}/{attempt.shots} shots",
            )
        for alloc in attempt.allocations:
            alloc.device.release_qubits(alloc.num_qubits)
        return run

    def _requeue(self, job: QJob, run: _JobRun) -> bool:
        """Count an aborted attempt against the starvation guard: fail *job*
        at ``max_requeues`` (returns ``False``), else mark it queued for a
        re-plan (returns ``True``)."""
        run.retries += 1
        if run.retries > self.max_requeues:
            self._fail(
                job, f"exceeded requeue limit ({self.max_requeues}) after outages/preemptions"
            )
            return False
        job.status = QJobStatus.QUEUED
        self._note_requeued(job, run.retries)
        return True

    def _fail(self, job: QJob, reason: str) -> None:
        """Terminally fail *job*: log *reason* and report the failure."""
        job.status = QJobStatus.FAILED
        self.failed_jobs.append(job)
        self.records.log_failure(job.job_id, self.env.now, reason)
        self._note_failed(job)
        if self.adaptive is not None:
            self.adaptive.signals.on_failed(job.tenant)
        self._ended()

    # -- life-cycle hooks (no-ops here; the serve broker keeps its tenant and
    # preemption bookkeeping in sync by overriding them; the engine calls them) ---
    def _register_running(self, job: QJob, plan: Any, kill_entries: List[Any]) -> None:
        """Called when a job's sub-jobs have been launched.  Each of
        *kill_entries* is one sub-job's kill-list entry, exposing
        ``is_alive`` and ``interrupt(cause)``."""

    def _unregister_running(self, job: QJob) -> None:
        """Called when a job's sub-jobs have finished or aborted."""

    def _note_requeued(self, job: QJob, retries: int) -> None:
        """Called when an aborted job re-enters the planning queue."""
        self.records.log_requeue(job.job_id, self.env.now, detail=f"attempt {retries}")

    def _note_failed(self, job: QJob) -> None:
        """Called when a job terminally fails (after the failure is logged)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} policy={getattr(self.policy, 'name', '?')!r}>"

