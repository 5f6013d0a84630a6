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

Planning and reservation happen inside a FIFO admission critical section so
that concurrent jobs never race for the same free qubits (which would make
plans infeasible or deadlock the reservation step).  If no feasible plan
exists at admission time the broker waits for the cloud's capacity-released
signal and re-plans.

Non-stationary scenarios (:mod:`repro.dynamics`) extend the workflow: the
broker only plans over *online* devices, and when a device outage kills a
job's in-flight sub-jobs (they come back ``aborted``) the broker releases
every reservation, signals the freed capacity and requeues the job from the
planning step, up to ``max_requeues`` attempts.

Checkpointed preemption (``checkpointing=True``) makes those requeues cheap:
an aborted attempt records how many shots every sub-job completed (the
job-level checkpoint is the *minimum* across fragments — shots are only
usable once every fragment has executed them in lock-step), and the requeued
job re-plans and executes **only the remaining shots**.  The final fidelity
becomes the shot-weighted merge of the per-segment Eq.-8 values, each
segment evaluated on its own device allocation (a resumed attempt may land
on entirely different devices).  With checkpointing off — the default —
every path is byte-identical to full re-execution.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.cloud.qcloud import QCloud
from repro.cloud.qdevice import IBMQuantumDevice, SubJobResult
from repro.cloud.qjob import QJob, QJobStatus
from repro.cloud.records import JobRecord, JobRecordsManager
from repro.des.environment import Environment
from repro.metrics.fidelity import FidelityBreakdown, final_fidelity, merge_segment_fidelities

__all__ = ["Broker"]


class _JobRun:
    """Cross-attempt state of one job's plan/reserve/execute cycles.

    Tracks what today's stateless attempts lose on abort: how often the job
    was requeued, when it first started executing, how much time its
    attempts have consumed, and — under checkpointing — the shots (with
    their fidelity breakdowns) completed by aborted attempts.
    """

    __slots__ = ("retries", "first_start", "service_time", "completed_shots", "segments")

    def __init__(self) -> None:
        #: Requeues so far (outage kills and preemptions).
        self.retries = 0
        #: Simulation time the first execution attempt started (None = never).
        self.first_start: Optional[float] = None
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
        #: jobs waiting for the dispatch floor, set by the engine that runs
        #: the broker.  Its ``best_waiting_key`` is the smallest key behind
        #: the floor holder (``None`` when nobody waits).
        self.waiting_line: Optional[Any] = None

    # -- public API ---------------------------------------------------------------
    def submit(self, job: QJob) -> bool:
        """Admit an arriving job: the one admission step of both engines.

        Marks *job* queued and reports it; returns whether it was admitted
        (always, here).  The engine then queues an admitted job for
        dispatch: the per-job engine starts its :meth:`_handle_job` process.
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

    # -- Algorithm 1 -----------------------------------------------------------------
    def _handle_job(self, job: QJob) -> Generator[object, object, Optional[JobRecord]]:
        """DES process implementing the unified allocation workflow for one job.

        The plan/reserve/execute cycle repeats when a device outage aborts
        the job's sub-jobs mid-flight: reservations are released and the job
        re-enters planning (counted in the completed record's ``retries``).
        """
        if not self.cloud.can_ever_fit(job.num_qubits):
            self._fail(job, "exceeds total cloud capacity")
            return None

        run = _JobRun()
        while True:
            plan = yield from self._plan_and_reserve(job)
            if plan is None:
                return None  # permanently failed (logged inside)
            record = yield from self._execute_plan(job, plan, run)
            if record is not None:
                return record
            if not self._requeue(job, run):
                return None

    def _plan_and_reserve(self, job: QJob) -> Generator[object, object, Optional[Any]]:
        """Plan the job over the online fleet and reserve the planned qubits
        while holding the dispatch floor; ``None`` means the job failed."""
        attempts = 0
        while True:
            with self._dispatch_request(job) as request:
                yield request
                self._on_dispatch(job)
                while True:
                    plan = self.policy.plan(job, self.cloud.online_devices)
                    if plan is not None:
                        if plan.total_qubits != job.num_qubits:
                            raise RuntimeError(
                                f"policy {self.policy.name!r} allocated {plan.total_qubits} "
                                f"qubits for a job needing {job.num_qubits}"
                            )
                        if not plan.is_feasible_now():
                            raise RuntimeError(
                                f"policy {self.policy.name!r} returned an infeasible plan "
                                f"for job {job.job_id}"
                            )
                        # The plan is feasible right now and we still hold
                        # the floor, so every reservation succeeds at once.
                        for alloc in plan.allocations:
                            alloc.device.reserve_qubits(alloc.num_qubits)
                        return plan
                    attempts += 1
                    if attempts >= self.max_plan_attempts:
                        self._fail(job, "no feasible allocation")
                        return None
                    blocked = self._blocked(job)
                    if blocked is None:
                        break  # give the floor up, then request it again
                    yield blocked

    # -- dispatch hooks (the serve broker's tenant-aware queue plugs in here;
    # the flat engine calls _on_dispatch and _blocked too) ------------------------
    def _dispatch_request(self, job: QJob) -> Any:
        """The request that grants *job* the dispatch floor (FIFO here)."""
        return self.cloud.admission.request()

    def _on_dispatch(self, job: QJob) -> None:
        """Called each time *job* is granted the dispatch floor."""

    def _blocked(self, job: QJob) -> Optional[Any]:
        """The event a floor holder with no feasible plan waits on before
        re-planning, or ``None`` to give the floor up."""
        return self.cloud.capacity_released

    def _execute_plan(
        self, job: QJob, plan: Any, run: _JobRun
    ) -> Generator[object, object, Optional[JobRecord]]:
        """Execute a reserved plan; ``None`` means an outage or preemption
        aborted it (the reservations have been released and the job should be
        requeued).  *run* carries the job's cross-attempt state: timing
        attribution always, checkpointed shots when checkpointing is on."""
        start_time = self.env.now
        if run.first_start is None:
            run.first_start = start_time
        job.status = QJobStatus.RUNNING
        self.records.log_start(
            job.job_id, start_time, detail=",".join(plan.device_names)
        )

        # Under checkpointing a resumed attempt executes only the shots its
        # aborted predecessors did not complete.
        remaining_shots = job.num_shots - run.completed_shots
        circuit = job.circuit
        if run.completed_shots > 0:
            self.records.log_resume(
                job.job_id,
                start_time,
                detail=f"{remaining_shots}/{job.num_shots} shots remaining",
            )
            circuit = circuit.with_shots(remaining_shots)

        fragments = [
            circuit.subcircuit(alloc.num_qubits, name=f"{job.circuit.name}@{alloc.device.name}")
            for alloc in plan.allocations
        ]
        # Resolved once per attempt so the decision stays consistent between
        # launch and a mid-attempt abort even if the policy flips meanwhile.
        checkpointing = (
            self.checkpointing if self.adaptive is None else self.adaptive.checkpoint(job)
        )
        sub_processes = [
            self.env.process(
                alloc.device.execute(
                    fragment, plan.num_devices, job.num_qubits,
                    checkpoint=checkpointing,
                )
            )
            for alloc, fragment in zip(plan.allocations, fragments)
        ]
        self._register_running(job, plan, sub_processes)
        results_map = yield self.env.all_of(sub_processes)
        results: List[SubJobResult] = [results_map[p] for p in sub_processes]

        if any(result.aborted for result in results):
            self._unregister_running(job)
            self._abort_attempt(
                job.job_id,
                job.num_shots,
                run,
                start_time,
                plan.allocations,
                min(result.completed_shots for result in results),
                [r.fidelity_breakdown for r in results],
            )
            self.cloud.signal_capacity_change()
            return None

        # -- inter-device classical communication ------------------------------------
        comm_delay = self.cloud.communication.communication_delay(plan.qubit_counts)
        if comm_delay > 0:
            job.status = QJobStatus.COMMUNICATING
            yield self.env.timeout(comm_delay)

        # -- final fidelity (Eq. 8; shot-weighted across checkpoint segments) -----------
        phi = self.cloud.communication.fidelity_penalty
        breakdowns = [r.fidelity_breakdown for r in results]
        if run.segments:
            fidelity, breakdowns = run.merged_fidelity(remaining_shots, breakdowns, phi)
        else:
            fidelity = final_fidelity([b.device for b in breakdowns], phi=phi)

        # -- release qubits & log completion --------------------------------------------
        self._unregister_running(job)
        for alloc in plan.allocations:
            alloc.device.release_qubits(alloc.num_qubits)
        finish_time = self.env.now
        run.service_time += finish_time - start_time
        job.status = QJobStatus.COMPLETED
        self.records.log_fidelity(job.job_id, finish_time, fidelity)
        self.records.log_finish(job.job_id, finish_time)

        record = JobRecord(
            job_id=job.job_id,
            num_qubits=job.num_qubits,
            depth=job.depth,
            num_shots=job.num_shots,
            arrival_time=job.arrival_time,
            start_time=start_time,
            finish_time=finish_time,
            fidelity=fidelity,
            communication_time=comm_delay,
            num_devices=plan.num_devices,
            devices=plan.device_names,
            allocation=plan.qubit_counts,
            processing_time=max(r.processing_time for r in results),
            breakdowns=breakdowns,
            retries=run.retries,
            tenant=job.tenant,
            first_start_time=run.first_start,
            service_time=run.service_time,
            resumed_shots=run.completed_shots,
        )
        self.records.add_record(record)
        if self.adaptive is not None:
            self.adaptive.signals.on_completed(record)
        self.cloud.notify_capacity_released()
        self._ended()
        return record

    # -- aborted attempts (shared with the flat engine) ------------------------------
    def _abort_attempt(
        self,
        job_id: int,
        num_shots: int,
        run: _JobRun,
        start_time: float,
        allocations: List[Any],
        completed: int,
        breakdowns: List[Optional[FidelityBreakdown]],
    ) -> None:
        """End an attempt an outage or preemption aborted: charge its time,
        checkpoint its *completed* shots (the minimum over its sub-jobs —
        shots are usable only once *every* fragment has executed them, in
        lock-step; always 0 without checkpointing) with their per-fragment
        *breakdowns*, and release its qubits."""
        run.service_time += self.env.now - start_time
        if completed > 0:
            run.completed_shots += completed
            run.segments.append((completed, breakdowns))
            self.records.log_checkpoint(
                job_id, self.env.now, detail=f"{run.completed_shots}/{num_shots} shots"
            )
        for alloc in allocations:
            alloc.device.release_qubits(alloc.num_qubits)

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
    # preemption bookkeeping in sync by overriding them; both engines call them) ---
    def _register_running(self, job: QJob, plan: Any, sub_processes: List[Any]) -> None:
        """Called when a job's sub-jobs have been launched.  Each entry of
        *sub_processes* exposes ``is_alive`` and ``interrupt(cause)``: a
        :class:`~repro.des.events.Process` here, a kill-list entry on the
        flat engine."""

    def _unregister_running(self, job: QJob) -> None:
        """Called when a job's sub-jobs have finished or aborted."""

    def _note_requeued(self, job: QJob, retries: int) -> None:
        """Called when an aborted job re-enters the planning queue."""
        self.records.log_requeue(job.job_id, self.env.now, detail=f"attempt {retries}")

    def _note_failed(self, job: QJob) -> None:
        """Called when a job terminally fails (after the failure is logged)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} policy={getattr(self.policy, 'name', '?')!r}>"

