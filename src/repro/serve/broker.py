"""The serve broker: tenant-aware dispatch, fair-share ordering, preemption.

:class:`ServeBroker` extends the paper's :class:`~repro.cloud.broker.Broker`
with the demand-side machinery of a multi-tenant cloud:

* **admission control** — every submission passes the per-tenant token
  bucket / queue cap of :class:`~repro.serve.admission.AdmissionController`;
  shed jobs get a ``rejected`` record event and never touch the fleet,
* **tenant-aware dispatch** — the plain broker's FIFO line is replaced by a
  dispatch order ``(priority class, weighted-fair virtual finish tag, job
  priority, submission order)``.  Tenants of the same class share capacity
  in proportion to their weights (start-time fair queueing over qubit
  demand); smaller priority classes dispatch first,
* **cross-class overtaking** — when the job at the head of the queue cannot
  fit and a strictly more important class is waiting, the head yields its
  turn instead of head-of-line-blocking the premium job (the plain broker's
  convoy behaviour is preserved within a class),
* **deadline-driven preemption** — once a job has waited past its tenant's
  queueing-delay SLO, the broker aborts the sub-jobs of strictly
  lower-priority running jobs (re-using the outage abort/release/requeue
  machinery of :mod:`repro.dynamics`) until the deadline-missing job fits.
  Victims are requeued and count the preemption against the shared
  ``max_requeues`` starvation guard.

All of it is tenant policy plugged into the plain broker's hooks; the
dispatch engine (:mod:`repro.cloud.fastpath`) keeps its pending line in this
broker's key order.

With a single-class mix every one of these paths degenerates to the plain
broker's behaviour: the dispatch keys are monotone in submission order, the
floor is never yielded, nothing is preempted and (with the ``single``
preset) nothing is rejected — runs are byte-identical to the pre-serve
broker, which the regression tests assert across all four paper policies.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from repro.cloud.broker import Broker
from repro.cloud.qcloud import QCloud
from repro.cloud.qjob import QJob, QJobStatus
from repro.cloud.records import JobRecordsManager
from repro.cloud.records_stream import StreamingRecordsManager
from repro.des.environment import Environment
from repro.serve.admission import AdmissionController
from repro.serve.tenant import TenantMix, TenantSpec

__all__ = ["ServeBroker"]

class _JobEntry:
    """Per-job dispatch state tracked by the serve broker."""

    __slots__ = (
        "job",
        "tenant",
        "seq",
        "start_tag",
        "finish_tag",
        "occupies_queue_slot",
    )

    def __init__(self, job: QJob, tenant: TenantSpec, seq: int) -> None:
        self.job = job
        self.tenant = tenant
        self.seq = seq
        self.start_tag = 0.0
        self.finish_tag = 0.0
        #: Whether the job currently counts against its tenant's queue cap.
        self.occupies_queue_slot = False

    @property
    def class_rank(self) -> int:
        return self.tenant.priority_class

    @property
    def key(self) -> Tuple[int, float, int, int]:
        """Dispatch ordering: class, fair-share tag, job priority, submission."""
        return (self.class_rank, self.finish_tag, self.job.priority, self.seq)


class _RunningInfo:
    """A running job's plan and sub-jobs (the preemption target set).

    *kill_entries* are the sub-jobs' kill-list entries, each with
    ``is_alive`` and ``interrupt(cause)``.
    """

    __slots__ = ("job", "plan", "kill_entries", "class_rank", "started_at")

    def __init__(
        self, job: QJob, plan: Any, kill_entries: List[Any], class_rank: int, started_at: float
    ) -> None:
        self.job = job
        self.plan = plan
        self.kill_entries = kill_entries
        self.class_rank = class_rank
        self.started_at = started_at


class ServeBroker(Broker):
    """A :class:`~repro.cloud.broker.Broker` serving a multi-tenant mix.

    The serve layer is a configuration of the plain broker, not an engine:
    it plugs into the hooks the engine calls — admission in ``submit``,
    the dispatch order (``dispatch_key``, read by the engine's waiting
    line), ``_on_dispatch`` (the fair-share virtual clock), ``_blocked``
    (floor yielding, preemption and the capacity wait) and the life-cycle
    hooks (running set, requeue re-tags, queue-slot release on failure).

    Parameters
    ----------
    env, cloud, policy, records:
        As for the plain broker.
    tenants:
        The :class:`~repro.serve.tenant.TenantMix` (or registered mix name)
        describing the demand side.
    max_plan_attempts, max_requeues:
        Safety valves inherited from the plain broker; preemptions count
        against ``max_requeues`` exactly like outage kills.
    checkpointing:
        Checkpointed preemption (inherited): preemption and outage victims
        save their completed shots and resume with only the remainder — a
        preempted job no longer pays for its lost attempt twice.
    """

    def __init__(
        self,
        env: Environment,
        cloud: QCloud,
        policy: Any,
        records: JobRecordsManager,
        tenants: Union[TenantMix, str],
        max_plan_attempts: int = 100_000,
        max_requeues: int = 100,
        checkpointing: bool = False,
    ) -> None:
        super().__init__(
            env,
            cloud,
            policy,
            records,
            max_plan_attempts=max_plan_attempts,
            max_requeues=max_requeues,
            checkpointing=checkpointing,
        )
        from repro.serve.presets import resolve_tenant_mix

        self.mix = resolve_tenant_mix(tenants)
        self.admission_controller = AdmissionController(self.mix)
        #: Jobs shed by admission control.
        self.rejected_jobs: List[QJob] = []
        #: Total preemption events issued.
        self.preempted_total = 0
        #: Preemption events per victim tenant (streaming reports read this:
        #: a streaming records manager keeps no event log to count from).
        self.preempted_by_tenant: Dict[str, int] = {t.name: 0 for t in self.mix.tenants}
        #: Tenant attribution of every submitted job (admitted or rejected).
        self.tenant_of: Dict[int, str] = {}

        self._entries: Dict[int, _JobEntry] = {}
        self._running: Dict[int, _RunningInfo] = {}
        self._multiclass = self.mix.is_multiclass
        self._seq = 0
        #: Start-time-fair-queueing state: global virtual clock plus one
        #: virtual finish time per tenant.
        self._vclock = 0.0
        self._tenant_vft: Dict[str, float] = {t.name: 0.0 for t in self.mix.tenants}
        #: The floor-holding entry currently parked on a capacity wait, plus
        #: its nudge event (so premium arrivals can wake it to yield).
        self._floor_wait: Optional[Tuple[_JobEntry, Any]] = None

    # -- submission -----------------------------------------------------------------
    def submit(self, job: QJob) -> bool:
        """Admission-check *job*, give it its dispatch key and report
        whether it was admitted.

        Untagged jobs are stamped with the mix's default tenant; a job tagged
        with a tenant the mix does not know is an error (silently
        re-attributing it would corrupt the SLO accounting).  A rejected job
        ends at once and returns ``False``.
        """
        if job.tenant is None:
            job.tenant = self.mix.default_tenant.name
        elif job.tenant not in self._tenant_vft:
            raise KeyError(
                f"job {job.job_id} is tagged for unknown tenant {job.tenant!r}; "
                f"mix {self.mix.name!r} serves {list(self._tenant_vft)}"
            )
        tenant = self.mix.tenant(job.tenant)
        self.tenant_of[job.job_id] = job.tenant

        decision = self.admission_controller.admit(job.tenant, self.env.now)
        if not decision.admitted:
            job.status = QJobStatus.REJECTED
            self.rejected_jobs.append(job)
            self.records.log_rejection(
                job.job_id, self.env.now, reason=f"{job.tenant}:{decision.reason}"
            )
            if self.adaptive is not None:
                self.adaptive.signals.on_submit(job.tenant, False)
            self._ended()
            return False

        entry = _JobEntry(job, tenant, self._seq)
        self._seq += 1
        entry.occupies_queue_slot = True
        # Start-time fair queueing: the job's virtual span is its qubit
        # demand scaled by its tenant's weight.
        entry.start_tag = max(self._vclock, self._tenant_vft[job.tenant])
        entry.finish_tag = entry.start_tag + job.num_qubits / tenant.weight
        self._tenant_vft[job.tenant] = entry.finish_tag
        self._entries[job.job_id] = entry

        self._nudge_floor_holder(entry)
        return super().submit(job)

    # -- tenant-aware dispatch ---------------------------------------------------------
    def dispatch_key(self, job: QJob) -> Tuple[int, float, int, int]:
        """The order of *job* in the waiting line (see :attr:`_JobEntry.key`)."""
        return self._entries[job.job_id].key

    def _on_dispatch(self, job: QJob) -> None:
        """Advance the fair-share virtual clock to the granted job's tag."""
        self._vclock = max(self._vclock, self._entries[job.job_id].start_tag)

    def _blocked(self, job: QJob) -> Optional[Any]:
        """Yield the floor to a more important class, else preempt if the
        job's deadline has passed and wait for capacity.

        After yielding, the job requests its turn again at once: its fair
        tag keeps its place in line, and waiting for a capacity signal
        instead would idle it on free qubits until some other job completes.
        Both transitions are unreachable in single-class mixes.
        """
        entry = self._entries[job.job_id]
        if self._should_yield_floor(entry):
            return None
        self._maybe_preempt_for(job, entry)
        return self._capacity_wait(entry)

    def _should_yield_floor(self, entry: _JobEntry) -> bool:
        """Whether a strictly more important class is waiting behind *entry*."""
        if not self._multiclass:
            return False
        key = self.waiting_line.best_waiting_key
        return key is not None and key[0] < entry.class_rank

    def _capacity_wait(self, entry: _JobEntry) -> Any:
        """The event a blocked floor holder waits on before re-planning.

        Single-class mixes wait on the raw capacity-released signal exactly
        like the plain broker.  Multi-class floor holders additionally wait
        on a *nudge* event (so a premium arrival can wake them to yield) and
        on their queueing-SLO deadline (so the preemption check runs the
        moment the deadline expires, not at the next capacity change).
        """
        capacity = self.cloud.capacity_released
        if not self._multiclass:
            return capacity
        nudge = self.env.event()
        self._floor_wait = (entry, nudge)
        signals = [capacity, nudge]
        deadline = entry.tenant.slo.queue_deadline
        if deadline is not None:
            wake_at = entry.job.arrival_time + deadline
            if wake_at > self.env.now:
                signals.append(self.env.timeout_at(wake_at))
        # The first signal to fire succeeds the wake event (one more heap
        # event), whose callback detaches the wait from the others.
        wake = self.env.event()

        def _fire(_event: Any) -> None:
            if not wake.triggered:
                wake.succeed()

        def _clear(_event: Any) -> None:
            for signal in signals:
                if signal.callbacks is not None and _fire in signal.callbacks:
                    signal.callbacks.remove(_fire)
            if self._floor_wait is not None and self._floor_wait[1] is nudge:
                self._floor_wait = None

        for signal in signals:
            signal.callbacks.append(_fire)
        wake.callbacks.append(_clear)
        return wake

    def _nudge_floor_holder(self, entry: _JobEntry) -> None:
        """Wake a parked floor holder outranked by the newly-admitted *entry*."""
        if self._floor_wait is None:
            return
        holder, nudge = self._floor_wait
        if entry.class_rank < holder.class_rank and not nudge.triggered:
            self._floor_wait = None
            nudge.succeed()

    # -- deadline-driven preemption ---------------------------------------------------
    def _maybe_preempt_for(self, job: QJob, entry: _JobEntry) -> None:
        """Preempt lower-class running jobs once *job* misses its queue SLO.

        Only fires when (a) the mix is multi-class, (b) the tenant promises a
        queueing-delay deadline that has already passed, and (c) aborting a
        set of strictly lower-priority running jobs would actually free
        enough online qubits for *job* to fit.  Victims' sub-jobs are
        interrupted; the outage machinery releases their reservations and
        requeues them.  Every preemption is logged before the first
        interrupt, because the engine ends a victim at once.
        """
        deadline = entry.tenant.slo.queue_deadline
        if not self._multiclass or deadline is None:
            return
        if self.env.now < job.arrival_time + deadline:
            return
        free = sum(d.free_qubits for d in self.cloud.online_devices)
        need = job.num_qubits - free
        if need <= 0:
            return  # already fits capacity-wise; the policy will place it

        victims: List[Tuple[Tuple[int, float, int], _RunningInfo, int]] = []
        for info in self._running.values():
            if info.class_rank <= entry.class_rank:
                continue
            if not any(kill_entry.is_alive for kill_entry in info.kill_entries):
                continue  # nothing left to reclaim
            reclaim = sum(
                alloc.num_qubits for alloc in info.plan.allocations if alloc.device.online
            )
            if reclaim <= 0:
                continue
            order = (-info.class_rank, -info.started_at, -info.job.job_id)
            victims.append((order, info, reclaim))

        victims.sort(key=lambda v: v[0])
        chosen: List[_RunningInfo] = []
        reclaimed = 0
        for _, info, reclaim in victims:
            chosen.append(info)
            reclaimed += reclaim
            if reclaimed >= need:
                break
        if reclaimed < need:
            return  # preemption cannot make the job fit — keep waiting

        for info in chosen:
            self.preempted_total += 1
            self.preempted_by_tenant[info.job.tenant] += 1
            self.records.log_preemption(
                info.job.job_id,
                self.env.now,
                detail=f"by job {job.job_id} ({job.tenant})",
            )
        for info in chosen:
            for kill_entry in info.kill_entries:
                if kill_entry.is_alive:
                    kill_entry.interrupt("preempted")

    # -- life-cycle hooks --------------------------------------------------------------
    def _register_running(self, job: QJob, plan: Any, kill_entries: List[Any]) -> None:
        entry = self._entries[job.job_id]
        self._running[job.job_id] = _RunningInfo(
            job, plan, kill_entries, entry.class_rank, self.env.now
        )
        if entry.occupies_queue_slot:
            entry.occupies_queue_slot = False
            self.admission_controller.job_started(job.tenant)

    def _unregister_running(self, job: QJob) -> None:
        self._running.pop(job.job_id, None)

    def _note_requeued(self, job: QJob, retries: int) -> None:
        super()._note_requeued(job, retries)
        entry = self._entries[job.job_id]
        if not entry.occupies_queue_slot:
            entry.occupies_queue_slot = True
            self.admission_controller.job_requeued(job.tenant)
        # Re-tag the entry as a fresh arrival: the job will re-execute (and
        # re-consume capacity), so it re-charges its tenant's fair share and
        # re-enters its class behind currently waiting peers — exactly where
        # the plain broker's FIFO puts a requeued job (byte-identity for the
        # single mix depends on this).
        entry.seq = self._seq
        self._seq += 1
        entry.start_tag = max(self._vclock, self._tenant_vft[job.tenant])
        entry.finish_tag = entry.start_tag + job.num_qubits / entry.tenant.weight
        self._tenant_vft[job.tenant] = entry.finish_tag

    def _note_failed(self, job: QJob) -> None:
        entry = self._entries.get(job.job_id)
        if entry is not None and entry.occupies_queue_slot:
            entry.occupies_queue_slot = False
            self.admission_controller.job_left(job.tenant)

    # -- reporting ---------------------------------------------------------------------
    def tenant_reports(self) -> List[Any]:
        """Per-tenant SLO reports over everything logged so far.

        In-memory records give exact ``np.percentile`` tail latencies.  With a :class:`~repro.cloud.records_stream.StreamingRecordsManager`
        installed there are no materialised records to aggregate; reports are
        instead read straight off the manager's per-tenant P² sketches plus
        the broker's own counters (rejections, failures, preemptions).
        """
        from repro.serve.accounting import compute_tenant_reports

        records = self.records
        if isinstance(records, StreamingRecordsManager):
            from repro.serve.accounting import compute_tenant_reports_streaming

            failed_by_tenant: Dict[str, int] = {t.name: 0 for t in self.mix.tenants}
            for job in self.failed_jobs:
                name = job.tenant or self.tenant_of.get(job.job_id)
                if name in failed_by_tenant:
                    failed_by_tenant[name] += 1
            return compute_tenant_reports_streaming(
                self.mix,
                records,
                self.tenant_of,
                rejected={
                    t.name: self.admission_controller.rejections(t.name)
                    for t in self.mix.tenants
                },
                failed=failed_by_tenant,
                preemptions=self.preempted_by_tenant,
            )
        return compute_tenant_reports(
            self.mix,
            self.records.completed_records,
            self.records.events,
            self.tenant_of,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ServeBroker mix={self.mix.name!r} "
            f"policy={getattr(self.policy, 'name', '?')!r}>"
        )
