"""Flat-event engine: the dispatcher behind every run.

The per-job engine runs one generator-based DES process per job
(:class:`~repro.cloud.broker.Broker._handle_job`), which is wonderfully
composable but costs ~15 heap events and several generator resumptions per
completed job.  At a million jobs that overhead dominates the run.

This module provides the replacement that
:class:`~repro.cloud.environment.QCloudSimEnv` selects for every
configuration (``fast_path=False`` forces the per-job engine as a
reference):

* :class:`JobTable` — the workload as NumPy column arrays (job id, arrival
  time, qubits, depth, shots, gate counts) instead of a list of
  :class:`~repro.cloud.qjob.QJob` objects.  Built either from existing jobs
  (:meth:`JobTable.from_jobs` — byte-identity mode) or generated directly in
  bulk (:meth:`JobTable.synthetic` — streaming mode, which never
  materialises a million ``QJob``/``CircuitSpec`` objects).
* :class:`FlatDispatcher` — a flat pending-table dispatcher that replaces
  both the per-job broker processes and the :class:`~repro.cloud
  .job_generator.JobGenerator`: arrivals are fed straight from the table,
  planning/reservation runs in a single pump loop, and each sub-job costs
  exactly one heap event (plus one communication event for split jobs).

Byte identity
-------------
For every configuration it drives, the flat dispatcher reproduces the
per-job record and event streams *bit for bit*, outside the two
same-instant corners described below (tests/cloud/test_fastpath_identity.py
sweeps policies × scenario presets × arrival processes × checkpointing ×
adaptive policies × tenant mixes).  Every job and sub-job transition is
written once and called by both engines (see :mod:`repro.cloud.broker`,
"Byte identity"): the attempt record, which checks the plan and takes the
attempt's one checkpoint decision (``broker._Attempt``), its start
(``Broker._start_attempt``), each sub-job's end
(``IBMQuantumDevice.complete_subjob`` / ``abort_subjob``), and the
attempt's end (``Broker._complete_attempt``, or ``Broker._abort_attempt``
then ``_requeue`` or ``_fail``).  Qubits move through the synchronous
:meth:`~repro.cloud.qdevice.BaseQDevice.reserve_qubits` /
:meth:`~repro.cloud.qdevice.BaseQDevice.release_qubits` pair, so both
engines leave identical fleet states behind by construction.  This module
keeps only the event plumbing: the feed, the pump, pooled completion
events and tombstones.

The rest of the equivalence rests on two invariants of the per-job engine:

1. Arrival markers are pre-scheduled at ``t=0`` with small sequence numbers,
   so at any timestamp arrivals are processed before every runtime event of
   the same priority.  The dispatcher mirrors this by scheduling its feed
   events with sequence numbers from a reserved negative range.
2. A waiting head-of-queue job re-plans exactly once per timestamp that
   released capacity (the ``capacity_released`` signal is swapped on first
   use), after every same-timestamp completion has released its qubits.
   The dispatcher's pump runs at priority ``PUMP``, after every NORMAL
   event of the timestamp — including the ones the event loop already
   popped into the batch it is draining — and re-plans the head at most
   once.

Arrival at a completion
-----------------------
One corner has its own rule: a job arriving at exactly the float time T at
which another job completes is planned after every release at T, so it sees
the post-release fleet.  The per-job engine plans some of these arrivals
mid-completion (before the release of a job whose last sub-job ends at T),
so the two engines may differ here (and at a kill due at a completion, see
"Aborts and requeues").  Continuous arrival
processes hit this with probability zero; batch arrivals (all at ``t=0``)
cannot collide with completions at all.

Aborts and requeues
-------------------
The dispatcher plans over the cloud's current online view, like the per-job
engine, and runs every scenario: drift, outages, maintenance and replayed
traces.  Each launched sub-job sits in its device's start-ordered
``_running`` kill list: an unsplit job's :class:`_FlatJob`, a split job's
:class:`_SubJobDone` per fragment.  Both expose the ``is_alive`` /
``interrupt(cause)`` pair a killing ``set_offline`` calls.  A kill leaves
the sub-job's completion event in the heap as a tombstone, ignored when
popped, and marks the attempt aborted.  Once the attempt's last sub-job has
ended, it is checkpointed, released and requeued into the pending queue
(at its tail, or by its key) or failed at ``max_requeues``, by the per-job
engine's own steps:
:meth:`~repro.cloud.qdevice.IBMQuantumDevice.abort_subjob`,
:meth:`~repro.cloud.broker.Broker._abort_attempt` and
:meth:`~repro.cloud.broker.Broker._requeue`.  Only requeued rows keep a
``_JobRun`` while they wait; a resumed attempt runs only the remaining
shots.  The requeue re-plans through a ``PUMP`` event, after every kill of
the instant has released its qubits.  A sub-job whose device was
recalibrated while it ran recomputes its breakdown at completion, as
``execute`` does, and a blocked plain head listens for
``cloud.capacity_released``, the signal a recovered device sends.  Released
qubits wake a blocked head whether the aborted job was requeued or failed.
One more corner: a kill popped before a completion due at the same float
time aborts that sub-job here, while the per-job engine
lets it complete when both events are drained in one batch (its interrupt
is only delivered after the batch).

Adaptive control
----------------
An attached adaptive control plane (``broker.adaptive``) sees the same
reports on both engines: the dispatcher passes each arrival to the signal
bus at feed, takes one checkpoint decision per dispatched attempt (the
attempt's kills checkpoint by it), and reports completions and failures
through the broker's own steps.  It reads ``broker.policy`` at
:meth:`FlatDispatcher.start`, after the control plane has installed its
planner wrapper.

Brokers and tenant mixes
------------------------
The dispatcher drives any broker through the hooks the per-job loop calls,
so a tenant mix's :class:`~repro.serve.ServeBroker` is a configuration, not
an engine; its tenant policy (fair-share tags, token buckets, floor
yielding, victim choice) stays in :mod:`repro.serve`.

* Admission: a broker with a ``dispatch_key`` admits each arrival through
  ``submit`` (the per-job engine's order: each arrival logged right before
  its submission), and only after the whole group are the admitted rows
  checked against the fleet's capacity and queued.  The plain broker's
  ``submit`` runs in bulk.
* Order: such a broker's pending rows wait in key order behind the head
  (:class:`_KeyedPending`), which the broker reads as its
  ``waiting_line``.
* Blocked head: before each plan the pump calls ``broker._on_dispatch``;
  with no plan it calls ``broker._blocked``.  ``None`` means the head gives
  the floor up and re-enters by its key; an event is what the head waits
  on (the plain broker's ``cloud.capacity_released``).  Plan attempts are
  counted per row, across yields, as in ``_plan_and_reserve``.
* Running set: each launched attempt is registered through
  ``broker._register_running`` with its kill-list entries, and the pump
  launches what it already dispatched before asking ``_blocked``: a
  blocked head may preempt a job dispatched earlier in the same pump.  A
  finished fragment is not alive.  A preemption kills synchronously, so
  the broker logs every preemption before the first kill.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import heappush
from itertools import count
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import CircuitSpec
from repro.cloud.broker import _Attempt, _JobRun
from repro.cloud.qjob import QJob, QJobStatus
from repro.des.events import NORMAL, URGENT, Event

__all__ = ["JobTable", "FlatDispatcher", "PUMP"]

#: Scheduling priority of the dispatcher's pump event: after every NORMAL
#: event of the timestamp (completions release qubits at NORMAL), mirroring
#: the legacy one-replan-after-all-releases wake-up semantics.
PUMP = 2

#: Feed events draw their heap sequence numbers from this reserved negative
#: range so arrivals sort before every runtime event of the same (time,
#: priority) — exactly like the legacy generator's pre-scheduled markers.
_FEED_SEQ_START = -(1 << 62)

class JobTable:
    """A workload as sorted column arrays.

    Rows are sorted by ``(arrival_time, priority, job_id)`` — the exact
    submission order of :class:`~repro.cloud.job_generator.JobGenerator`.

    Parameters
    ----------
    job_id, arrival, qubits, depth, shots, two_qubit_gates:
        Per-job columns (any array-likes of equal length).
    single_qubit_gates:
        Optional column (defaults to ``max(qubits * depth - 2 * t2, 0)``,
        matching :func:`repro.circuits.generators.random_circuit_spec`).
    priority:
        Optional priority column (default all zeros).
    jobs:
        Optional :class:`QJob` references in the *same sorted order* —
        present when the table was built from real jobs
        (:meth:`from_jobs`), absent in streaming mode.
    name_prefix:
        Circuit-name prefix used when streaming mode must materialise a
        :class:`CircuitSpec` (multi-device fragments, failure records).
    """

    __slots__ = (
        "job_id",
        "arrival",
        "qubits",
        "depth",
        "shots",
        "two_qubit_gates",
        "single_qubit_gates",
        "priority",
        "jobs",
        "name_prefix",
    )

    def __init__(
        self,
        job_id: Any,
        arrival: Any,
        qubits: Any,
        depth: Any,
        shots: Any,
        two_qubit_gates: Any,
        single_qubit_gates: Optional[Any] = None,
        priority: Optional[Any] = None,
        jobs: Optional[List[QJob]] = None,
        name_prefix: str = "job",
    ) -> None:
        job_id = np.asarray(job_id, dtype=np.int64)
        arrival = np.asarray(arrival, dtype=np.float64)
        qubits = np.asarray(qubits, dtype=np.int64)
        depth = np.asarray(depth, dtype=np.int64)
        shots = np.asarray(shots, dtype=np.int64)
        two_qubit_gates = np.asarray(two_qubit_gates, dtype=np.int64)
        n = len(job_id)
        for name, column in (
            ("arrival", arrival),
            ("qubits", qubits),
            ("depth", depth),
            ("shots", shots),
            ("two_qubit_gates", two_qubit_gates),
        ):
            if len(column) != n:
                raise ValueError(f"column {name!r} has length {len(column)}, expected {n}")
        if single_qubit_gates is None:
            single_qubit_gates = np.maximum(qubits * depth - 2 * two_qubit_gates, 0)
        else:
            single_qubit_gates = np.asarray(single_qubit_gates, dtype=np.int64)
        if priority is None:
            priority = np.zeros(n, dtype=np.int64)
        else:
            priority = np.asarray(priority, dtype=np.int64)
        if not np.all((arrival >= 0) & (arrival < np.inf)):
            raise ValueError("arrival times must be finite and non-negative")

        order = np.lexsort((job_id, priority, arrival))
        self.job_id = job_id[order]
        self.arrival = arrival[order]
        self.qubits = qubits[order]
        self.depth = depth[order]
        self.shots = shots[order]
        self.two_qubit_gates = two_qubit_gates[order]
        self.single_qubit_gates = single_qubit_gates[order]
        self.priority = priority[order]
        self.jobs = [jobs[i] for i in order] if jobs is not None else None
        self.name_prefix = name_prefix

    def __len__(self) -> int:
        return len(self.job_id)

    @classmethod
    def from_jobs(cls, jobs: Sequence[QJob]) -> "JobTable":
        """Columnise existing jobs (keeps the ``QJob`` references — this is
        the byte-identity mode the environment uses for a job list)."""
        jobs = list(jobs)
        return cls(
            job_id=[j.job_id for j in jobs],
            arrival=[j.arrival_time for j in jobs],
            qubits=[j.num_qubits for j in jobs],
            depth=[j.depth for j in jobs],
            shots=[j.num_shots for j in jobs],
            two_qubit_gates=[j.num_two_qubit_gates for j in jobs],
            single_qubit_gates=[j.circuit.num_single_qubit_gates for j in jobs],
            priority=[j.priority for j in jobs],
            jobs=jobs,
        )

    @classmethod
    def synthetic(
        cls,
        num_jobs: int,
        seed: Optional[int] = None,
        qubit_range: Tuple[int, int] = (130, 250),
        depth_range: Tuple[int, int] = (5, 20),
        shots_range: Tuple[int, int] = (10_000, 100_000),
        two_qubit_density: float = 0.30,
        arrival_times: Optional[Any] = None,
        name_prefix: str = "synthetic",
    ) -> "JobTable":
        """Vectorised bulk workload generation (streaming mode).

        Column values follow the same formulas as
        :func:`~repro.circuits.generators.random_circuit_spec` (inclusive
        uniform ranges, ``t2 = round(q * d * density)``), but are drawn as
        whole arrays — the RNG stream is consumed column-by-column instead
        of job-by-job, so the workload is *statistically* equivalent to the
        legacy generator's, not byte-identical to it.  No per-job Python
        objects are created.
        """
        if num_jobs <= 0:
            raise ValueError("num_jobs must be positive")
        rng = np.random.default_rng(seed)
        qubits = rng.integers(qubit_range[0], qubit_range[1] + 1, num_jobs)
        depth = rng.integers(depth_range[0], depth_range[1] + 1, num_jobs)
        shots = rng.integers(shots_range[0], shots_range[1] + 1, num_jobs)
        t2 = np.rint(qubits * depth * two_qubit_density).astype(np.int64)
        if arrival_times is None:
            arrival = np.zeros(num_jobs, dtype=np.float64)
        else:
            arrival = np.asarray(arrival_times, dtype=np.float64)
            if len(arrival) != num_jobs:
                raise ValueError(
                    f"arrival_times has length {len(arrival)}, expected {num_jobs}"
                )
        return cls(
            job_id=np.arange(num_jobs, dtype=np.int64),
            arrival=arrival,
            qubits=qubits,
            depth=depth,
            shots=shots,
            two_qubit_gates=t2,
            name_prefix=name_prefix,
        )

    # -- helpers used by the dispatcher ------------------------------------
    def arrival_groups(self) -> List[Tuple[float, int, int]]:
        """``(time, start_row, stop_row)`` per distinct arrival time."""
        return list(self.iter_arrival_groups())

    def iter_arrival_groups(self, _chunk: int = 1024) -> Iterator[Tuple[float, int, int]]:
        """Lazy :meth:`arrival_groups`: yields one group at a time.

        A million-job trace with (mostly) distinct arrival times has a
        million groups; materialising them as a tuple list costs ~150 bytes
        each, dwarfing the column arrays.  This generator processes the
        (nondecreasing — the constructor sorts by arrival) arrival column in
        fixed-size chunks, extending each chunk to the next group boundary
        so a run of equal timestamps never spans two chunks, and keeps only
        O(chunk)-sized temporaries alive.
        """
        arrival = self.arrival
        n = len(arrival)
        pos = 0
        while pos < n:
            hi = min(pos + _chunk, n)
            if hi < n:
                # Extend so the chunk ends exactly on a group boundary.
                hi = int(np.searchsorted(arrival, arrival[hi - 1], side="right"))
            seg = arrival[pos:hi]
            prev = 0
            for b in np.flatnonzero(seg[1:] != seg[:-1]).tolist():
                b += 1
                yield (float(seg[prev]), pos + prev, pos + b)
                prev = b
            yield (float(seg[prev]), pos + prev, hi)
            pos = hi

    def circuit_for(self, row: int) -> CircuitSpec:
        """Materialise the circuit of one row (streaming mode only needs
        this for multi-device fragments and failure bookkeeping)."""
        if self.jobs is not None:
            return self.jobs[row].circuit
        return CircuitSpec(
            num_qubits=int(self.qubits[row]),
            depth=int(self.depth[row]),
            num_shots=int(self.shots[row]),
            num_two_qubit_gates=int(self.two_qubit_gates[row]),
            num_single_qubit_gates=int(self.single_qubit_gates[row]),
            name=f"{self.name_prefix}_{int(self.job_id[row])}",
        )

    def job_for(self, row: int) -> QJob:
        """The :class:`QJob` of one row (materialised on demand in
        streaming mode)."""
        if self.jobs is not None:
            return self.jobs[row]
        return QJob(
            job_id=int(self.job_id[row]),
            circuit=self.circuit_for(row),
            arrival_time=float(self.arrival[row]),
            priority=int(self.priority[row]),
        )


class _RowView:
    """Lightweight job stand-in handed to policies in streaming mode.

    Policies read resource demands (``num_qubits`` foremost); this view
    serves them straight from the table columns without building a
    :class:`QJob`.  One instance is reused across plans.
    """

    __slots__ = ("_table", "_row")

    def __init__(self, table: JobTable) -> None:
        self._table = table
        self._row = 0

    @property
    def job_id(self) -> int:
        return int(self._table.job_id[self._row])

    @property
    def num_qubits(self) -> int:
        return int(self._table.qubits[self._row])

    @property
    def depth(self) -> int:
        return int(self._table.depth[self._row])

    @property
    def num_shots(self) -> int:
        return int(self._table.shots[self._row])

    @property
    def num_two_qubit_gates(self) -> int:
        return int(self._table.two_qubit_gates[self._row])

    @property
    def priority(self) -> int:
        return int(self._table.priority[self._row])

    @property
    def arrival_time(self) -> float:
        return float(self._table.arrival[self._row])

    @property
    def tenant(self) -> None:
        return None

    @property
    def circuit(self) -> CircuitSpec:
        return self._table.circuit_for(self._row)


class _FlatJob(_Attempt):
    """A dispatched attempt's flat-engine half: its kill-list entry (the
    attempt's data lives in :class:`~repro.cloud.broker._Attempt`).

    An unsplit attempt is its own kill-list entry in its device's
    ``_running``: ``is_alive`` and :meth:`interrupt` are what a killing
    ``set_offline`` calls.  ``is_alive`` turns ``False`` once any sub-job
    of the attempt has been killed; the attempt's pending completion
    events then become tombstones, ignored when popped.
    """

    __slots__ = ("dispatcher", "row", "remaining", "is_alive", "checkpointed_shots")

    def __init__(
        self, dispatcher: "FlatDispatcher", row: int, job: Any, plan: Any, run: Optional[_JobRun]
    ) -> None:
        _Attempt.__init__(self, dispatcher.broker, job, plan, run)
        self.dispatcher = dispatcher
        self.row = row
        #: Sub-jobs still running.
        self.remaining = len(self.allocations)
        self.is_alive = True
        #: Shots checkpointed by the attempt's killed sub-jobs (their
        #: minimum).
        self.checkpointed_shots = 0

    def interrupt(self, cause: Any = None) -> None:
        """Kill the attempt's only sub-job (a killing ``set_offline``)."""
        self.dispatcher._kill(self, 0, self)


class _KeyedPending(list):
    """Pending rows in a broker's dispatch order (``Broker.dispatch_key``).

    The head, the row holding the dispatch floor, stays first whatever its
    key: a row entering an empty line takes the floor at once, as the
    per-job engine's dispatch resource grants a request when nothing holds
    it, and a later row never goes ahead of it.  The rows behind the head
    wait sorted by key (keys are unique).  Offers the deque operations the
    dispatcher uses, plus :meth:`yield_head` and :attr:`best_waiting_key`.
    """

    __slots__ = ("_key_of",)

    def __init__(self, key_of: Callable[[int], Any]) -> None:
        super().__init__()
        self._key_of = key_of

    def append(self, row: int) -> None:
        insort(self, row, 1 if self else 0, key=self._key_of)

    def extend(self, rows: Sequence[int]) -> None:
        for row in rows:
            self.append(row)

    def popleft(self) -> int:
        return self.pop(0)

    def yield_head(self) -> None:
        """The head gives the floor up: it re-enters by its key, and the
        row with the smallest key becomes the head."""
        insort(self, self.pop(0), key=self._key_of)

    @property
    def best_waiting_key(self) -> Optional[Any]:
        """The smallest key behind the head (``None`` if nobody waits)."""
        return self._key_of(self[1]) if len(self) > 1 else None


class FlatDispatcher:
    """Flat pending-table dispatcher: the replacement for the per-job
    broker processes plus the :class:`JobGenerator`.

    The dispatcher drives the same policy, devices, records manager and
    communication model as the per-job broker — only the *event plumbing*
    changes:

    * arrivals: one pre-triggered feed event per distinct arrival time
      (negative sequence numbers — see the module docstring), appending row
      indices to the pending line: a deque, or a :class:`_KeyedPending`
      for a broker with a ``dispatch_key``,
    * planning: a pump event at priority :data:`PUMP` that plans and
      dispatches pending heads in order until the head cannot be placed
      (and does not give the floor up),
    * execution: one completion event per sub-job, one optional
      communication event per split job; qubit reservation/release is
      direct level arithmetic.

    The broker instance is retained for its configuration
    (``max_plan_attempts``, ``max_requeues``), its records manager, its
    lifecycle steps (plan check, attempt start and completion, abort,
    requeue and failure), its end-of-run count, its adaptive attachment and
    the hooks the per-job loop calls (admission, dispatch, blocked head,
    running set), so results read the same regardless of which engine ran.
    """

    def __init__(self, env: Any, broker: Any, table: JobTable) -> None:
        self.env = env
        self.broker = broker
        self.cloud = broker.cloud
        self.records = broker.records
        self.table = table
        key = broker.dispatch_key
        #: Whether the broker orders the waiting jobs itself; such a broker
        #: also admits each arrival through its ``submit``.
        self._keyed = key is not None
        #: Row indices waiting for placement: FIFO, or in the broker's order.
        self.pending: Any = deque()
        if self._keyed:
            self.pending = broker.waiting_line = _KeyedPending(
                lambda row: key(table.jobs[row])
            )
        self._row_view = _RowView(table)
        #: Lazy arrival-group stream with a one-group prefetch (the next
        #: feed's timestamp must be known to schedule it).
        self._group_iter = table.iter_arrival_groups()
        self._next_arrival = next(self._group_iter, None)
        self._feed_seq = count(_FEED_SEQ_START)
        #: Failed plans per pending row since its dispatch attempt began
        #: (a head that gives the floor up keeps its count).
        self._attempts: Dict[int, int] = {}
        self._waiting = False
        #: The event the blocked head waits on (from ``broker._blocked``).
        self._blocked_on: Optional[Event] = None
        self._pump_scheduled = False
        self._started = False
        #: Cross-attempt state of the pending rows an abort has requeued.
        self._runs: Dict[int, _JobRun] = {}
        # Hot-path bindings, hoisted once: the columns, the capacity (the
        # fleet never changes size; outages only take devices offline), and
        # the two reusable tick events.  At most one feed and one pump can
        # sit in the heap at any moment, so a single pre-triggered event object per
        # kind (with a persistent callback list re-attached before each
        # push) replaces an allocation per arrival group.
        self._job_ids = table.job_id
        self._qubits_col = table.qubits
        self._total_capacity = self.cloud.total_qubits
        self._log_arrival_block = self.records.log_arrival_block
        # When no job exceeds the fleet's capacity (one vectorised check),
        # the per-row can_ever_fit guard in _feed is dead code.
        self._all_fit = len(table) == 0 or int(table.qubits.max()) <= self._total_capacity
        self._feed_tick = Event(env)
        self._feed_tick._value = None
        self._feed_callbacks = [self._feed]
        self._pump_tick = Event(env)
        self._pump_tick._value = None
        self._pump_callbacks = [self._pump]
        # Completion events for unsplit jobs are pooled: each carries its
        # job state in ``_value`` and shares one immutable callback list
        # (the kernel only iterates it, then detaches it from the event),
        # so a dispatched event returns to the pool instead of the garbage
        # collector.  Pool size tracks the number of concurrently running
        # jobs, not the workload size.
        self._done_pool: List[Event] = []
        self._single_done_callbacks = [self._single_done_ev]

    def __len__(self) -> int:
        return len(self.table)

    @property
    def jobs(self) -> List[QJob]:
        """The workload as jobs (materialised on demand in streaming mode)."""
        if self.table.jobs is not None:
            return self.table.jobs
        return [self.table.job_for(row) for row in range(len(self.table))]

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Install the first arrival feed (mirrors ``JobGenerator.start``).

        The policy and the adaptive attachment are read here, not at
        construction: an adaptive planner replaces ``broker.policy`` when
        the control plane installs, after the dispatcher is built.
        """
        if self._started:
            raise RuntimeError("FlatDispatcher already started")
        self._started = True
        self._plan = self.broker.policy.plan
        self._adaptive = self.broker.adaptive
        self._schedule_next_feed()

    def _schedule_next_feed(self) -> None:
        group = self._next_arrival
        if group is None:
            return
        time = group[0]
        env = self.env
        tick = self._feed_tick
        tick.callbacks = self._feed_callbacks
        if time <= env._now:
            # Past/immediate arrivals: the legacy generator logs these inside
            # its URGENT dispatch-process initialisation, before any NORMAL
            # event of the timestamp.
            heappush(env._queue, (env._now, URGENT, next(self._feed_seq), tick))
        else:
            heappush(env._queue, (time, NORMAL, next(self._feed_seq), tick))

    # -- arrivals ------------------------------------------------------------
    def _feed(self, event: Event) -> None:
        _, start, stop = self._next_arrival
        self._next_arrival = next(self._group_iter, None)
        now = self.env._now
        pending = self.pending
        jobs = self.table.jobs
        rows: Sequence[int] = range(start, stop)
        if self._keyed:
            # The broker admits each arrival (it may reject some), logging
            # in the per-job engine's order: each arrival right before its
            # submission, so rejections interleave with arrivals.
            log_arrival = self.records.log_arrival
            submit = self.broker.submit
            rows = []
            for row in range(start, stop):
                job = jobs[row]
                log_arrival(job.job_id, now)
                if submit(job):
                    rows.append(row)
        else:
            # Broker.submit in bulk.
            self._log_arrival_block(self._job_ids, start, stop, now)
            if jobs is not None:
                for row in rows:
                    jobs[row].status = QJobStatus.QUEUED
            if self._adaptive is not None:
                on_submit = self._adaptive.signals.on_submit
                for row in rows:
                    on_submit(jobs[row].tenant if jobs is not None else None, True)
        # After the whole group, as the per-job engine's processes start
        # after the arrival batch: the can-ever-fit guard and the queue.
        if self._all_fit:
            pending.extend(rows)
        else:
            table = self.table
            qubits = self._qubits_col
            total_capacity = self._total_capacity
            for row in rows:
                if qubits[row] > total_capacity:
                    # Mirrors Broker._handle_job's can_ever_fit guard.
                    self.broker._fail(table.job_for(row), "exceeds total cloud capacity")
                else:
                    pending.append(row)
        self._schedule_next_feed()
        self._request_pump(signal=False)

    # -- pump ----------------------------------------------------------------
    def _request_pump(self, signal: bool) -> None:
        """Ask for (at most) one pump at the current timestamp.

        ``signal=True`` marks that capacity was released, unblocking a head
        that already planned and failed at an earlier timestamp — the exact
        analogue of the legacy ``capacity_released`` wake-up.
        """
        if signal:
            self._waiting = False
            if not self.pending:
                # Nothing to plan: the pump would be a no-op, and the legacy
                # engine's capacity signal with no admission waiters is one
                # too.  Saves one heap event per completion in uncongested
                # runs.
                return
        if self._pump_scheduled:
            return
        env = self.env
        queue = env._queue
        if not env._batch_rest and (not queue or queue[0][0] != env._now):
            # Nothing else is scheduled at this timestamp (O(1) heap peek,
            # plus the undispatched rest of the batch the loop popped), so
            # running the pump right now is indistinguishable from running
            # it as a PUMP-priority event — there is no event it could be
            # ordered against.  Saves one heap event per job on workloads
            # with distinct arrival/completion times.
            self._pump(None)
            return
        self._schedule_pump()

    def _schedule_pump(self) -> None:
        """Schedule the pump as a PUMP-priority event at the current
        timestamp (unless one is already scheduled)."""
        if self._pump_scheduled:
            return
        self._pump_scheduled = True
        env = self.env
        tick = self._pump_tick
        tick.callbacks = self._pump_callbacks
        heappush(env._queue, (env._now, PUMP, next(env._eid), tick))

    def _unblock(self, event: Event) -> None:
        """The event the blocked head waits on fired (for the plain broker,
        ``cloud.capacity_released``: a device came back online, or user code
        signalled): re-plan the head.  An event an earlier block returned
        is stale and ignored."""
        if event is self._blocked_on:
            self._blocked_on = None
            self._request_pump(signal=True)

    def _pump(self, event: Event) -> None:
        self._pump_scheduled = False
        if self._waiting:
            return
        pending = self.pending
        if not pending:
            return
        policy_plan = self._plan
        broker = self.broker
        table = self.table
        jobs = table.jobs
        view = self._row_view
        online_devices = self.cloud.online_devices
        runs = self._runs
        attempts = self._attempts
        on_dispatch = broker._on_dispatch
        dispatched: List[Tuple[_FlatJob, List[Tuple[Any, int, int, int, int]]]] = []
        while pending:
            row = pending[0]
            if jobs is not None:
                job_view: Any = jobs[row]
            else:
                view._row = row
                job_view = view
            on_dispatch(job_view)
            plan = policy_plan(job_view, online_devices)
            if plan is None:
                tries = attempts.get(row, 0) + 1
                if tries >= broker.max_plan_attempts:
                    broker._fail(table.job_for(row), "no feasible allocation")
                    pending.popleft()
                    attempts.pop(row, None)
                    runs.pop(row, None)
                    continue
                attempts[row] = tries
                if dispatched:
                    # The blocked head may preempt a job this pump already
                    # dispatched: launch and register those first.
                    self._launch(dispatched)
                    dispatched = []
                # Set before asking the broker: a preemption ends its victims
                # at once, and their released qubits clear it again.
                self._waiting = True
                blocked = broker._blocked(job_view)
                if blocked is None:
                    # The head gives the floor up to a better-keyed row.
                    self._waiting = False
                    pending.yield_head()
                    continue
                if blocked is not self._blocked_on:
                    # Capacity the dispatcher does not release itself (a
                    # recovered device) arrives through this event, which
                    # the per-job engine's blocked head waits on too.
                    self._blocked_on = blocked
                    blocked.callbacks.append(self._unblock)
                break
            state = _FlatJob(self, row, job_view, plan, runs.pop(row, None) if runs else None)
            pending.popleft()
            if attempts:
                attempts.pop(row, None)
            dispatched.append((state, self._start(state)))
        if dispatched:
            self._launch(dispatched)

    def _start(self, state: _FlatJob) -> List[Tuple[Any, int, int, int, int]]:
        """Start a dispatched attempt (the broker's start step) and reserve
        its qubits; returns per-fragment ``(device, qubits, depth, shots,
        two_qubit_gates)`` work items.

        The columns are those of ``circuit.with_shots(shots).subcircuit(q)``
        (a checkpointed job resumes with only its remaining shots), with the
        gate count apportioned in the same operations.  ``subcircuit``'s
        width check needs no repeat here: :class:`DeviceAllocation` refuses
        ``q <= 0``, and the attempt refused a plan whose parts do not sum to
        the job's width.
        """
        table = self.table
        row = state.row
        self.broker._start_attempt(table.jobs[row] if table.jobs is not None else None, state)
        shots = state.attempt_shots
        depth = state.depth
        width = state.qubits
        gates = int(table.two_qubit_gates[row])
        fragments = []
        for alloc in state.allocations:
            q = alloc.num_qubits
            alloc.device.reserve_qubits(q)
            fragments.append((alloc.device, q, depth, shots, int(round(gates * (q / width)))))
        return fragments

    def _launch(
        self, dispatched: List[Tuple[_FlatJob, List[Tuple[Any, int, int, int, int]]]]
    ) -> None:
        """Compute the duration and fidelity breakdown of every fragment
        dispatched by this pump, through the scalar device kernels, and
        schedule their completion events."""
        table = self.table
        for state, fragments in dispatched:
            total_q = state.qubits
            k = len(fragments)
            for index, (device, q, depth, shots, t2) in enumerate(fragments):
                state.durations[index] = device.scalar_process_time(shots)
                state.breakdowns[index] = device.scalar_fidelity_breakdown(
                    q, depth, t2, total_q, k
                )
        # Schedule completion events in dispatch order (sequence numbers
        # mirror the legacy per-chain allocation order), and register each
        # sub-job in its device's start-ordered kill list and with the
        # broker.  (A streaming table has no jobs; its plain broker's
        # running-set hooks are no-ops.)
        env = self.env
        queue = env._queue
        eid = env._eid
        now = env._now
        pool = self._done_pool
        single_callbacks = self._single_done_callbacks
        jobs = table.jobs
        register = self.broker._register_running
        for state, fragments in dispatched:
            if len(fragments) == 1:
                # Whole job on one device: fuse fragment accounting and job
                # completion into one pooled callback event (no
                # remaining-counter round trip, no zero communication delay
                # to compute, no per-job Event allocation).
                fragments[0][0]._running[state] = None
                event = pool.pop() if pool else Event(env)
                event._value = state
                event.callbacks = single_callbacks
                heappush(queue, (now + state.durations[0], NORMAL, next(eid), event))
                entries: List[Any] = [state]
            else:
                entries = []
                for index in range(len(fragments)):
                    entry = _SubJobDone(self, state, index)
                    fragments[index][0]._running[entry] = None
                    entries.append(entry)
                    event = Event(env)
                    event._value = None
                    event.callbacks.append(entry)
                    heappush(queue, (now + state.durations[index], NORMAL, next(eid), event))
            if jobs is not None:
                register(jobs[state.row], state.plan, entries)

    # -- completion ----------------------------------------------------------
    def _single_done_ev(self, event: Event) -> None:
        """Pooled-event completion callback of an unsplit job: unpack the
        job state from the event payload and recycle the event, then do the
        fragment accounting and :meth:`_complete` in one step.  A one-entry
        allocation communicates zero qubits, so ``comm_delay`` keeps its 0.0
        initial value exactly as :meth:`_subjob_done` would compute it."""
        state = event._value
        event._value = None
        self._done_pool.append(event)
        if not state.is_alive:
            return  # the tombstone of a killed attempt
        alloc = state.allocations[0]
        device = alloc.device
        del device._running[state]
        device.complete_subjob(alloc.num_qubits, self.env._now - state.start)
        if device.calibrated_at >= state.start:
            self._refresh_breakdown(state, 0)
        self._complete(state)

    def _subjob_done(self, entry: "_SubJobDone") -> None:
        env = self.env
        now = env._now
        state = entry.state
        index = entry.index
        alloc = state.allocations[index]
        device = alloc.device
        del device._running[entry]
        # Finished: not a kill target any more (a preemption scans it).
        entry.is_alive = False
        device.complete_subjob(alloc.num_qubits, now - state.start)
        if device.calibrated_at >= state.start:
            self._refresh_breakdown(state, index)
        state.remaining -= 1
        if state.remaining:
            return
        if not state.is_alive:
            # A sibling was killed: this was the attempt's last sub-job.
            self._end_aborted(state)
            return
        comm_delay = self.cloud.communication.communication_delay(state.qubit_counts)
        state.comm_delay = comm_delay
        if comm_delay > 0:
            if self.table.jobs is not None:
                self.table.jobs[state.row].status = QJobStatus.COMMUNICATING
            event = Event(env)
            event._value = None
            event.callbacks.append(_Complete(self, state))
            heappush(env._queue, (now + comm_delay, NORMAL, next(env._eid), event))
        else:
            self._complete(state)

    def _fragment(self, state: _FlatJob, index: int) -> CircuitSpec:
        """The circuit fragment sub-job *index* of *state* executes."""
        circuit = self.table.circuit_for(state.row)
        shots = state.attempt_shots
        if shots != circuit.num_shots:
            circuit = circuit.with_shots(shots)
        return circuit.subcircuit(state.allocations[index].num_qubits)

    def _refresh_breakdown(self, state: _FlatJob, index: int) -> None:
        """Recompute a sub-job's breakdown on its device's current
        calibration (which changed while it ran), as ``execute`` computes
        it at completion."""
        device = state.allocations[index].device
        state.breakdowns[index] = device.compute_fidelity_breakdown(
            self._fragment(state, index), len(state.allocations), state.qubits
        )

    # -- aborts ----------------------------------------------------------------
    def _kill(self, state: _FlatJob, index: int, entry: Any) -> None:
        """A killing ``set_offline`` ended sub-job *index* of *state* early.

        Its completion event stays in the heap as a tombstone.  The device
        accounts the abort; once the attempt's last sub-job has ended, the
        attempt ends too (:meth:`_end_aborted`).
        """
        device = state.allocations[index].device
        del device._running[entry]
        completed, breakdown = device.abort_subjob(
            self._fragment(state, index),
            self.env._now - state.start,
            state.durations[index],
            state.checkpoint,
            len(state.allocations),
            state.qubits,
        )
        state.breakdowns[index] = breakdown
        if state.is_alive:
            state.is_alive = False
            state.checkpointed_shots = completed
        else:
            state.checkpointed_shots = min(state.checkpointed_shots, completed)
        state.remaining -= 1
        if not state.remaining:
            self._end_aborted(state)

    def _end_aborted(self, state: _FlatJob) -> None:
        """Checkpoint an aborted attempt, release its qubits and requeue its
        job into :attr:`pending` (or fail it at ``max_requeues``),
        through the per-job engine's own steps."""
        row = state.row
        broker = self.broker
        job = self.table.job_for(row)
        broker._unregister_running(job)
        run = broker._abort_attempt(state, state.checkpointed_shots)
        if broker._requeue(job, run):
            self._runs[row] = run
            self.pending.append(row)
        # The released qubits wake a blocked head whether the job requeued
        # or failed, as the per-job engine's capacity signal does.  Always
        # an event: planning inside ``set_offline`` would run before the
        # other kills of this instant released their qubits.
        self._waiting = False
        if self.pending:
            self._schedule_pump()

    def _complete(self, state: _FlatJob) -> None:
        """Complete the job of an attempt through the broker's completion
        step, then count its end and wake the pump."""
        jobs = self.table.jobs
        self.broker._complete_attempt(jobs[state.row] if jobs is not None else None, state)
        self.broker._ended()
        self._request_pump(signal=True)


class _SubJobDone:
    """Bound completion callback for one fragment (cheaper than a closure
    capturing three cells per event), and that fragment's kill-list entry
    in its device's ``_running``."""

    __slots__ = ("dispatcher", "state", "index", "is_alive")

    def __init__(self, dispatcher: FlatDispatcher, state: _FlatJob, index: int) -> None:
        self.dispatcher = dispatcher
        self.state = state
        self.index = index
        self.is_alive = True

    def __call__(self, event: Event) -> None:
        if self.is_alive:  # else the tombstone of a killed fragment
            self.dispatcher._subjob_done(self)

    def interrupt(self, cause: Any = None) -> None:
        """Kill this fragment (a killing ``set_offline``)."""
        self.is_alive = False
        self.dispatcher._kill(self.state, self.index, self)


class _Complete:
    """Bound completion callback for a split job's communication delay."""

    __slots__ = ("dispatcher", "state")

    def __init__(self, dispatcher: FlatDispatcher, state: _FlatJob) -> None:
        self.dispatcher = dispatcher
        self.state = state

    def __call__(self, event: Event) -> None:
        self.dispatcher._complete(self.state)
