"""Flat-event engine: the dispatcher behind every eligible simulation.

The per-job engine runs one generator-based DES process per job
(:class:`~repro.cloud.broker.Broker._handle_job`), which is wonderfully
composable but costs ~15 heap events and several generator resumptions per
completed job.  At a million jobs that overhead dominates the run.

This module provides the replacement that
:class:`~repro.cloud.environment.QCloudSimEnv` selects for every
configuration :func:`flat_path_eligible` accepts (``fast_path=False`` forces
the per-job engine as a reference):

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
* :func:`flat_path_eligible` — the guard deciding when the flat dispatcher
  may replace the per-job machinery.

Byte identity
-------------
For every eligible configuration the flat dispatcher reproduces the per-job
record and event streams *bit for bit* (tests/cloud/test_fastpath_identity.py
sweeps policies × scenario presets × arrival processes).  Both engines
reserve and release qubits through the same synchronous
:meth:`~repro.cloud.qdevice.BaseQDevice.reserve_qubits` /
:meth:`~repro.cloud.qdevice.BaseQDevice.release_qubits` pair, so they leave
identical fleet states behind by construction.  The rest of the equivalence
rests on two invariants of the per-job engine:

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
so the two engines may differ here — and only here.  Continuous arrival
processes hit this with probability zero; batch arrivals (all at ``t=0``)
cannot collide with completions at all.

Availability
------------
Eligible worlds inject no outages, but user code may call
``set_offline``/``set_online`` on a device: the dispatcher plans over the
cloud's current online view, exactly like the per-job engine.  It runs
sub-jobs without DES processes and so cannot abort them: a *killing*
``set_offline`` of a device with work in flight raises ``RuntimeError``.

Adaptive control
----------------
An attached adaptive control plane (``broker.adaptive``) sees the same
reports on both engines: the dispatcher passes each arrival to the signal
bus at feed, asks for one checkpoint decision per dispatch, reports each
completion with its record, and fails jobs through ``Broker._fail``.  It
reads ``broker.policy`` at :meth:`FlatDispatcher.start`, after the control
plane has installed its planner wrapper.

Ineligible configurations (tenant mixes, scenarios with world dynamics)
run on the per-job engine; ``fast_path=True`` on them raises
``ValueError``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from itertools import count
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import CircuitSpec
from repro.cloud.qjob import QJob, QJobStatus
from repro.cloud.records import JobRecord
from repro.des.events import NORMAL, URGENT, Event
from repro.metrics.fidelity import final_fidelity

__all__ = ["JobTable", "FlatDispatcher", "flat_path_eligible", "PUMP"]

#: Scheduling priority of the dispatcher's pump event: after every NORMAL
#: event of the timestamp (completions release qubits at NORMAL), mirroring
#: the legacy one-replan-after-all-releases wake-up semantics.
PUMP = 2

#: Feed events draw their heap sequence numbers from this reserved negative
#: range so arrivals sort before every runtime event of the same (time,
#: priority) — exactly like the legacy generator's pre-scheduled markers.
_FEED_SEQ_START = -(1 << 62)

#: Below this many fragments a pump dispatch uses the scalar per-fragment
#: duration/fidelity path; at or above it, per-device NumPy batches.
#: Both paths are bit-identical (see ``IBMQuantumDevice.batch_*``).
_VECTOR_THRESHOLD = 4


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
        if np.any(arrival < 0):
            raise ValueError("arrival times must be non-negative")

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


class _FlatJob:
    """In-flight state of one dispatched job (replaces the legacy per-job
    generator frame)."""

    __slots__ = (
        "row",
        "start",
        "job_id",
        "qubits",
        "depth",
        "shots",
        "arrival",
        "device_names",
        "qubit_counts",
        "allocations",
        "durations",
        "breakdowns",
        "remaining",
        "comm_delay",
    )

    def __init__(
        self,
        row: int,
        start: float,
        plan: Any,
        job_id: int,
        qubits: int,
        depth: int,
        shots: int,
        arrival: float,
    ) -> None:
        self.row = row
        self.start = start
        #: Row scalars, cast from the table columns once at dispatch time.
        self.job_id = job_id
        self.qubits = qubits
        self.depth = depth
        self.shots = shots
        self.arrival = arrival
        allocations = plan.allocations
        self.allocations = allocations
        k = len(allocations)
        if k == 1:
            a0 = allocations[0]
            self.device_names = [a0.device.name]
            self.qubit_counts = [a0.num_qubits]
        else:
            self.device_names = plan.device_names
            self.qubit_counts = plan.qubit_counts
        #: Indexed by allocation position (filled by the launch pass).
        self.durations: List[float] = [0.0] * k
        self.breakdowns: List[Any] = [None] * k
        self.remaining = k
        self.comm_delay = 0.0


def flat_path_eligible(tenant_mix: Any, scenario: Any) -> bool:
    """Whether the flat dispatcher may replace the per-job engine.

    Eligible: no tenant mix (the serve layer's broker has its own dispatch
    queue) in a world without runtime dynamics — no scenario at all, or a
    scenario that injects neither drift nor outages nor maintenance nor
    replayed events (traffic-only presets such as ``rush-hour`` qualify:
    they only shape arrivals).  Any adaptive policy qualifies.  Everything
    else runs on the per-job engine, whose behaviour is the reference.
    """
    if tenant_mix is not None:
        return False
    return scenario is None or not (scenario.is_replay or scenario.has_world_dynamics)


def _refuse_kills(device: Any, kill_running: bool) -> None:
    """Availability listener of flat-engine devices: the flat dispatcher
    runs sub-jobs without DES processes, so it cannot abort them."""
    if kill_running and device.free_qubits < device.num_qubits:
        raise RuntimeError(
            f"{device.name} went offline with kill_running=True while the flat-event "
            "engine had work on it; the flat engine cannot abort sub-jobs — build the "
            "environment with fast_path=False or inject outages through a scenario"
        )


class FlatDispatcher:
    """Flat pending-table dispatcher: the replacement for the per-job
    broker processes plus the :class:`JobGenerator`.

    The dispatcher drives the same policy, devices, records manager and
    communication model as the per-job broker — only the *event plumbing*
    changes:

    * arrivals: one pre-triggered feed event per distinct arrival time
      (negative sequence numbers — see the module docstring), appending row
      indices to a deque,
    * planning: a pump event at priority :data:`PUMP` that plans and
      dispatches pending heads FIFO until the head cannot be placed,
    * execution: one completion event per sub-job, one optional
      communication event per split job; qubit reservation/release is
      direct level arithmetic.

    The broker instance is retained for its configuration
    (``max_plan_attempts``), its records manager, its failure path
    (``failed_jobs``), its end-of-run count and its adaptive attachment, so
    results read the same regardless of which engine ran.
    """

    def __init__(self, env: Any, broker: Any, table: JobTable) -> None:
        self.env = env
        self.broker = broker
        self.cloud = broker.cloud
        self.records = broker.records
        self.table = table
        #: Row indices waiting for placement, FIFO.
        self.pending: deque = deque()
        #: Jobs completed by this dispatcher.
        self.completed_count = 0
        #: Jobs submitted (fed) so far.
        self.submitted_count = 0
        self._row_view = _RowView(table)
        #: Lazy arrival-group stream with a one-group prefetch (the next
        #: feed's timestamp must be known to schedule it).
        self._group_iter = table.iter_arrival_groups()
        self._next_arrival = next(self._group_iter, None)
        self._feed_seq = count(_FEED_SEQ_START)
        self._head_attempts = 0
        self._waiting = False
        self._pump_scheduled = False
        self._started = False
        # Hot-path bindings, hoisted once: the columns, the capacity (the
        # fleet is fixed in every fast-path-eligible world), and the two
        # reusable tick events.  At most one feed and one pump can sit in
        # the heap at any moment, so a single pre-triggered event object per
        # kind (with a persistent callback list re-attached before each
        # push) replaces an allocation per arrival group.
        self._job_ids = table.job_id
        self._qubits_col = table.qubits
        self._total_capacity = self.cloud.total_qubits
        self._log_event = self.records.log_event
        # Eligible worlds inject no outages, but user code may still take a
        # device offline: plan over the cloud's current online view (a
        # cached list, rebuilt only on availability changes) and refuse the
        # one change this engine cannot reproduce — a kill of in-flight work.
        for device in self.cloud.devices:
            device.availability_listeners.append(_refuse_kills)
        # Streaming managers discard event detail strings; skip formatting
        # them (device lists, fidelity reprs) when nobody stores them.
        self._keep_detail = self.records.KEEPS_EVENT_DETAIL
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
        self._policy = self.broker.policy
        self._plan = self._policy.plan
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
        self._log_arrival_block(self._job_ids, start, stop, now)
        pending = self.pending
        jobs = self.table.jobs
        if self._adaptive is not None:
            on_submit = self._adaptive.signals.on_submit
            for row in range(start, stop):
                on_submit(jobs[row].tenant if jobs is not None else None, True)
        if self._all_fit:
            if jobs is not None:
                for row in range(start, stop):
                    jobs[row].status = QJobStatus.QUEUED
            pending.extend(range(start, stop))
        else:
            table = self.table
            qubits = self._qubits_col
            total_capacity = self._total_capacity
            for row in range(start, stop):
                if qubits[row] > total_capacity:
                    # Mirrors Broker._handle_job's can_ever_fit guard.
                    self.broker._fail(table.job_for(row), "exceeds total cloud capacity")
                else:
                    if jobs is not None:
                        jobs[row].status = QJobStatus.QUEUED
                    pending.append(row)
        self.submitted_count += stop - start
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
        self._pump_scheduled = True
        tick = self._pump_tick
        tick.callbacks = self._pump_callbacks
        heappush(queue, (env._now, PUMP, next(env._eid), tick))

    def _pump(self, event: Event) -> None:
        self._pump_scheduled = False
        if self._waiting:
            return
        pending = self.pending
        if not pending:
            return
        env = self.env
        policy_plan = self._plan
        broker = self.broker
        table = self.table
        jobs = table.jobs
        view = self._row_view
        online_devices = self.cloud.online_devices
        dispatched: List[Tuple[_FlatJob, List[Tuple[Any, int, int, int, int]]]] = []
        fragment_count = 0
        while pending:
            row = pending[0]
            if jobs is not None:
                job_view: Any = jobs[row]
            else:
                view._row = row
                job_view = view
            plan = policy_plan(job_view, online_devices)
            if plan is None:
                self._head_attempts += 1
                if self._head_attempts >= broker.max_plan_attempts:
                    broker._fail(table.job_for(row), "no feasible allocation")
                    pending.popleft()
                    self._head_attempts = 0
                    continue
                self._waiting = True
                break
            num_qubits = job_view.num_qubits
            # One fused pass over the allocations replaces the separate
            # ``total_qubits``/``is_feasible_now`` property sweeps.
            total = 0
            feasible = True
            for a in plan.allocations:
                total += a.num_qubits
                if a.device.free_qubits < a.num_qubits:
                    feasible = False
            if total != num_qubits:
                raise RuntimeError(
                    f"policy {self._policy.name!r} allocated {total} qubits "
                    f"for a job needing {num_qubits}"
                )
            if not feasible:
                raise RuntimeError(
                    f"policy {self._policy.name!r} returned an infeasible plan for job "
                    f"{job_view.job_id}"
                )
            pending.popleft()
            self._head_attempts = 0
            if self._adaptive is not None:
                # One decision per execution attempt, as on the per-job
                # engine; eligible worlds never abort, so it changes no record.
                self._adaptive.checkpoint(job_view)
            state = _FlatJob(
                row,
                env._now,
                plan,
                job_id=job_view.job_id,
                qubits=num_qubits,
                depth=job_view.depth,
                shots=job_view.num_shots,
                arrival=job_view.arrival_time,
            )
            fragments = self._reserve_and_log(state, plan)
            dispatched.append((state, fragments))
            fragment_count += len(fragments)
        if dispatched:
            self._launch(dispatched, fragment_count)

    def _reserve_and_log(
        self, state: _FlatJob, plan: Any
    ) -> List[Tuple[Any, int, int, int, int]]:
        """Reserve the planned qubits and log the start; returns per-fragment
        ``(device, qubits, depth, shots, two_qubit_gates)`` work items."""
        table = self.table
        row = state.row
        if table.jobs is not None:
            table.jobs[row].status = QJobStatus.RUNNING
        detail = ",".join(state.device_names) if self._keep_detail else None
        self.records.log_event(state.job_id, "start", state.start, detail)
        allocations = plan.allocations
        if len(allocations) == 1:
            # Whole job on one device: the fragment *is* the circuit
            # (``subcircuit`` at fraction 1.0 preserves every count).
            alloc = allocations[0]
            alloc.device.reserve_qubits(alloc.num_qubits)
            return [
                (
                    alloc.device,
                    alloc.num_qubits,
                    state.depth,
                    state.shots,
                    int(table.two_qubit_gates[row]),
                )
            ]
        circuit = table.circuit_for(row)
        fragments = []
        for alloc in allocations:
            alloc.device.reserve_qubits(alloc.num_qubits)
            fragment = circuit.subcircuit(alloc.num_qubits)
            fragments.append(
                (
                    alloc.device,
                    fragment.num_qubits,
                    fragment.depth,
                    fragment.num_shots,
                    fragment.num_two_qubit_gates,
                )
            )
        return fragments

    def _launch(
        self,
        dispatched: List[Tuple[_FlatJob, List[Tuple[Any, int, int, int, int]]]],
        fragment_count: int,
    ) -> None:
        """Compute durations/fidelity breakdowns for every fragment dispatched
        by this pump and schedule their completion events.

        Small pumps take the scalar per-fragment path; large ones (the
        ``t=0`` batch workload) group fragments per device and use the
        bit-identical NumPy batch helpers of
        :class:`~repro.cloud.qdevice.IBMQuantumDevice`.
        """
        table = self.table
        if fragment_count >= _VECTOR_THRESHOLD:
            # Group fragment work items by device, batch-compute, scatter the
            # results back to each job's allocation slot.
            by_device: Dict[str, Tuple[Any, List[Tuple[_FlatJob, int, int, int, int, int, int, int]]]] = {}
            for state, fragments in dispatched:
                total_q = state.qubits
                k = len(fragments)
                for index, (device, q, depth, shots, t2) in enumerate(fragments):
                    group = by_device.get(device.name)
                    if group is None:
                        group = by_device[device.name] = (device, [])
                    group[1].append((state, index, q, depth, shots, t2, total_q, k))
            for device, items in by_device.values():
                durations = device.batch_process_times([it[4] for it in items])
                breakdowns = device.batch_fidelity_breakdowns(
                    qubits=[it[2] for it in items],
                    depths=[it[3] for it in items],
                    two_qubit_gates=[it[5] for it in items],
                    total_qubits=[it[6] for it in items],
                    num_devices=[it[7] for it in items],
                )
                for item, duration, breakdown in zip(items, durations, breakdowns):
                    state, index = item[0], item[1]
                    state.durations[index] = float(duration)
                    state.breakdowns[index] = breakdown
        else:
            for state, fragments in dispatched:
                total_q = state.qubits
                k = len(fragments)
                for index, (device, q, depth, shots, t2) in enumerate(fragments):
                    state.durations[index] = device.scalar_process_time(shots)
                    state.breakdowns[index] = device.scalar_fidelity_breakdown(
                        q, depth, t2, total_q, k
                    )
        # Schedule completion events in dispatch order (sequence numbers
        # mirror the legacy per-chain allocation order).
        env = self.env
        queue = env._queue
        eid = env._eid
        now = env._now
        pool = self._done_pool
        single_callbacks = self._single_done_callbacks
        for state, fragments in dispatched:
            if len(fragments) == 1:
                # Whole job on one device: fuse fragment accounting and job
                # completion into one pooled callback event (no
                # remaining-counter round trip, no zero communication delay
                # to compute, no per-job Event allocation).
                event = pool.pop() if pool else Event(env)
                event._value = state
                event.callbacks = single_callbacks
                heappush(queue, (now + state.durations[0], NORMAL, next(eid), event))
                continue
            for index in range(len(fragments)):
                event = Event(env)
                event._value = None
                event.callbacks.append(_SubJobDone(self, state, index))
                heappush(queue, (now + state.durations[index], NORMAL, next(eid), event))

    # -- completion ----------------------------------------------------------
    def _single_done_ev(self, event: Event) -> None:
        """Pooled-event completion callback: unpack the job state from the
        event payload, recycle the event, and finish the job."""
        state = event._value
        event._value = None
        self._done_pool.append(event)
        self._single_done(state)

    def _single_done(self, state: _FlatJob) -> None:
        """Completion of an unsplit job: fragment accounting plus
        :meth:`_complete` in one step.  A one-entry allocation communicates
        zero qubits, so ``comm_delay`` keeps its 0.0 initial value exactly
        as :meth:`_subjob_done` would compute it."""
        alloc = state.allocations[0]
        device = alloc.device
        elapsed = self.env._now - state.start
        device.completed_subjobs += 1
        device.busy_time += elapsed
        device.qubit_seconds += alloc.num_qubits * elapsed
        self._complete(state)

    def _subjob_done(self, state: _FlatJob, index: int) -> None:
        env = self.env
        now = env._now
        alloc = state.allocations[index]
        device = alloc.device
        elapsed = now - state.start
        device.completed_subjobs += 1
        device.busy_time += elapsed
        device.qubit_seconds += alloc.num_qubits * elapsed
        state.remaining -= 1
        if state.remaining:
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

    def _complete(self, state: _FlatJob) -> None:
        env = self.env
        cloud = self.cloud
        table = self.table
        row = state.row
        breakdowns = state.breakdowns
        if len(breakdowns) == 1:
            # Single device: Eq. 8 collapses to the device fidelity itself
            # (``mean([f]) == 0.0 + f`` and ``phi**0 == 1.0`` are both exact),
            # so skip the general kernel on the hot path.
            b = breakdowns[0]
            fidelity = b.single_qubit * b.two_qubit * b.readout
        else:
            fidelity = final_fidelity(
                [b.device for b in breakdowns],
                phi=cloud.communication.fidelity_penalty,
            )
        for alloc in state.allocations:
            alloc.device.release_qubits(alloc.num_qubits)
        finish = env._now
        job = table.jobs[row] if table.jobs is not None else None
        if job is not None:
            job.status = QJobStatus.COMPLETED
        job_id = state.job_id
        records = self.records
        detail = f"{fidelity:.6f}" if self._keep_detail else None
        records.log_event(job_id, "fidelity", finish, detail)
        records.log_event(job_id, "finish", finish)
        record = JobRecord(
            job_id=job_id,
            num_qubits=state.qubits,
            depth=state.depth,
            num_shots=state.shots,
            arrival_time=state.arrival,
            start_time=state.start,
            finish_time=finish,
            fidelity=fidelity,
            communication_time=state.comm_delay,
            num_devices=len(state.allocations),
            devices=state.device_names,
            allocation=state.qubit_counts,
            processing_time=max(state.durations),
            breakdowns=state.breakdowns,
            retries=0,
            tenant=job.tenant if job is not None else None,
            first_start_time=state.start,
            service_time=finish - state.start,
            resumed_shots=0,
        )
        records.add_record(record)
        if self._adaptive is not None:
            self._adaptive.signals.on_completed(record)
        cloud.jobs_completed += 1
        self.completed_count += 1
        self.broker._ended()
        self._request_pump(signal=True)


class _SubJobDone:
    """Bound completion callback for one fragment (cheaper than a closure
    capturing three cells per event)."""

    __slots__ = ("dispatcher", "state", "index")

    def __init__(self, dispatcher: FlatDispatcher, state: _FlatJob, index: int) -> None:
        self.dispatcher = dispatcher
        self.state = state
        self.index = index

    def __call__(self, event: Event) -> None:
        self.dispatcher._subjob_done(self.state, self.index)


class _Complete:
    """Bound completion callback for a split job's communication delay."""

    __slots__ = ("dispatcher", "state")

    def __init__(self, dispatcher: FlatDispatcher, state: _FlatJob) -> None:
        self.dispatcher = dispatcher
        self.state = state

    def __call__(self, event: Event) -> None:
        self.dispatcher._complete(self.state)
