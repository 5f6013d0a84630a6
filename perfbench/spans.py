"""In-memory span tracer for the benchmark's traced run.

The tracer times calls into each layer's public functions by replacing them,
for the duration of the traced pass, with thin wrappers installed from this
file; the simulator itself is not modified.  Every wrapped call records one
span (name, start, end, parent) into flat arrays, and the spans are written
out as JSONL once the run is over.

Layer names follow the package layout of ``src/repro``: ``des``,
``scheduling``, ``rl``, ``circuits``, ``cloud``, ``metrics``, ``hardware``,
``serve``, ``dynamics``, ``adaptive``, ``region`` and ``workloads``.  A span
name is ``<layer>.<boundary>``; the benchmark adds two top-level spans of its
own, ``setup`` and ``run``.

A wrapped function that is re-entered while a span of the same name is open
(a nested ``log_start`` -> ``log_event``, an adaptive planner delegating to
the policy it wraps) records no second span, so call counts are counts of
outermost calls.  A span's *self* time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Public module-level functions timed wherever they are bound by name.
_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("rl.train", "repro.rlenv.train", "train_allocation_policy"),
    ("circuits.partition", "repro.circuits.partition", "allocation_from_weights"),
    ("circuits.partition", "repro.circuits.partition", "allocation_from_weights_batch"),
    ("circuits.partition", "repro.circuits.partition", "partition_greedy_fill"),
    ("circuits.partition", "repro.circuits.partition", "partition_even"),
    ("circuits.partition", "repro.circuits.partition", "partition_proportional"),
    ("metrics.fidelity", "repro.metrics.fidelity", "final_fidelity"),
    ("metrics.fidelity", "repro.metrics.fidelity", "merge_segment_fidelities"),
    ("workloads.gen", "repro.workloads.arrivals", "bulk_diurnal_arrival_times"),
    ("workloads.gen", "repro.workloads.arrivals", "generate_traffic_jobs"),
    ("workloads.gen", "repro.cloud.job_generator", "generate_synthetic_jobs"),
    ("workloads.gen", "repro.serve.workload", "tenant_jobs"),
    ("workloads.gen", "repro.region.cloud", "regional_jobs"),
)

#: Public methods timed on their defining class.
_METHODS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("cloud.env_build", "repro.cloud.environment", "QCloudSimEnv", ("__init__",)),
    ("rl.predict", "repro.rl.ppo", "PPO", ("predict",)),
    ("circuits.partition", "repro.circuits.circuit", "CircuitSpec", ("subcircuit",)),
    (
        "cloud.kernel",
        "repro.cloud.qdevice",
        "IBMQuantumDevice",
        (
            "calculate_process_time",
            "compute_fidelity_breakdown",
            "scalar_process_time",
            "scalar_fidelity_breakdown",
            "batch_process_times",
            "batch_fidelity_breakdowns",
        ),
    ),
    ("hardware.error_score", "repro.cloud.qdevice", "IBMQuantumDevice", ("error_score",)),
    ("hardware.error_score", "repro.hardware.backends", "DeviceProfile", ("error_score",)),
    ("metrics.p2_add", "repro.metrics.quantiles", "P2Quantile", ("add",)),
    ("workloads.gen", "repro.cloud.fastpath", "JobTable", ("synthetic",)),
    ("serve.submit", "repro.serve.broker", "ServeBroker", ("submit",)),
    ("serve.admit", "repro.serve.admission", "AdmissionController", ("admit",)),
    ("serve.report", "repro.serve.broker", "ServeBroker", ("tenant_reports",)),
    ("dynamics.apply", "repro.dynamics.engine", "ScenarioEngine", ("apply",)),
    ("region.run", "repro.region.cloud", "RegionalCloud", ("run_until_complete",)),
    ("region.assign", "repro.region.router", "Router", ("assign",)),
    ("region.shard", "repro.engine.runner", "ExperimentRunner", ("map",)),
)


class Tracer:
    """Records spans around the layer boundaries while installed.

    Use as ``with tracer.installed(): ...``; the wrapped functions are
    restored on exit, even when the traced code raises.

    With ``spans=False`` the tracer only installs the two probes the
    correctness gate and the regime guards read — the environments run and
    the ``plan()`` results — and allocates nothing per call, so a pass can
    measure its memory while it is checked.
    """

    def __init__(self, spans: bool = True) -> None:
        self.record = spans
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._active: List[int] = []
        self._name = array("H")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = [-1]
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Every simulation environment run while installed (read after the
        #: run for event-loop counters and end-of-run device state).
        self.envs: List[Any] = []
        #: Outermost ``plan()`` calls, and those that returned ``None``
        #: (wasted re-plans).
        self.plans = 0
        self.plans_none = 0

    # -- recording -------------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def _open(self, nid: int) -> int:
        index = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._start.append(0.0)
        self._end.append(0.0)
        self._stack.append(index)
        self._active[nid] += 1
        self._start[index] = time.perf_counter()
        return index

    def _close(self, nid: int, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._active[nid] -= 1
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself (``setup``, ``run``)."""
        nid = self._id(name)
        index = self._open(nid)
        try:
            yield
        finally:
            self._close(nid, index)

    def wrap(
        self, name: str, fn: Callable, after: Optional[Callable[[tuple, Any], None]] = None
    ) -> Callable:
        """*fn* recording a span named *name* per outermost call."""
        nid = self._id(name)
        active = self._active
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[nid]:
                return fn(*args, **kwargs)
            index = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(nid, index)
            if after is not None:
                after(args, result)
            return result

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if active[nid]:
                return fn(*args, **kwargs)
            active[nid] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                active[nid] -= 1
            after(args, result)
            return result

        return wrapper if self.record else probe

    # -- installation ------------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        # vars() yields the raw descriptor (classmethod, staticmethod) of a
        # class attribute, which is what restore() must put back.
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, cls: type, attr: str, name: str, after=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(name, raw.__func__, after)))
        else:
            self._set(cls, attr, self.wrap(name, raw, after))

    def _patch_function(self, module: str, attr: str, name: str) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapper = self.wrap(name, original)
        # Rebind every module-level name bound to the function, so callers
        # that imported it by name (``from x import f``) are timed too.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _count_none(self, _args: tuple, result: Any) -> None:
        self.plans += 1
        if result is None:
            self.plans_none += 1

    def _keep_env(self, args: tuple, _result: Any) -> None:
        self.envs.append(args[0])

    def install(self) -> None:
        """Wrap every layer boundary (see the module docstring)."""
        from repro.adaptive.controllers import Controller
        from repro.cloud.environment import QCloudSimEnv
        from repro.cloud.records import JobRecordsManager
        from repro.cloud.records_stream import StreamingRecordsManager
        from repro.scheduling.base import AllocationPolicy

        self._patch_method(QCloudSimEnv, "run_until_complete", "des.run", self._keep_env)
        for cls in _subclasses(AllocationPolicy) + _subclasses(Controller):
            if "plan" in cls.__dict__:
                self._patch_method(cls, "plan", "scheduling.plan", self._count_none)
        if not self.record:
            return
        for name, module, attr in _FUNCTIONS:
            self._patch_function(module, attr, name)
        for name, module, cls_name, attrs in _METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            for attr in attrs:
                self._patch_method(cls, attr, name)
        for cls in (JobRecordsManager, StreamingRecordsManager):
            for attr in list(cls.__dict__):
                if attr.startswith("log_") or attr == "add_record":
                    self._patch_method(cls, attr, "cloud.records")
        for cls in _subclasses(Controller):
            if "tick" in cls.__dict__:
                self._patch_method(cls, "tick", "adaptive.tick")

    def restore(self) -> None:
        """Undo every wrapper, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- analysis ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._start)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(name id, parent index, duration, self time)`` per span."""
        names = np.frombuffer(self._name, dtype=np.uint16).astype(np.int64)
        parents = np.frombuffer(self._parent, dtype=np.int64)
        duration = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(
            self._start, dtype=np.float64
        )
        children = np.zeros(len(duration))
        nested = parents >= 0
        np.add.at(children, parents[nested], duration[nested])
        return names, parents, duration, duration - children

    def totals(self, within: Optional[str] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, ``total_s``, ``self_s``.

        With *within*, only spans that descend from a span of that name count.
        """
        names, parents, duration, self_time = self.arrays()
        keep = np.ones(len(names), dtype=bool)
        if within is not None and within in self._ids:
            root = self._ids[within]
            inside = np.zeros(len(names), dtype=bool)
            # Parents always precede their children, so one forward pass
            # propagates membership down the tree.
            parent_list = parents.tolist()
            name_list = names.tolist()
            for i, parent in enumerate(parent_list):
                inside[i] = parent >= 0 and (name_list[parent] == root or inside[parent])
            keep = inside
        out: Dict[str, Dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            mask = keep & (names == nid)
            out[name] = {
                "count": int(mask.sum()),
                "total_s": float(duration[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return out

    def duration(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        names, _, duration, _ = self.arrays()
        nid = self._ids.get(name)
        return 0.0 if nid is None else float(duration[names == nid].sum())

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span: id, name, parent, start, end (seconds
        since the first span opened)."""
        if not len(self):
            open(path, "w").close()
            return
        origin = self._start[0]
        names = self.names
        with open(path, "w") as handle:
            for i, (nid, parent, start, end) in enumerate(
                zip(self._name, self._parent, self._start, self._end)
            ):
                handle.write(
                    f'{{"id":{i},"name":"{names[nid]}","parent":{parent},'
                    f'"start":{start - origin!r},"end":{end - origin!r}}}\n'
                )


def _subclasses(cls: type) -> List[type]:
    out: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in out:
            out.append(sub)
            pending.extend(sub.__subclasses__())
    return out
