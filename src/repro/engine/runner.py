"""The experiment runner: one API over serial and process-pool execution.

:class:`ExperimentRunner` executes the cells of an
:class:`~repro.engine.spec.ExperimentSpec` — or any picklable function over
payloads via :meth:`ExperimentRunner.map` — on either backend:

* ``"serial"`` — in-process loop (default; zero overhead, always available),
* ``"process"`` — a ``concurrent.futures.ProcessPoolExecutor`` fan-out with
  fail-fast error propagation: the first worker exception cancels all
  pending cells and re-raises in the caller.

Both backends produce *identical* results for the same spec: a cell is fully
described by its picklable payload, the workload is regenerated from the
cell seed inside the worker, and floats survive pickling bit-for-bit.

Attach a :class:`~repro.engine.store.ResultStore` to skip already-computed
cells: cached cells are looked up by content key before any worker is
spawned, so repeated sweeps only pay for the cells that changed.
"""

from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cloud.qjob import QJob
from repro.cloud.records import JobRecord
from repro.engine.spec import ExperimentCell, ExperimentSpec
from repro.engine.store import ResultStore
from repro.metrics.aggregate import StrategySummary, empty_summary, summarize_records

__all__ = ["CellResult", "ExperimentResult", "ExperimentRunner", "execute_cell"]

_BACKENDS = ("serial", "process")


def _clone_jobs(jobs: Sequence[QJob]) -> List[QJob]:
    """Copy a job list so each simulation gets fresh status fields."""
    return [job.clone() for job in jobs]


@dataclass(frozen=True)
class CellResult:
    """Outcome of one executed (or cache-restored) cell."""

    cell: ExperimentCell
    summary: StrategySummary
    records: List[JobRecord] = field(default_factory=list)
    #: ``True`` when the result was restored from the store, not simulated.
    cached: bool = False


@dataclass
class ExperimentResult:
    """Ordered cell results plus their summary table rows."""

    spec: Optional[ExperimentSpec]
    results: List[CellResult]

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def summary_rows(self) -> List[Dict[str, object]]:
        """All summaries as flat table rows (cell metadata included)."""
        rows = []
        for result in self.results:
            row = dict(result.summary.as_row())
            row["seed"] = result.cell.seed
            row["replicate"] = result.cell.replicate
            rows.append(row)
        return rows


def execute_cell(cell: ExperimentCell) -> CellResult:
    """Run one cell's simulation and summarise it (worker entry point).

    Module-level so the process backend can pickle it by reference; imports
    the cloud layer lazily to keep worker start-up light.
    """
    from repro.cloud.environment import QCloudSimEnv

    config = cell.config
    # An explicit workload is cloned per simulation; otherwise the
    # environment regenerates it from the config (bit-identical, and lets
    # scenario traffic models shape the arrivals — see repro.dynamics).
    jobs = _clone_jobs(cell.jobs) if cell.jobs is not None else None

    policy = cell.policy
    if policy is None and cell.policy_spec is not None:
        policy = cell.policy_spec.build()

    if getattr(config, "regions", None) is not None:
        # Multi-region cell: one broker shard per region behind the routing
        # tier.  Shards run serially inside this worker — the engine's own
        # process backend already parallelises across cells, and nesting
        # process pools inside workers deadlocks.
        from repro.region import RegionalCloud

        cloud = RegionalCloud(config=config, jobs=jobs, policy=policy)
        records = cloud.run_until_complete()
        name = getattr(cloud.policy, "name", config.policy) if policy else config.policy
        summary = summarize_records(records, strategy=name) if records else empty_summary(name)
        return CellResult(cell=cell, summary=summary, records=records)

    env = QCloudSimEnv(config=config, jobs=jobs, policy=policy)
    records = env.run_until_complete()
    name = getattr(env.policy, "name", config.policy)
    # A cell can legitimately complete zero jobs (admission shedding,
    # infeasible workloads) — summarize as an empty row instead of raising.
    summary = summarize_records(records, strategy=name) if records else empty_summary(name)
    return CellResult(cell=cell, summary=summary, records=records)


class ExperimentRunner:
    """Execute experiment cells on a serial or process-pool backend.

    Parameters
    ----------
    backend:
        ``"serial"`` or ``"process"``.
    max_workers:
        Process-pool size (default: ``os.cpu_count()``); ignored by the
        serial backend.
    store:
        Optional :class:`~repro.engine.store.ResultStore` for content-keyed
        caching and persistence of results.
    """

    def __init__(
        self,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        store: Optional[ResultStore] = None,
    ) -> None:
        if backend not in _BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {_BACKENDS}")
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.backend = backend
        self.max_workers = max_workers
        self.store = store

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ExperimentRunner backend={self.backend!r} workers={self.max_workers}>"

    # -- generic parallel map -----------------------------------------------
    def map(self, fn: Callable[[Any], Any], payloads: Iterable[Any]) -> List[Any]:
        """Apply *fn* to every payload, in order, on the configured backend.

        Fail-fast: the first exception cancels all pending work and
        re-raises in the caller (identical to the serial behaviour, where
        later payloads simply never run).
        """
        payloads = list(payloads)
        if self.backend == "serial" or len(payloads) <= 1:
            return [fn(payload) for payload in payloads]

        with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
            futures = [pool.submit(fn, payload) for payload in payloads]
            done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
            failed = next((f for f in done if f.exception() is not None), None)
            if failed is not None:
                for future in not_done:
                    future.cancel()
                raise failed.exception()
            return [future.result() for future in futures]

    # -- experiment execution -------------------------------------------------
    def run_cells(self, cells: Sequence[ExperimentCell]) -> List[CellResult]:
        """Execute *cells* (skipping store hits), preserving cell order."""
        cells = list(cells)
        keys = [cell.cache_key() if self.store is not None else None for cell in cells]

        results: List[Optional[CellResult]] = [None] * len(cells)
        pending: List[Tuple[int, ExperimentCell]] = []
        for i, (cell, key) in enumerate(zip(cells, keys)):
            hit = self.store.load_cell(key) if key is not None else None
            if hit is not None:
                summary, records = hit
                results[i] = CellResult(cell=cell, summary=summary, records=records, cached=True)
            else:
                pending.append((i, cell))

        fresh = self.map(execute_cell, [cell for _, cell in pending])
        for (i, cell), result in zip(pending, fresh):
            results[i] = result
            if self.store is not None and keys[i] is not None:
                self.store.save_cell(keys[i], cell, result.summary, result.records)

        return [r for r in results if r is not None]

    def run(self, spec: ExperimentSpec) -> ExperimentResult:
        """Execute every cell of *spec* and return the grid-shaped result."""
        return ExperimentResult(spec=spec, results=self.run_cells(spec.cells()))
