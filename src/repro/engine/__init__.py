"""Parallel experiment engine.

One execution subsystem for every evaluation in the repository — the Table 2
case study, the Fig. 5/6 analyses and all ablation sweeps run through the
same three pieces:

* :class:`~repro.engine.spec.ExperimentSpec` — a declarative strategy ×
  seed × config grid with deterministic per-cell seed derivation,
* :class:`~repro.engine.runner.ExperimentRunner` — serial and process-pool
  execution behind one API, with fail-fast error propagation,
* :class:`~repro.engine.store.ResultStore` — JSON/CSV persistence with
  content-keyed caching so repeated sweeps skip already-computed cells.

Quick start
-----------
>>> from repro.cloud.config import SimulationConfig
>>> from repro.engine import ExperimentRunner, ExperimentSpec
>>> spec = ExperimentSpec(
...     base_config=SimulationConfig(num_jobs=50),
...     strategies=("speed", "fidelity", "fair"),
...     replicates=4,
... )
>>> result = ExperimentRunner(backend="process").run(spec)
>>> result.summary_rows()[0]["mean_fidelity"]  # doctest: +SKIP
"""

from repro.engine.runner import CellResult, ExperimentResult, ExperimentRunner, execute_cell
from repro.engine.spec import ExperimentCell, ExperimentSpec, PolicySpec, derive_seed
from repro.engine.store import ResultStore

__all__ = [
    "CellResult",
    "ExperimentCell",
    "ExperimentResult",
    "ExperimentRunner",
    "ExperimentSpec",
    "PolicySpec",
    "ResultStore",
    "derive_seed",
    "execute_cell",
]
