"""Experiment specifications: the strategy × seed × config grid.

An :class:`ExperimentSpec` describes a whole experiment declaratively — the
base :class:`~repro.cloud.config.SimulationConfig`, the allocation strategies
to compare, the number of workload replicates and an optional grid of config
overrides (for ablation sweeps).  :meth:`ExperimentSpec.cells` expands the
grid into flat, picklable :class:`ExperimentCell` payloads which the
:class:`~repro.engine.runner.ExperimentRunner` executes on any backend.

Seeding is deterministic: replicate ``r`` of a spec with base seed ``s``
always simulates the workload seeded ``derive_seed(s, "replicate", r)``,
independently of the strategy, the backend or the submission order — so all
strategies inside a replicate see the identical workload and repeated runs
are bit-for-bit reproducible.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cloud.config import SimulationConfig
from repro.cloud.qjob import QJob
from repro.registry import AXES

__all__ = ["derive_seed", "PolicySpec", "ExperimentCell", "ExperimentSpec"]


def derive_seed(base_seed: Optional[int], *components: Any) -> int:
    """Derive a deterministic 63-bit seed from a base seed and components.

    The derivation hashes the repr of all inputs, so any change to a
    component (replicate index, strategy, override values, …) yields an
    unrelated seed while the same inputs always map to the same seed — on
    every platform and across processes (no ``hash()`` randomisation).
    """
    payload = repr((base_seed,) + components).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") >> 1


@dataclass(frozen=True)
class PolicySpec:
    """Declarative policy construction: registry name plus keyword arguments.

    Unlike a policy *instance*, a :class:`PolicySpec` is trivially picklable
    and has a stable content fingerprint, so cells carrying one stay cacheable
    (e.g. the error-weight ablation builds ``PolicySpec("fidelity",
    {"weights": ErrorScoreWeights(...)})`` cells).
    """

    name: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def build(self) -> Any:
        from repro.scheduling.registry import create_policy

        return create_policy(self.name, **dict(self.kwargs))

    def fingerprint(self) -> str:
        """Stable content description (dataclass reprs are deterministic)."""
        return f"{self.name}({sorted((k, repr(v)) for k, v in dict(self.kwargs).items())!r})"


def _jobs_fingerprint(jobs: Sequence[QJob]) -> str:
    """Stable content description of an explicit workload."""
    parts = [
        (j.job_id, repr(j.circuit), j.arrival_time, j.priority) for j in jobs
    ]
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExperimentCell:
    """One grid cell: a single simulation to run and summarise.

    Cells must be picklable so the process-pool backend can ship them to
    workers.  The workload is normally *regenerated* in the worker from
    ``config.seed`` (cheaper to ship and bit-identical by construction);
    an explicit ``jobs`` tuple or a prebuilt ``policy`` instance are escape
    hatches for custom experiments (a prebuilt policy makes the cell
    uncacheable because instances have no stable content fingerprint).
    """

    index: int
    strategy: str
    seed: int
    config: SimulationConfig
    #: Declarative policy override (cacheable); ``None`` uses ``config.policy``.
    policy_spec: Optional[PolicySpec] = None
    #: Prebuilt policy instance (escape hatch; must pickle for the process backend).
    policy: Any = None
    #: Explicit workload (escape hatch); ``None`` regenerates from ``config``.
    jobs: Optional[Tuple[QJob, ...]] = None
    #: Replicate index inside the spec (0-based).
    replicate: int = 0

    def cache_key(self) -> Optional[str]:
        """Content hash identifying this cell's result, or ``None`` if the
        cell is uncacheable (it carries a prebuilt policy instance, or a
        named-axis reference whose content cannot be resolved right now)."""
        if self.policy is not None:
            return None
        payload: Dict[str, Any] = {
            "strategy": self.strategy,
            "seed": self.seed,
            "config": self.config.as_dict(),
            "policy_spec": self.policy_spec.fingerprint() if self.policy_spec else None,
            "jobs": _jobs_fingerprint(self.jobs) if self.jobs is not None else None,
        }
        for axis in AXES:
            name = getattr(self.config, axis.field)
            content = None if name is None else axis.registry.fingerprint(name)
            if name is not None and content is None:
                return None
            payload[f"{axis.field}_content"] = content
        blob = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative strategy × replicate × override experiment grid.

    Parameters
    ----------
    base_config:
        Configuration shared by every cell (its ``policy`` field is replaced
        per cell, its ``seed`` per replicate).
    strategies:
        Allocation strategies to compare (each becomes one cell per
        replicate per override).
    replicates:
        Number of workload replicates.  With one replicate the base config's
        seed is used untouched; with several, replicate seeds are derived
        deterministically via :func:`derive_seed`.
    seeds:
        Explicit workload seeds (overrides ``replicates``/derivation).
    overrides:
        Grid axis of config-field overrides, one mapping per grid column
        (e.g. ``({"comm_fidelity_penalty": 0.9}, {"comm_fidelity_penalty":
        1.0})`` for a φ sweep).  The default is a single empty override.
    policy_specs:
        Per-strategy declarative policy overrides (cacheable).
    policies:
        Per-strategy prebuilt policy instances (escape hatch, e.g. a trained
        RL model; such cells are uncacheable).
    jobs:
        Explicit workload shared by every cell (cloned per simulation).
    scenarios, tenant_mixes, regions, adaptive:
        Grid axes of the named specs (:data:`repro.registry.AXES`: scenario,
        tenant mix, region topology, adaptive policy), crossed with every
        other axis; the grid runs regions-major, then adaptive, tenant mix,
        scenario and ``overrides``.  ``None`` in a tuple clears the field
        (static world, plain broker, single-broker cloud, open loop);
        omitting an axis keeps the base config's own value.
    """

    base_config: SimulationConfig
    strategies: Tuple[str, ...] = ("speed",)
    replicates: int = 1
    seeds: Optional[Tuple[int, ...]] = None
    overrides: Tuple[Mapping[str, Any], ...] = (
        # one cell column with no overrides
        {},  # type: ignore[assignment]
    )
    policy_specs: Mapping[str, PolicySpec] = field(default_factory=dict)
    policies: Mapping[str, Any] = field(default_factory=dict)
    jobs: Optional[Tuple[QJob, ...]] = None
    scenarios: Optional[Tuple[Optional[str], ...]] = None
    tenant_mixes: Optional[Tuple[Optional[str], ...]] = None
    regions: Optional[Tuple[Optional[str], ...]] = None
    adaptive: Optional[Tuple[Optional[str], ...]] = None

    def __post_init__(self) -> None:
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        if self.replicates <= 0:
            raise ValueError("replicates must be positive")
        if self.seeds is not None and not self.seeds:
            raise ValueError("seeds must be non-empty when given")
        if not self.overrides:
            raise ValueError("overrides must be non-empty (use ({},) for none)")
        for axis in AXES:
            if getattr(self, axis.grid) is not None and not getattr(self, axis.grid):
                raise ValueError(f"{axis.grid} must be non-empty when given")

    def replicate_seeds(self) -> List[int]:
        """The workload seed of every replicate (deterministic)."""
        if self.seeds is not None:
            return list(self.seeds)
        if self.replicates == 1:
            return [self.base_config.seed]
        return [
            derive_seed(self.base_config.seed, "replicate", r)
            for r in range(self.replicates)
        ]

    def cells(self) -> List[ExperimentCell]:
        """Expand the grid into flat cells (regions-major, then adaptive,
        then tenant mix, then scenario, then override, then replicate, then
        strategy — Table 2 order inside each replicate)."""
        # Omitted axes keep the base config's value and add no grid level.
        grids = [(axis.field, getattr(self, axis.grid)) for axis in AXES]
        grids = [(name, grid) for name, grid in grids if grid is not None]
        cells: List[ExperimentCell] = []
        for named in itertools.product(*(grid for _, grid in grids)):
            for override in self.overrides:
                for replicate, seed in enumerate(self.replicate_seeds()):
                    for strategy in self.strategies:
                        payload = dict(self.base_config.as_dict())
                        payload.update(override)
                        payload["policy"] = strategy
                        payload["seed"] = seed
                        payload.update(zip((name for name, _ in grids), named))
                        cells.append(
                            ExperimentCell(
                                index=len(cells),
                                strategy=strategy,
                                seed=seed,
                                config=SimulationConfig(**payload),
                                policy_spec=self.policy_specs.get(strategy),
                                policy=self.policies.get(strategy),
                                jobs=self.jobs,
                                replicate=replicate,
                            )
                        )
        return cells

    def __len__(self) -> int:
        count = len(self.strategies) * len(self.replicate_seeds()) * len(self.overrides)
        for axis in AXES:
            count *= len(getattr(self, axis.grid) or (None,))
        return count
