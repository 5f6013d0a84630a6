"""Named-spec registries and the table of named configuration axes.

The paper's configuration layer (§3) picks the world, the demand and the
control plane by name, up front.  Four :class:`~repro.cloud.config
.SimulationConfig` fields work that way, each naming a spec in one
:class:`SpecRegistry`: ``regions`` (:data:`repro.region.TOPOLOGIES`),
``adaptive`` (:data:`repro.adaptive.ADAPTIVE_POLICIES`), ``tenants``
(:data:`repro.serve.TENANT_MIXES`) and ``scenario``
(:data:`repro.dynamics.SCENARIOS`).  :data:`AXES` lists them in grid order,
outermost first; the config validation, the
:class:`~repro.engine.spec.ExperimentSpec` grid with its cache keys and the
CLI flags all loop over it.

:meth:`SpecRegistry.fingerprint` is the content hash the result store keys
on (the spec's deterministic frozen-dataclass ``repr``), so a name
re-registered with other content never returns a stale result; ``None``
marks a reference that does not resolve, and the cell is then uncacheable.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Generic, List, Optional, TypeVar, Union

__all__ = ["SpecRegistry", "Axis", "AXES", "AXES_BY_FIELD"]

T = TypeVar("T")


class SpecRegistry(Generic[T]):
    """Insertion-ordered name → spec catalogue of one named axis.

    ``kind`` names the specs in error messages; :meth:`resolve` passes
    ``spec_type`` instances through.  Two optional hooks cover references
    that reach beyond the catalogue: ``file_path(ref)`` returns the file a
    reference names (scenario traces), which ``load_file(path)`` turns into
    a spec and whose bytes are its fingerprint; ``depends_on(spec)`` returns
    the fingerprints of content the spec names (a topology's region
    scenarios), or ``None`` when one of them does not resolve.
    """

    def __init__(
        self,
        kind: str,
        spec_type: type,
        *,
        file_path: Optional[Callable[[str], Optional[str]]] = None,
        load_file: Optional[Callable[[str], T]] = None,
        depends_on: Optional[Callable[[T], Optional[List[str]]]] = None,
    ) -> None:
        self.kind = kind
        self.spec_type = spec_type
        self._file_path = file_path or (lambda ref: None)
        self._load_file = load_file
        self._depends_on = depends_on or (lambda spec: [])
        self._specs: Dict[str, T] = {}

    def register(self, spec: T) -> None:
        """Register *spec* under its name (overwrites existing entries)."""
        self._specs[spec.name] = spec  # type: ignore[attr-defined]

    def get(self, name: str) -> T:
        """Look up a registered spec by name."""
        if name not in self._specs:
            raise KeyError(f"unknown {self.kind} {name!r}; available: {self.available()}")
        return self._specs[name]

    def available(self) -> List[str]:
        """Names of all registered specs (presets first, in preset order)."""
        return list(self._specs)

    def pop(self, name: str) -> Optional[T]:
        """Unregister *name* (no-op when absent); returns the removed spec."""
        return self._specs.pop(name, None)

    def resolve(self, ref: Union[None, str, T]) -> Optional[T]:
        """Resolve a reference: ``None``, a spec instance, a name or a file."""
        if ref is None or isinstance(ref, self.spec_type):
            return ref  # type: ignore[return-value]
        path = self._file_path(ref)  # type: ignore[arg-type]
        if path is not None:
            return self._load_file(path)  # type: ignore[misc]
        return self.get(ref)  # type: ignore[arg-type]

    def fingerprint(self, name: str) -> Optional[str]:
        """Content hash of what *name* currently resolves to, or ``None``."""
        path = self._file_path(name)
        if path is not None:
            try:
                return hashlib.sha256(Path(path).read_bytes()).hexdigest()
            except OSError:
                return None
        spec = self._specs.get(name)
        extra = None if spec is None else self._depends_on(spec)
        if extra is None:
            return None
        return hashlib.sha256("|".join([repr(spec), *extra]).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Axis:
    """One named-spec axis: its config field (also the ``--<field>`` CLI
    flag and the ``"<field>_content"`` cache-key entry), its
    :class:`~repro.engine.spec.ExperimentSpec` grid field, the
    ``"module:attribute"`` of its registry (imported on first use: the
    registries sit above the config in the import graph) and its CLI help."""

    field: str
    grid: str
    source: str
    help: str

    @property
    def registry(self) -> SpecRegistry[Any]:
        module, _, attribute = self.source.partition(":")
        return getattr(importlib.import_module(module), attribute)


#: The named axes in grid order, outermost first.
AXES = (
    Axis("regions", "regions", "repro.region.presets:TOPOLOGIES",
         "multi-region topology preset (see 'repro regions'); runs one broker "
         "shard per region behind the routing tier"),
    Axis("adaptive", "adaptive", "repro.adaptive.spec:ADAPTIVE_POLICIES",
         "adaptive QoS policy preset (see 'repro adaptive'); attaches the "
         "closed-loop control plane"),
    Axis("tenants", "tenant_mixes", "repro.serve.presets:TENANT_MIXES",
         "multi-tenant mix preset (see 'repro serve --list'); swaps in the "
         "serve broker"),
    Axis("scenario", "scenarios", "repro.dynamics.presets:SCENARIOS",
         "world-dynamics scenario: a preset name (see 'repro scenarios') or a "
         "recorded .jsonl trace to replay"),
)

#: The named axes keyed by their config field.
AXES_BY_FIELD = {axis.field: axis for axis in AXES}
