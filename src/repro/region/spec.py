"""Region specifications: declarative multi-region cloud topologies.

A :class:`RegionTopology` describes a sharded quantum cloud the way the
:class:`~repro.dynamics.scenario.Scenario` dataclasses describe world
dynamics: frozen, picklable specs whose ``repr`` is a stable content
fingerprint, carrying no runtime state.  A topology is

* a tuple of :class:`RegionSpec`\\ s — each region owns a device pool, a
  share of the global workload and (optionally) its own world-dynamics
  scenario (maintenance windows, outages, region-local traffic shaping),
* a tuple of :class:`RegionLink`\\ s — pairwise inter-region channels, each
  reusing the :class:`~repro.cloud.communication.ClassicalCommunicationModel`
  (per-qubit transfer latency λ, per-hop fidelity penalty φ), plus a default
  link model for pairs without an explicit entry.

The :class:`~repro.region.cloud.RegionalCloud` turns a topology into one
broker shard per region; the :class:`~repro.region.router.Router` decides
which shard serves which job.  A one-region topology degenerates to the
plain single-broker cloud — byte-identically (see
``tests/region/test_single_region_equivalence.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cloud.communication import ClassicalCommunicationModel

__all__ = ["DEFAULT_REGION_LINK", "RegionSpec", "RegionLink", "RegionTopology"]

#: Inter-region channels are slower and noisier than intra-cloud links:
#: wide-area classical transfer at 0.05 s/qubit and a 0.98 per-hop penalty.
DEFAULT_REGION_LINK = ClassicalCommunicationModel(
    latency_per_qubit=0.05, fidelity_penalty=0.98
)


@dataclass(frozen=True)
class RegionSpec:
    """One region: a named device pool with a workload share.

    Attributes
    ----------
    name:
        Unique region name (``"eu-central"``, ``"us-east"``, …).
    device_names:
        Catalogue device names forming this region's fleet.  The *empty*
        tuple means "inherit the run's configured fleet" — the one-region
        presets use it so a single-region topology stays byte-identical to
        the plain cloud for any device configuration.
    workload_share:
        Fraction of the global workload originating in this region
        (normalised over the topology; split by largest remainder).
    scenario:
        Optional world-dynamics scenario *name* for this region only (see
        :mod:`repro.dynamics`).  Its maintenance/outage/drift specs run
        inside the region's shard; its traffic spec shapes the arrivals of
        the region's origin jobs; fleet-wide maintenance windows additionally
        mark the region *down* to the router for their duration.
    """

    name: str
    device_names: Tuple[str, ...] = ()
    workload_share: float = 1.0
    scenario: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("region name must be non-empty")
        # Written so that NaN fails too: every comparison with NaN is False.
        if not 0 < self.workload_share < math.inf:
            raise ValueError(
                f"workload_share must be positive and finite, got {self.workload_share}"
            )
        if self.scenario is not None and not self.scenario:
            raise ValueError("scenario must be None or a non-empty name")
        # Tolerate lists from hand-built specs; store a hashable tuple.
        object.__setattr__(self, "device_names", tuple(self.device_names))


@dataclass(frozen=True)
class RegionLink:
    """A pairwise inter-region channel (undirected).

    The channel's cost model is a plain
    :class:`~repro.cloud.communication.ClassicalCommunicationModel`: a job
    served outside its origin region pays ``latency_per_qubit * q`` seconds
    of transfer delay and one hop of the ``fidelity_penalty`` (φ¹).
    """

    a: str
    b: str
    model: ClassicalCommunicationModel = field(default_factory=lambda: DEFAULT_REGION_LINK)

    def __post_init__(self) -> None:
        if not self.a or not self.b:
            raise ValueError("link endpoints must be non-empty region names")
        if self.a == self.b:
            raise ValueError(f"a region link cannot loop ({self.a!r} -> itself)")

    def connects(self, x: str, y: str) -> bool:
        """Whether this link joins regions *x* and *y* (order-insensitive)."""
        return {self.a, self.b} == {x, y}


@dataclass(frozen=True)
class RegionTopology:
    """A named multi-region cloud: regions plus their pairwise links.

    Attributes
    ----------
    name:
        Topology name (how configs and the CLI refer to it).
    regions:
        The region shards, in routing order (round-robin cycles this order;
        ties everywhere break by it).
    links:
        Explicit pairwise channels; pairs without an entry fall back to
        ``default_link``.
    default_link:
        Channel model of every unlisted region pair.
    description:
        One-line human description (shown by ``repro regions``).
    """

    name: str
    regions: Tuple[RegionSpec, ...]
    links: Tuple[RegionLink, ...] = ()
    default_link: ClassicalCommunicationModel = field(
        default_factory=lambda: DEFAULT_REGION_LINK
    )
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("topology name must be non-empty")
        if not self.regions:
            raise ValueError("a topology needs at least one region")
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "links", tuple(self.links))
        names = [r.name for r in self.regions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate region names: {names}")
        known = set(names)
        for link in self.links:
            for endpoint in (link.a, link.b):
                if endpoint not in known:
                    raise ValueError(
                        f"link {link.a!r}<->{link.b!r} references unknown region "
                        f"{endpoint!r}; regions: {sorted(known)}"
                    )
        seen_pairs = set()
        for link in self.links:
            pair = frozenset((link.a, link.b))
            if pair in seen_pairs:
                raise ValueError(f"duplicate link between {link.a!r} and {link.b!r}")
            seen_pairs.add(pair)

    # -- lookups ---------------------------------------------------------------
    @property
    def region_names(self) -> List[str]:
        """Region names in routing order."""
        return [r.name for r in self.regions]

    def region(self, name: str) -> RegionSpec:
        """Look up one region by name."""
        for spec in self.regions:
            if spec.name == name:
                return spec
        raise KeyError(f"unknown region {name!r}; available: {self.region_names}")

    def link(self, a: str, b: str) -> Optional[ClassicalCommunicationModel]:
        """The channel model between regions *a* and *b*.

        ``None`` for ``a == b`` — intra-region traffic pays no inter-region
        cost (that is what makes one-region topologies byte-identical to the
        plain cloud).
        """
        if a == b:
            return None
        self.region(a), self.region(b)  # validate both endpoints
        for entry in self.links:
            if entry.connects(a, b):
                return entry.model
        return self.default_link

    @property
    def is_single_region(self) -> bool:
        """Whether the topology degenerates to the plain single-broker cloud."""
        return len(self.regions) == 1
