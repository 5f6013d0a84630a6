"""Named region-topology presets and the topology registry.

:data:`TOPOLOGIES` (a :class:`~repro.registry.SpecRegistry`) maps topology
names to :class:`~repro.region.spec.RegionTopology` instances so
configurations, experiment grids and the CLI can select a sharded cloud by name
(``SimulationConfig(regions="dual")``, ``repro simulate --regions
follow-the-sun``).  Six presets ship built-in:

=========================  ==================================================
``single``                 one region inheriting the configured fleet —
                           byte-identical to the plain single-broker cloud
``dual``                   two healthy regions: a fast EU pool (2x 220k
                           CLOPS) vs a larger, slower US pool (3 devices)
``global-triad``           three regions; the AP pool is small and slow, so
                           load- and calibration-aware routing matter
``region-outage``          ``dual`` with the US region down for its first
                           1,800 s (fleet-wide maintenance) — arrivals in the
                           window spill to the EU region
``cross-region-rush-hour`` ``dual`` where each region's origin traffic is a
                           diurnal process in antiphase: one region's crest
                           is the other's trough
``follow-the-sun``         three regions whose diurnal origin traffic peaks
                           8 simulated hours apart, like timezone-shifted
                           business days
=========================  ==================================================

A region's pool lists device *models* from the hardware catalogue; the same
model may be deployed in several regions (each shard instantiates its own
copy).  The traffic/outage scenarios the presets reference
(``region-blackout``, ``region-rush-am``/``-pm``, ``region-sun-*``) are
built-in :mod:`repro.dynamics` presets.
"""

from __future__ import annotations

from typing import List, Optional

from repro.dynamics import SCENARIOS
from repro.region.spec import RegionSpec, RegionTopology
from repro.registry import SpecRegistry

__all__ = [
    "TOPOLOGIES",
    "register_topology",
    "get_topology",
    "available_topologies",
    "resolve_topology",
]


def _region_scenario_content(topology: RegionTopology) -> Optional[List[str]]:
    """Fingerprints of the region scenarios *topology* names (``None`` if
    one does not resolve): re-registering one changes the topology's world."""
    parts: List[str] = []
    for region in topology.regions:
        if region.scenario is not None:
            content = SCENARIOS.fingerprint(region.scenario)
            if content is None:
                return None
            parts.append(f"{region.name}:{content}")
    return parts


TOPOLOGIES: SpecRegistry[RegionTopology] = SpecRegistry(
    "region topology", RegionTopology, depends_on=_region_scenario_content
)
register_topology = TOPOLOGIES.register
get_topology = TOPOLOGIES.get
available_topologies = TOPOLOGIES.available
resolve_topology = TOPOLOGIES.resolve


#: Device pools of the multi-region presets (catalogue model names).
_EU_POOL = ("ibm_strasbourg", "ibm_brussels")
_US_POOL = ("ibm_kyiv", "ibm_quebec", "ibm_kawasaki")
_US_SMALL_POOL = ("ibm_kyiv", "ibm_quebec")
_AP_POOL = ("ibm_kawasaki", "ibm_kyiv")


def _register_presets() -> None:
    register_topology(
        RegionTopology(
            name="single",
            description="one region inheriting the configured fleet (the plain cloud's world)",
            regions=(RegionSpec(name="global", device_names=(), workload_share=1.0),),
        )
    )
    register_topology(
        RegionTopology(
            name="dual",
            description="a fast EU pool vs a larger, slower US pool, both healthy",
            regions=(
                RegionSpec(name="eu-central", device_names=_EU_POOL, workload_share=0.5),
                RegionSpec(name="us-east", device_names=_US_POOL, workload_share=0.5),
            ),
        )
    )
    register_topology(
        RegionTopology(
            name="global-triad",
            description="EU/US/AP pools of uneven size and speed — routing policy matters",
            regions=(
                RegionSpec(name="eu-central", device_names=_EU_POOL, workload_share=0.4),
                RegionSpec(name="us-east", device_names=_US_SMALL_POOL, workload_share=0.35),
                RegionSpec(name="ap-tokyo", device_names=_AP_POOL, workload_share=0.25),
            ),
        )
    )
    register_topology(
        RegionTopology(
            name="region-outage",
            description="dual layout with the US region down for its first 1,800 s",
            regions=(
                RegionSpec(name="eu-central", device_names=_EU_POOL, workload_share=0.5),
                RegionSpec(
                    name="us-east",
                    device_names=_US_POOL,
                    workload_share=0.5,
                    scenario="region-blackout",
                ),
            ),
        )
    )
    register_topology(
        RegionTopology(
            name="cross-region-rush-hour",
            description="dual layout with antiphase diurnal origin traffic per region",
            regions=(
                RegionSpec(
                    name="eu-central",
                    device_names=_EU_POOL,
                    workload_share=0.5,
                    scenario="region-rush-am",
                ),
                RegionSpec(
                    name="us-east",
                    device_names=_US_POOL,
                    workload_share=0.5,
                    scenario="region-rush-pm",
                ),
            ),
        )
    )
    register_topology(
        RegionTopology(
            name="follow-the-sun",
            description="three regions whose diurnal traffic peaks 8 h apart",
            regions=(
                RegionSpec(
                    name="eu-central",
                    device_names=_EU_POOL,
                    workload_share=0.4,
                    scenario="region-sun-00",
                ),
                RegionSpec(
                    name="us-east",
                    device_names=_US_SMALL_POOL,
                    workload_share=0.35,
                    scenario="region-sun-08",
                ),
                RegionSpec(
                    name="ap-tokyo",
                    device_names=_AP_POOL,
                    workload_share=0.25,
                    scenario="region-sun-16",
                ),
            ),
        )
    )


_register_presets()
