"""repro.region — sharded multi-region quantum cloud with a routing tier.

The paper's cloud is one broker over one fleet; production quantum clouds
are regional fleets behind a router.  This package supplies the missing
tier:

* **Topologies** (:mod:`repro.region.spec`): frozen
  :class:`RegionSpec`/:class:`RegionTopology` dataclasses — per-region
  device pools, workload shares, optional per-region world-dynamics
  scenarios, and pairwise inter-region channels reusing the
  :class:`~repro.cloud.communication.ClassicalCommunicationModel`.
* **Routing** (:mod:`repro.region.router`): a deterministic front tier with
  four pluggable policies — ``locality``, ``least-loaded``,
  ``calibration-aware``, ``round-robin`` — that skips down or infeasible
  regions and drives cross-region spillover.
* **Execution** (:mod:`repro.region.cloud`): :class:`RegionalCloud` runs one
  broker shard per region (serially or as real parallel processes via the
  :class:`~repro.engine.runner.ExperimentRunner` process backend), migrates
  terminally failed jobs across regions, and merges the per-shard record
  streams into one globally-ordered result::

      cloud = RegionalCloud(SimulationConfig(num_jobs=100, regions="dual"))
      records = cloud.run_until_complete()
      print(cloud.summary().as_row())
      print(cloud.region_reports())

* **Presets** (:mod:`repro.region.presets`): ``single``, ``dual``,
  ``global-triad``, plus three stress topologies — ``region-outage``,
  ``cross-region-rush-hour``, ``follow-the-sun`` — registered on import.

A one-region topology is byte-identical to the plain single-broker cloud,
and process-parallel shard execution is byte-identical to serial shard
execution (both regression-tested in ``tests/region/``).
"""

from repro.region.cloud import RegionalCloud, regional_jobs, route_jobs_to_regions
from repro.region.presets import (
    TOPOLOGIES,
    available_topologies,
    get_topology,
    register_topology,
    resolve_topology,
)
from repro.region.router import ROUTING_POLICIES, RegionState, Router
from repro.region.spec import DEFAULT_REGION_LINK, RegionLink, RegionSpec, RegionTopology

__all__ = [
    "TOPOLOGIES",
    "DEFAULT_REGION_LINK",
    "ROUTING_POLICIES",
    "RegionLink",
    "RegionSpec",
    "RegionState",
    "RegionTopology",
    "RegionalCloud",
    "Router",
    "available_topologies",
    "get_topology",
    "register_topology",
    "regional_jobs",
    "resolve_topology",
    "route_jobs_to_regions",
]
