"""Incremental local-topology computation shared by every coverage path.

This subpackage owns the primitive that the VPT deletability test
(Definition 5), the DCC scheduler rounds, boundary repair, lifetime
rotation and the distributed protocol all reduce to: extract a punctured
k-hop neighbourhood and decide whether short cycles span its GF(2) cycle
space.  :class:`LocalTopologyEngine` caches one verdict per vertex and
evicts only the verdicts a mutation can change, instead of recomputing
them from scratch — see ``DESIGN.md`` ("The topology-engine layer") for the
invalidation invariant and the instrumentation counters.
"""

from repro.topology.counters import TopologyCounters
from repro.topology.engine import (
    LocalTopologyEngine,
    OwnedRegionError,
    punctured_deletable,
)
from repro.topology.radii import (
    flood_ttl,
    halo_radius,
    mis_separation,
    neighborhood_radius,
    stage_cutoff,
)

__all__ = [
    "LocalTopologyEngine",
    "OwnedRegionError",
    "TopologyCounters",
    "flood_ttl",
    "halo_radius",
    "mis_separation",
    "neighborhood_radius",
    "punctured_deletable",
    "stage_cutoff",
]
