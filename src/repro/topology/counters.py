"""Instrumentation counters for the local-topology engine.

Every expensive primitive the engine performs — punctured-neighbourhood
BFS extraction, short-cycle-span construction, deletability verdicts —
is counted here, together with the verdict-cache events that *avoided*
one.  The counters ride on :class:`repro.core.scheduler.ScheduleResult`
and :class:`repro.runtime.stats.RuntimeStats`, so benchmarks can
quantify redundant work without profiling.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class TopologyCounters:
    """Work / cache-event accounting for :class:`LocalTopologyEngine`."""

    #: total ``deletable()`` queries answered (hits + fresh tests)
    deletability_queries: int = 0
    #: queries answered from the per-vertex verdict cache
    deletability_cache_hits: int = 0
    #: fresh deletability evaluations (neighbourhood + verdict)
    deletability_tests: int = 0
    #: ``ShortCycleSpan`` constructions actually performed
    span_computations: int = 0
    #: k-ball BFS extractions actually performed
    ball_computations: int = 0
    #: vertices expanded across all engine-run BFS traversals
    bfs_expansions: int = 0
    #: cached entries dropped by dirty-region invalidation
    invalidations: int = 0

    def merge(self, other: "TopologyCounters") -> None:
        """Accumulate ``other`` into this instance."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        return (
            f"deletability: {self.deletability_queries} queries "
            f"({self.deletability_cache_hits} cached, "
            f"{self.deletability_tests} fresh) | "
            f"spans: {self.span_computations} computed | "
            f"balls: {self.ball_computations} BFS "
            f"({self.bfs_expansions} expansions) | "
            f"{self.invalidations} invalidations"
        )
