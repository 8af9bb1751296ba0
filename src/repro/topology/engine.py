"""The incremental local-topology engine.

Every coverage decision in the paper reduces to one primitive: extract a
punctured k-hop neighbourhood and decide whether short cycles span its
GF(2) cycle space (Definition 5 / Theorem 4).  The seed code recomputed
that primitive independently at four call sites; this engine owns it
once, with a single caching policy:

* **Per-vertex verdict cache.**  A vertex's verdict is a pure function
  of its own punctured k-ball, so it stays valid until that ball
  changes.  Deleting ``w`` can only change the balls of vertices within
  ``k`` hops of ``w`` (the k-ball locality invariant the seed's
  ``DeletabilityCache`` exploited), so a deletion evicts exactly the
  verdicts inside ``w``'s k-ball, found by one radius-``k`` BFS.  An
  edge edit clears every verdict.
* **Fresh balls.**  k-balls and separation balls are recomputed on
  every request: a slot BFS over the CSR mirror
  (:class:`~repro.cycles.kernel.CSRGraph`) is cheaper than any index
  that would keep them valid.  Verdicts are not shared between vertices
  or engines either: a vertex's punctured ball contains its neighbours
  but not itself, so a memo keyed on the ball did not hit once in the
  recorded schedules (DESIGN.md section 4).
* **Copy-free neighbourhood graphs.**  The dict oracle engine
  (``use_kernel=False``) tests
  :class:`~repro.network.graph.SubgraphView` objects over the live
  graph, so it never pays ``induced_subgraph`` full-copy costs.
* **Instrumentation.**  All of the above is counted in
  :class:`TopologyCounters`, surfaced on ``ScheduleResult`` and
  ``RuntimeStats``.

The engine owns its graph: all mutations must go through
:meth:`delete_vertex` / :meth:`delete_edge` / :meth:`add_edge` /
:meth:`add_vertex`.  Out-of-band mutations are detected via the graph's
version counter and answered with a wholesale cache flush, so results
stay correct even then.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, FrozenSet, Optional, Set

from repro.checks.sanitizer import current_sanitizer
from repro.cycles.horton import ShortCycleSpan
from repro.network.graph import NetworkGraph
from repro.obs.tracer import NULL_TRACER
from repro.topology.counters import TopologyCounters
from repro.topology.radii import neighborhood_radius


class OwnedRegionError(RuntimeError):
    """A verdict was requested outside an engine's owned region.

    Raised by engines constructed with ``owned=...`` (the shard runtime):
    a shard may *traverse* its halo band freely — balls and separation
    probes legitimately reach into it — but a deletability verdict for a
    vertex it does not own would be computed on a partition that is not
    guaranteed to contain that vertex's full k-ball, so it must come from
    the owner via the halo exchange instead.
    """


class LocalTopologyEngine:
    """Incremental k-ball extraction and deletability testing.

    Parameters
    ----------
    graph:
        The graph the engine operates on.  *Owned* by the engine — apply
        mutations through the engine so caches stay consistent (direct
        mutations are tolerated but flush every cache).
    tau:
        The confine size; fixes the test radius ``k = ceil(tau/2)``.
    counters:
        Optional shared :class:`TopologyCounters` (several engines can
        aggregate into one, as the distributed protocol's per-node views
        do).
    use_kernel:
        ``True`` (every production engine) runs balls and verdicts on
        the CSR mirror; ``False`` runs them on the dict-of-sets graph
        with :class:`ShortCycleSpan` — the reference oracle the tests
        and the kernel benchmark compare against.  Both keep the same
        cache policy, so they produce identical schedules.
    owned:
        Optional owned-region restriction (the shard runtime).  When
        set, :meth:`deletable` refuses vertices outside the set with
        :class:`OwnedRegionError`; traversal queries (balls, separation
        probes) stay unrestricted, mirroring the halo-band contract.
    """

    def __init__(
        self,
        graph: NetworkGraph,
        tau: int,
        *,
        counters: Optional[TopologyCounters] = None,
        use_kernel: bool = True,
        tracer=None,
        metrics=None,
        owned: Optional[FrozenSet[int]] = None,
    ) -> None:
        self.graph = graph
        self.tau = tau
        self.owned = owned
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.radius = neighborhood_radius(tau)
        self.counters = counters if counters is not None else TopologyCounters()
        self.use_kernel = use_kernel
        self._kernel = graph.csr() if use_kernel else None
        if self._kernel is not None and self.tracer.enabled:
            self._kernel.tracer = self.tracer
        self._verdicts: Dict[int, bool] = {}
        self._full_span: Optional[ShortCycleSpan] = None
        self._full_span_version = -1
        self._version = graph.version

    @property
    def kernel(self):
        """The CSR mirror (``None`` on dict-only engines), cache-synced.

        Callers running radius-bounded sweeps directly on the mirror
        (the wave-MIS propagation) go through this accessor so a
        behind-our-back graph mutation rebuilds the mirror first.
        """
        self._sync()
        return self._kernel

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def set_observers(self, tracer=None, metrics=None) -> None:
        """Attach a tracer and/or metrics registry after construction.

        Timing is recorded only while ``tracer.enabled`` (or a registry
        is attached): the disabled path pays two attribute lookups per
        fresh verdict.  The tracer is propagated to the kernel mirror so
        its ball-BFS and span-verdict spans nest under the engine's.
        """
        if tracer is not None:
            self.tracer = tracer
        if metrics is not None:
            self.metrics = metrics
        if self._kernel is not None:
            self._kernel.tracer = self.tracer if self.tracer.enabled else None

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Flush everything if the graph was mutated behind our back."""
        if self.graph.version != self._version:
            self.invalidate_all()

    def invalidate_all(self) -> None:
        """Drop every cached verdict (correct but expensive)."""
        self._drop_verdicts()
        if self.use_kernel:
            self._kernel = self.graph.csr()
            if self.tracer.enabled:
                self._kernel.tracer = self.tracer
        self._version = self.graph.version

    def _drop_verdicts(self) -> None:
        self.counters.invalidations += len(self._verdicts)
        self._verdicts.clear()

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def delete_vertex(self, v: int) -> Set[int]:
        """Remove ``v`` in place; evicts only the verdicts it can change.

        Removing ``v`` cannot create or destroy paths of length ``<= k``
        between vertices farther than ``k`` from ``v``, so only centers
        inside ``v``'s k-ball (``v`` included) lose their verdicts.
        """
        self._sync()
        if self._verdicts:
            dist = self.graph.bfs_distances(v, cutoff=self.radius)
            self.counters.ball_computations += 1
            self.counters.bfs_expansions += len(dist)
            for u in dist:
                if self._verdicts.pop(u, None) is not None:
                    self.counters.invalidations += 1
        if self.use_kernel:
            nbrs = self._kernel.delete_vertex(v)
        else:
            nbrs = self.graph.remove_vertex(v)
        self._version = self.graph.version
        return nbrs

    def delete_edge(self, u: int, v: int) -> None:
        self._sync()
        self._drop_verdicts()
        if self.use_kernel:
            self._kernel.delete_edge(u, v)
        else:
            self.graph.remove_edge(u, v)
        self._version = self.graph.version

    def add_edge(self, u: int, v: int) -> None:
        self._sync()
        self._drop_verdicts()
        if self.use_kernel:
            self._kernel.add_edge(u, v)
        else:
            self.graph.add_edge(u, v)
        self._version = self.graph.version

    def add_vertex(self, v: int) -> None:
        # A fresh isolated vertex changes no distances: nothing to flush.
        self._sync()
        if self.use_kernel:
            self._kernel.add_vertex(v)
        else:
            self.graph.add_vertex(v)
        self._version = self.graph.version

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def ball(self, v: int, radius: Optional[int] = None) -> FrozenSet[int]:
        """Vertices within ``radius`` hops of ``v`` — including ``v``.

        ``radius`` defaults to the engine's deletability radius ``k``.
        """
        self._sync()
        if radius is None:
            r = self.radius
        elif radius < 0:
            raise ValueError("radius must be non-negative")
        else:
            r = radius
        if self.use_kernel:
            ball = self._kernel.ball_ids(v, r)
        else:
            ball = frozenset(self.graph.bfs_distances(v, cutoff=r))
        self.counters.ball_computations += 1
        self.counters.bfs_expansions += len(ball)
        sanitizer = current_sanitizer()
        if sanitizer is not None:
            sanitizer.check_ball(self.graph, v, r, ball)
        return ball

    def punctured_neighborhood(self, v: int) -> FrozenSet[int]:
        """``N^k(v)``: the k-ball of ``v`` without ``v`` itself."""
        return self.ball(v, self.radius) - {v}

    def deletable(self, v: int) -> bool:
        """Definition 5: is ``v`` void-preserving deletable (cached)?"""
        if self.owned is not None and v not in self.owned:
            raise OwnedRegionError(
                f"verdict requested for {v} outside the engine's owned region"
            )
        self._sync()
        self.counters.deletability_queries += 1
        cached = self._verdicts.get(v)
        if cached is not None:
            self.counters.deletability_cache_hits += 1
            sanitizer = current_sanitizer()
            if sanitizer is not None:
                sanitizer.check_cached_verdict(self.graph, v, self.tau, cached)
            return cached
        self.counters.deletability_tests += 1
        tracer = self.tracer
        metrics = self.metrics
        if tracer.enabled or metrics is not None:
            # Observed path: span + wall-time histogram per fresh verdict.
            start = perf_counter()
            if tracer.enabled:
                with tracer.trace("engine.verdict", vertex=v):
                    verdict = self._fresh_verdict(v)
            else:
                verdict = self._fresh_verdict(v)
            if metrics is not None:
                metrics.observe(
                    "engine.verdict_wall_s", perf_counter() - start, volatile=True
                )
        else:
            verdict = self._fresh_verdict(v)
        self._verdicts[v] = verdict
        sanitizer = current_sanitizer()
        if sanitizer is not None:
            sanitizer.check_fresh_verdict(self.graph, v, self.tau, verdict)
        return verdict

    def _fresh_verdict(self, v: int) -> bool:
        if self.use_kernel:
            # Slot-native path: the punctured neighbourhood never leaves
            # slot space (no frozensets, no id round-trips).
            kernel = self._kernel
            slots = kernel.punctured_ball_slots(v, self.radius)
            self.counters.ball_computations += 1
            self.counters.bfs_expansions += len(slots) + 1
            if not slots:
                # An isolated vertex supports no cycles; deleting it is safe.
                return True
            self.counters.span_computations += 1
            return kernel.span_connected_verdict(slots, self.tau)
        return _view_verdict(
            self.graph, self.punctured_neighborhood(v), self.tau, self.counters
        )

    def boundary_partitionable(self, boundary_cycles) -> bool:
        """Propositions 2/3 on the engine's *current* graph.

        The full-graph :class:`ShortCycleSpan` is cached per graph
        version, so repeated criterion checks between mutations are free.
        """
        from repro.core.criterion import is_tau_partitionable

        return is_tau_partitionable(
            self.graph, boundary_cycles, self.tau, span=self.full_span()
        )

    def full_span(self) -> ShortCycleSpan:
        """The short-cycle span of the whole graph (version-cached)."""
        self._sync()
        if self._full_span is None or self._full_span_version != self.graph.version:
            self.counters.span_computations += 1
            self._full_span = ShortCycleSpan(self.graph, self.tau)
            self._full_span_version = self.graph.version
        return self._full_span

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def fork(self) -> "LocalTopologyEngine":
        """An engine on an independent graph copy with warm verdicts.

        Shares the counters object with the parent (so accounting
        aggregates), but copies the graph and the verdict cache —
        mutations in the fork leave the parent untouched.  Used by the
        lifetime rotation: each shift schedules on a fork and inherits
        every verdict that is still valid.
        """
        self._sync()
        clone = LocalTopologyEngine(
            self.graph.copy(),
            self.tau,
            counters=self.counters,
            use_kernel=self.use_kernel,
            tracer=self.tracer,
            metrics=self.metrics,
            owned=self.owned,
        )
        clone._verdicts = dict(self._verdicts)
        return clone


def _view_verdict(
    graph: NetworkGraph,
    neighborhood: FrozenSet[int],
    tau: int,
    counters: Optional[TopologyCounters],
) -> bool:
    """Definition 5 on the dict oracle: connected and short-cycle spanned."""
    if not neighborhood:
        # An isolated vertex supports no cycles; deleting it is safe.
        return True
    view = graph.subgraph_view(neighborhood)
    if not view.is_connected():
        return False
    if counters is not None:
        counters.span_computations += 1
    return ShortCycleSpan(view, tau).spans_cycle_space()


def punctured_deletable(
    graph: NetworkGraph,
    v: int,
    tau: int,
    *,
    counters: Optional[TopologyCounters] = None,
) -> bool:
    """One-shot Definition 5 test, copy-free, without engine state.

    The stateless sibling of :meth:`LocalTopologyEngine.deletable`, used
    by call sites that test a single vertex on an arbitrary graph.
    """
    k = neighborhood_radius(tau)
    dist = graph.bfs_distances(v, cutoff=k)
    if counters is not None:
        counters.deletability_queries += 1
        counters.deletability_tests += 1
        counters.ball_computations += 1
        counters.bfs_expansions += len(dist)
    return _view_verdict(graph, frozenset(dist) - {v}, tau, counters)
