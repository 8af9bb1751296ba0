"""The incremental local-topology engine.

Every coverage decision in the paper reduces to one primitive: extract a
punctured k-hop neighbourhood and decide whether short cycles span its
GF(2) cycle space (Definition 5 / Theorem 4).  The seed code recomputed
that primitive independently at four call sites; this engine owns it
once, incrementally:

* **k-ball extraction with dirty-region invalidation.**  Hop balls are
  cached per ``(vertex, radius)`` with a reverse *owner index* (member
  vertex -> cached balls containing it).  A mutation touching vertex
  ``w`` can only change balls that already contain ``w`` — the k-ball
  locality invariant the seed's ``DeletabilityCache`` exploited, here
  generalised to every radius and to edge mutations — so invalidation is
  an index lookup, not a BFS.
* **Signature-memoised span verdicts.**  The deletability verdict is a
  pure function of ``(tau, punctured subgraph)``; verdicts are memoised
  on a canonical subgraph signature in a :class:`SpanMemo` that can be
  shared across engines (e.g. between rotation shifts, or between the
  per-node engines of the distributed protocol).
* **Copy-free neighbourhood graphs.**  Neighbourhood subgraphs are
  :class:`~repro.network.graph.SubgraphView` objects over the live
  graph, so the hot loop no longer pays ``induced_subgraph`` full-copy
  costs.
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
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.checks.sanitizer import current_sanitizer
from repro.cycles.horton import ShortCycleSpan
from repro.network.graph import NetworkGraph
from repro.obs.tracer import NULL_TRACER
from repro.topology.counters import TopologyCounters
from repro.topology.radii import neighborhood_radius
from repro.topology.signature import SpanMemo

BallKey = Tuple[int, int]  # (center, radius)


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
    span_memo:
        Optional shared :class:`SpanMemo` of signature-keyed verdicts.
    cache_balls / cache_verdicts / memoize_spans / use_kernel:
        Feature switches.  Benchmarks switch them off to reproduce the
        seed's recompute-from-scratch cost model (and, for
        ``use_kernel``, the PR 1 dict-based cost model) against
        identical schedules.  ``cache_balls`` defaults to the *inverse*
        of ``use_kernel``: a kernel BFS over slot arrays is cheaper than
        the ball cache's owner-index bookkeeping plus invalidation
        churn, so kernel engines recompute balls and fall back to the
        BFS-eviction policy for verdict invalidation, while dict-based
        engines keep the cache.  ``memoize_spans`` defaults to whether a
        *shared* ``span_memo`` was supplied (always on for dict-based
        engines): a private memo on a kernel engine pays the signature
        scan on every fresh verdict and almost never hits, because the
        per-vertex verdict cache already absorbs exact repeats.  Pass
        explicit values to override either default.
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
        span_memo: Optional[SpanMemo] = None,
        cache_balls: Optional[bool] = None,
        cache_verdicts: bool = True,
        memoize_spans: Optional[bool] = None,
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
        self.span_memo = span_memo if span_memo is not None else SpanMemo()
        self.cache_balls = (not use_kernel) if cache_balls is None else cache_balls
        self.cache_verdicts = cache_verdicts
        if memoize_spans is None:
            memoize_spans = span_memo is not None or not use_kernel
        self.memoize_spans = memoize_spans
        self.use_kernel = use_kernel
        self._kernel = graph.csr() if use_kernel else None
        if self._kernel is not None and self.tracer.enabled:
            self._kernel.tracer = self.tracer
        self._balls: Dict[BallKey, FrozenSet[int]] = {}
        self._owners: Dict[int, Set[BallKey]] = {}
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
        """Drop every cached ball and verdict (correct but expensive)."""
        self.counters.invalidations += len(self._balls) + len(self._verdicts)
        self._balls.clear()
        self._owners.clear()
        self._verdicts.clear()
        if self.use_kernel:
            self._kernel = self.graph.csr()
            if self.tracer.enabled:
                self._kernel.tracer = self.tracer
        self._version = self.graph.version

    def _invalidate_member(self, w: int) -> None:
        """Drop every cached ball containing ``w`` (and its verdicts).

        This is the dirty-region invariant: a mutation at ``w`` can only
        affect hop balls that already contain ``w`` — removing ``w`` (or
        an edge at ``w``) cannot create or destroy paths of length
        ``<= r`` from centers farther than ``r`` away, and a new edge at
        ``w`` only shortens paths that pass through ``w``.
        """
        keys = self._owners.pop(w, None)
        if not keys:
            # A verdict can exist without its ball being cached (ball
            # caching switched off); the center's own verdict still dies.
            if self._verdicts.pop(w, None) is not None:
                self.counters.invalidations += 1
            return
        for key in keys:
            ball = self._balls.pop(key, None)
            if ball is None:
                continue
            self.counters.invalidations += 1
            center, radius = key
            for member in ball:
                if member != w:
                    owned = self._owners.get(member)
                    if owned is not None:
                        owned.discard(key)
            if radius == self.radius:
                if self._verdicts.pop(center, None) is not None:
                    self.counters.invalidations += 1
        if self._verdicts.pop(w, None) is not None:
            self.counters.invalidations += 1

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def delete_vertex(self, v: int) -> Set[int]:
        """Remove ``v`` in place; invalidates only the dirty region."""
        self._sync()
        if not self.cache_balls and self._verdicts:
            # Without an owner index, fall back to the seed's policy:
            # BFS the k-ball of the deleted vertex and evict its verdicts.
            dist = self.graph.bfs_distances(v, cutoff=self.radius)
            self.counters.ball_computations += 1
            self.counters.bfs_expansions += len(dist)
            for u in dist:
                if self._verdicts.pop(u, None) is not None:
                    self.counters.invalidations += 1
        self._invalidate_member(v)
        if self.use_kernel:
            nbrs = self._kernel.delete_vertex(v)
        else:
            nbrs = self.graph.remove_vertex(v)
        self._version = self.graph.version
        return nbrs

    def delete_edge(self, u: int, v: int) -> None:
        self._sync()
        if not self.cache_balls and self._verdicts:
            self._verdicts.clear()
        self._invalidate_member(u)
        self._invalidate_member(v)
        if self.use_kernel:
            self._kernel.delete_edge(u, v)
        else:
            self.graph.remove_edge(u, v)
        self._version = self.graph.version

    def add_edge(self, u: int, v: int) -> None:
        self._sync()
        if not self.cache_balls and self._verdicts:
            self._verdicts.clear()
        self._invalidate_member(u)
        self._invalidate_member(v)
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

        Cached with owner-index invalidation; ``radius`` defaults to the
        engine's deletability radius ``k``.
        """
        self._sync()
        if radius is None:
            r = self.radius
        elif radius < 0:
            raise ValueError("radius must be non-negative")
        else:
            r = radius
        key = (v, r)
        cached = self._balls.get(key)
        if cached is not None:
            self.counters.ball_cache_hits += 1
            return cached
        if self.use_kernel:
            ball = self._kernel.ball_ids(v, r)
        else:
            ball = frozenset(self.graph.bfs_distances(v, cutoff=r))
        self.counters.ball_computations += 1
        self.counters.bfs_expansions += len(ball)
        sanitizer = current_sanitizer()
        if sanitizer is not None:
            sanitizer.check_ball(self.graph, v, r, ball)
        if self.cache_balls:
            self._balls[key] = ball
            for member in ball:
                self._owners.setdefault(member, set()).add(key)
        return ball

    def punctured_neighborhood(self, v: int) -> FrozenSet[int]:
        """``N^k(v)``: the k-ball of ``v`` without ``v`` itself."""
        return self.ball(v, self.radius) - {v}

    def blocked(self, v: int, radius: int, blockers: Set[int]) -> bool:
        """Does the ``radius``-ball of ``v`` intersect ``blockers``?

        The MIS separation predicate of the parallel scheduler.  On an
        uncached kernel engine this is an early-exit slot BFS — no ball
        materialisation at all; otherwise it reuses the (cached) ball.
        """
        self._sync()
        if self.use_kernel and not self.cache_balls:
            if not blockers:
                return False
            self.counters.ball_computations += 1
            hit, expansions = self._kernel.ball_intersects(v, radius, blockers)
            self.counters.bfs_expansions += expansions
            sanitizer = current_sanitizer()
            if sanitizer is not None:
                sanitizer.check_ball_intersects(
                    self.graph, v, radius, blockers, hit
                )
            return hit
        return not blockers.isdisjoint(self.ball(v, radius))

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
        if self.cache_verdicts:
            self._verdicts[v] = verdict
        sanitizer = current_sanitizer()
        if sanitizer is not None:
            sanitizer.check_fresh_verdict(self.graph, v, self.tau, verdict)
        return verdict

    def _fresh_verdict(self, v: int) -> bool:
        if self.use_kernel and not self.cache_balls:
            # Slot-native path: the punctured neighbourhood never leaves
            # slot space (no frozensets, no id round-trips).
            kernel = self._kernel
            slots = kernel.punctured_ball_slots(v, self.radius)
            self.counters.ball_computations += 1
            self.counters.bfs_expansions += len(slots) + 1
            return self._verdict_from_slots(kernel, slots)
        return self._neighborhood_verdict(self.punctured_neighborhood(v))

    def _verdict_from_slots(self, kernel, slots: List[int]) -> bool:
        if not slots:
            # An isolated vertex supports no cycles; deleting it is safe.
            return True
        mrows = None
        if self.memoize_spans:
            mrows, sig = kernel.member_rows_signature(slots)
            memoized = self.span_memo.get(self.tau, sig)
            if memoized is not None:
                self.counters.span_memo_hits += 1
                return memoized
            self.counters.span_memo_misses += 1
        self.counters.span_computations += 1
        verdict = kernel.span_connected_verdict(slots, self.tau, mrows)
        if self.memoize_spans:
            self.counters.span_memo_evictions += self.span_memo.put(
                self.tau, sig, verdict
            )
        return verdict

    def _neighborhood_verdict(self, neighborhood: FrozenSet[int]) -> bool:
        if not neighborhood:
            # An isolated vertex supports no cycles; deleting it is safe.
            return True
        if self.use_kernel:
            kernel = self._kernel
            return self._verdict_from_slots(kernel, kernel.member_slots(neighborhood))
        view = self.graph.subgraph_view(neighborhood)
        if self.memoize_spans:
            sig = view.signature()
            memoized = self.span_memo.get(self.tau, sig)
            if memoized is not None:
                self.counters.span_memo_hits += 1
                return memoized
            self.counters.span_memo_misses += 1
        verdict = view.is_connected()
        if verdict:
            self.counters.span_computations += 1
            verdict = ShortCycleSpan(view, self.tau).spans_cycle_space()
        if self.memoize_spans:
            self.counters.span_memo_evictions += self.span_memo.put(
                self.tau, sig, verdict
            )
        return verdict

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
        """An engine on an independent graph copy with warm caches.

        Shares the span memo and the counters object with the parent (so
        accounting aggregates), but copies the graph, ball cache, owner
        index and verdict cache — mutations in the fork leave the parent
        untouched.  Used by the lifetime rotation: each shift schedules
        on a fork and inherits every verdict that is still valid.
        """
        self._sync()
        clone = LocalTopologyEngine(
            self.graph.copy(),
            self.tau,
            counters=self.counters,
            span_memo=self.span_memo,
            cache_balls=self.cache_balls,
            cache_verdicts=self.cache_verdicts,
            memoize_spans=self.memoize_spans,
            use_kernel=self.use_kernel,
            tracer=self.tracer,
            metrics=self.metrics,
            owned=self.owned,
        )
        clone._balls = dict(self._balls)
        clone._owners = {m: set(keys) for m, keys in self._owners.items()}
        clone._verdicts = dict(self._verdicts)
        return clone


def punctured_deletable(
    graph: NetworkGraph,
    v: int,
    tau: int,
    *,
    counters: Optional[TopologyCounters] = None,
    span_memo: Optional[SpanMemo] = None,
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
    neighborhood = frozenset(dist) - {v}
    if not neighborhood:
        return True
    view = graph.subgraph_view(neighborhood)
    sig = None
    if span_memo is not None:
        sig = view.signature()
        memoized = span_memo.get(tau, sig)
        if memoized is not None:
            if counters is not None:
                counters.span_memo_hits += 1
            return memoized
        if counters is not None:
            counters.span_memo_misses += 1
    verdict = view.is_connected()
    if verdict:
        if counters is not None:
            counters.span_computations += 1
        verdict = ShortCycleSpan(view, tau).spans_cycle_space()
    if span_memo is not None:
        span_memo.put(tau, sig, verdict)
    return verdict
