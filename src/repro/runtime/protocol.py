"""The distributed DCC protocol over the message-passing simulator.

Faithful to Section V-B: each internal node gathers the connectivity among
its k-hop neighbours (k = ceil(tau/2)) by k rounds of adjacency gossip,
locally decides deletability by the void-preserving transformation, and the
deletions are parallelised by electing an m-hop MIS (m = k + 1) among the
candidates with random priorities.  Winners flood a deletion notice k hops
so affected nodes update their local views, and the loop repeats until no
node can be deleted.

The centralized scheduler (:func:`repro.core.scheduler.dcc_schedule`)
computes fixpoints of the same deletion rule without the messaging; the
integration tests check both produce valid, non-redundant coverage sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.vpt import deletion_radius
from repro.network.graph import NetworkGraph
from repro.runtime.messages import (
    DeletePayload,
    Message,
    MessageKind,
    TopologyPayload,
)
from repro.runtime.mis import distributed_mis
from repro.runtime.simulator import Simulator
from repro.runtime.stats import RuntimeStats
from repro.topology import LocalTopologyEngine, TopologyCounters


@dataclass
class DistributedResult:
    """Outcome of a distributed DCC execution."""

    active: NetworkGraph
    removed: List[int]
    iterations: int
    stats: RuntimeStats

    @property
    def num_active(self) -> int:
        return len(self.active)


class _LocalView:
    """What one node knows: adjacency rows learned through gossip.

    A thin adapter over a per-node :class:`LocalTopologyEngine`: the rows
    feed an incrementally-maintained local graph, and the node's
    deletability verdict is served by the engine's caches — it is only
    recomputed after a deletion inside the node's own k-ball, instead of
    once per protocol iteration.
    """

    __slots__ = ("adjacency", "_engine")

    def __init__(
        self,
        tau: Optional[int] = None,
        counters: Optional[TopologyCounters] = None,
        tracer=None,
        metrics=None,
    ) -> None:
        self.adjacency: Dict[int, FrozenSet[int]] = {}
        self._engine: Optional[LocalTopologyEngine] = None
        if tau is not None:
            self._engine = LocalTopologyEngine(
                NetworkGraph(),
                tau,
                counters=counters,
                tracer=tracer,
                metrics=metrics,
            )

    def merge(self, rows: Tuple[Tuple[int, FrozenSet[int]], ...]) -> bool:
        changed = False
        for node, nbrs in rows:
            if node not in self.adjacency:
                self.adjacency[node] = nbrs
                changed = True
                if self._engine is not None:
                    self._engine.add_vertex(node)
                    for u in nbrs:
                        if not self._engine.graph.has_edge(node, u):
                            self._engine.add_vertex(u)
                            self._engine.add_edge(node, u)
        return changed

    def forget(self, node: int) -> None:
        self.adjacency.pop(node, None)
        self.adjacency = {
            v: nbrs - {node} if node in nbrs else nbrs
            for v, nbrs in self.adjacency.items()
        }
        if self._engine is not None and node in self._engine.graph:
            self._engine.delete_vertex(node)

    def deletable(self, node: int) -> bool:
        """Definition 5 verdict for ``node`` within this local view."""
        if self._engine is None:
            raise ValueError("view was built without a confine size")
        return self._engine.deletable(node)

    def as_graph(self) -> NetworkGraph:
        if self._engine is not None:
            return self._engine.graph
        graph = NetworkGraph()
        known = set(self.adjacency)
        for v, nbrs in self.adjacency.items():
            graph.add_vertex(v)
            for u in nbrs:
                if u in known:
                    graph.add_edge(u, v)
                else:
                    graph.add_vertex(u)
                    graph.add_edge(u, v)
        return graph


class DistributedDCC:
    """Runs the DCC protocol on a simulated network."""

    def __init__(
        self,
        graph: NetworkGraph,
        protected: Iterable[int],
        tau: int,
        rng: Optional[random.Random] = None,
        max_iterations: int = 10_000,
        seed: int = 0,
        tracer=None,
        metrics=None,
    ) -> None:
        self.sim = Simulator(graph, tracer=tracer, metrics=metrics)
        # Share the simulator's resolved observers (ambient by default).
        self.tracer = self.sim.tracer
        self.metrics = self.sim.metrics
        self.protected = set(protected)
        self.tau = tau
        self.k = deletion_radius(tau)
        self.m = self.k + 1
        self.rng = rng if rng is not None else random.Random(seed)
        self.max_iterations = max_iterations
        self.views: Dict[int, _LocalView] = {}
        # One counters object shared by every node's engine: accounting
        # aggregates into the run's RuntimeStats.
        self.counters = self.sim.stats.topology

    # ------------------------------------------------------------------
    def run(self) -> DistributedResult:
        tracer = self.tracer
        with tracer.trace("protocol.discovery", k=self.k):
            self._discover_topology()
        removed: List[int] = []
        iterations = 0
        while iterations < self.max_iterations:
            iterations += 1
            self.sim.stats.deletion_iterations += 1
            with tracer.trace(
                "protocol.iteration", round=iterations
            ) as iteration:
                candidates = self._local_candidates()
                iteration.set(candidates=len(candidates))
                if not candidates:
                    break
                winners = distributed_mis(
                    self.sim, candidates, self.m, self.rng
                )
                iteration.set(winners=len(winners))
                self._announce_deletions(winners)
                for winner in winners:
                    self.sim.deactivate(winner)
                    self.views.pop(winner, None)
                removed.extend(winners)
        if self.metrics is not None:
            self.metrics.inc("protocol.runs")
            self.metrics.inc("protocol.deletions", len(removed))
            self.metrics.absorb_runtime(self.sim.stats)
        return DistributedResult(
            # The surviving topology is collected for the caller *after*
            # the protocol fixpoint — no node decision reads it.
            # repro: allow[global-graph-read] result assembly, post-fixpoint
            active=self.sim.graph.copy(),
            removed=removed,
            iterations=iterations,
            stats=self.sim.stats,
        )

    # ------------------------------------------------------------------
    def _discover_topology(self) -> None:
        """k rounds of adjacency gossip; then every node knows its k-ball.

        After round ``r`` a node holds the neighbour lists of everything
        within ``r`` hops, so ``k`` rounds suffice for the edges among its
        k-hop neighbours (including those between two depth-k nodes).
        """
        sim = self.sim
        for node in sim.active:
            view = _LocalView(
                self.tau,
                counters=self.counters,
                tracer=self.tracer,
            )
            # A radio hears its one-hop neighbours for free; this seeds
            # repro: allow[global-graph-read] bootstrap, round-0 gossip only
            view.merge(((node, frozenset(sim.graph.neighbors(node))),))
            self.views[node] = view
        for __ in range(self.k):
            for node in sim.active:
                rows = tuple(self.views[node].adjacency.items())
                sim.send(
                    Message(
                        MessageKind.TOPOLOGY,
                        src=node,
                        payload=TopologyPayload(adjacency=rows),
                    )
                )
            sim.step()
            for node in sim.active:
                view = self.views[node]
                for message in sim.inbox(node):
                    if message.kind is MessageKind.TOPOLOGY:
                        view.merge(message.payload.adjacency)
                    else:
                        sim.stats.record_drop(message.kind.value)

    def _local_candidates(self) -> List[int]:
        """Nodes that decide — from their own view — they are deletable.

        The verdicts come from each node's engine cache: a node whose
        k-ball saw no deletion since its last test answers without any
        recomputation.
        """
        out: List[int] = []
        for node in sorted(self.sim.active):
            if node in self.protected:
                continue
            view = self.views[node]
            if node not in view.as_graph():
                continue
            if view.deletable(node):
                out.append(node)
        return out

    def _announce_deletions(self, winners: List[int]) -> None:
        """Winners flood DELETE k hops; receivers update their views."""
        if not winners:
            return
        sim = self.sim
        for winner in winners:
            sim.send(
                Message(
                    MessageKind.DELETE,
                    src=winner,
                    payload=DeletePayload(origin=winner, ttl=self.k - 1),
                )
            )
        relayed: Dict[int, Set[int]] = {}
        for __ in range(self.k):
            sim.step()
            for node in list(sim.active):
                for message in sim.inbox(node):
                    if message.kind is not MessageKind.DELETE:
                        sim.stats.record_drop(message.kind.value)
                        continue
                    payload = message.payload
                    self.views[node].forget(payload.origin)
                    seen = relayed.setdefault(node, set())
                    if payload.ttl > 0 and payload.origin not in seen:
                        seen.add(payload.origin)
                        sim.send(
                            Message(
                                MessageKind.DELETE,
                                src=node,
                                payload=DeletePayload(
                                    origin=payload.origin, ttl=payload.ttl - 1
                                ),
                            )
                        )


def distributed_dcc_schedule(
    graph: NetworkGraph,
    protected: Iterable[int],
    tau: int,
    rng: Optional[random.Random] = None,
    seed: int = 0,
) -> DistributedResult:
    """Convenience wrapper: run the full distributed DCC protocol.

    Reproducible by default: without an explicit ``rng`` the run uses
    ``random.Random(seed)``.
    """
    return DistributedDCC(graph, protected, tau, rng=rng, seed=seed).run()
