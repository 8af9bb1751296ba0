"""The DCC scheduler: maximal vertex deletion for sparse coverage sets.

Given the connectivity graph, the protected boundary nodes and a confine
size ``tau``, the scheduler repeatedly deletes internal vertices that pass
the void-preserving test (Definition 5) until none remains deletable.  Two
execution modes produce the same *kind* of fixed point:

* ``parallel`` — the paper's round structure: an m-hop MIS
  (``m = ceil(tau/2) + 1``) of the deletable internal nodes is selected at
  random, and all MIS members delete themselves simultaneously.  Nodes at
  pairwise distance >= m have disjoint deletion neighbourhoods, so the
  parallel round is equivalent to some sequential order.  The MIS is drawn
  lazily: vertices are visited in a random priority order, and a vertex
  already inside a winner's separation ball is skipped *without* the
  expensive deletability test (it cannot join the MIS regardless).  The
  induced order on the deletable set is still a uniform permutation, so the
  winner-set distribution matches the eager draw exactly.
* ``sequential`` — a centralized emulation that deletes one uniformly random
  deletable vertex at a time; cheaper in total work, used for large
  simulations.  The victim is drawn lazily: vertices are visited in a random
  order and the first deletable one is removed, which is the same uniform
  distribution over the deletable set but skips testing the vertices behind
  the winner — repeated invalidations of a vertex coalesce into a single
  retest instead of one per deletion.

All local-topology work (k-ball extraction, deletability verdicts, MIS
separation balls) runs through a :class:`repro.topology.LocalTopologyEngine`,
which caches results and invalidates only the dirty region of each deletion.
The engine's instrumentation counters ride on :class:`ScheduleResult`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, List, Optional, Sequence, Set

from repro.core.criterion import VertexCycle, is_tau_partitionable
from repro.network.graph import NetworkGraph
from repro.obs.tracer import current_metrics, current_tracer
from repro.topology import LocalTopologyEngine, TopologyCounters, mis_separation


@dataclass
class ScheduleResult:
    """Outcome of a DCC scheduling run."""

    active: NetworkGraph
    removed: List[int]
    tau: int
    rounds: int
    deletions_per_round: List[int] = field(default_factory=list)
    deletability_tests: int = 0
    counters: Optional[TopologyCounters] = None
    #: sharding account (:class:`repro.shard.scheduler.ShardStats`),
    #: ``None`` for unsharded runs.
    shard_stats: Optional[object] = None

    @property
    def coverage_set(self) -> Set[int]:
        return self.active.vertex_set()

    @property
    def num_active(self) -> int:
        return len(self.active)

    @property
    def num_removed(self) -> int:
        return len(self.removed)


def mis_by_distance(
    graph: NetworkGraph,
    candidates: Sequence[int],
    min_separation: int,
    rng: random.Random,
    engine: Optional[LocalTopologyEngine] = None,
) -> List[int]:
    """A maximal set of candidates at pairwise hop distance >= min_separation.

    Emulates the distributed random-priority MIS: candidates are visited in
    a random order (the priority draw) and join the set when no earlier
    member lies within ``min_separation - 1`` hops.  With an ``engine``, the
    separation balls come from its CSR mirror (and land in its counters).
    """
    order = list(candidates)
    rng.shuffle(order)
    selected: Set[int] = set()
    out: List[int] = []
    for v in order:
        if engine is not None:
            ball = engine.ball(v, min_separation - 1)
        else:
            ball = graph.bfs_distances(v, cutoff=min_separation - 1)
        if selected.isdisjoint(ball):
            selected.add(v)
            out.append(v)
    return out


def dcc_schedule(
    graph: NetworkGraph,
    protected: Iterable[int],
    tau: int,
    rng: Optional[random.Random] = None,
    mode: str = "parallel",
    seed: int = 0,
    engine: Optional[LocalTopologyEngine] = None,
    workers: Optional[int] = 1,
    tracer=None,
    metrics=None,
    shards: Optional[int] = None,
) -> ScheduleResult:
    """Compute a sparse tau-confine coverage set by maximal vertex deletion.

    ``protected`` nodes (boundary nodes and any cone apexes) are never
    deleted.  The returned :class:`ScheduleResult` holds the reduced graph;
    by Theorem 5 its boundary is still tau-partitionable whenever the input
    boundary was, and by Theorem 6 the set is non-redundant when the input
    graph's irreducible cycles are bounded by ``tau``.

    Runs are reproducible by default: without an explicit ``rng`` the
    scheduler uses ``random.Random(seed)`` (``seed=0``).  ``graph`` is never
    mutated unless a prebuilt ``engine`` is supplied, in which case the
    engine's graph is consumed in place (that is the point: callers like
    boundary repair share one engine across criterion checks and
    scheduling).

    ``shards`` partitions the deployment into halo-exchange region
    shards (see :mod:`repro.shard`) and runs the round-synchronous
    sharded coordinator instead of the monolithic loop; the schedule is
    vertex-identical either way.  Sharded runs require ``parallel`` mode
    and no prebuilt ``engine``.

    ``workers`` sizes the shard pool only: ``1`` hosts every shard
    in-process, ``0``/``None`` auto-detects, larger values run the
    shards on persistent worker processes (see :mod:`repro.parallel`).
    Unsharded runs never spawn processes — their lazy round loop is
    serial in both modes — so ``workers`` does not affect them, but a
    negative value is rejected in every mode.

    ``tracer`` / ``metrics`` default to the ambient observers
    (:func:`repro.obs.tracer.observe`); a run with both disabled pays
    only the null-tracer guards.  When observed, every round records a
    ``scheduler.round`` span with nested candidate-discovery, MIS-draw
    and deletion phases, and the engine's counter delta is absorbed into
    the registry under ``topology.*``.
    """
    if mode not in ("parallel", "sequential"):
        raise ValueError(f"unknown mode {mode!r}")
    if workers is not None and workers < 0:
        raise ValueError("workers must be >= 0 (0 = auto-detect)")
    rng = rng if rng is not None else random.Random(seed)
    tracer = tracer if tracer is not None else current_tracer()
    metrics = metrics if metrics is not None else current_metrics()
    if shards is not None:
        if mode != "parallel":
            raise ValueError("sharded scheduling requires parallel mode")
        if engine is not None:
            raise ValueError("sharded scheduling cannot reuse a prebuilt engine")
        from repro.shard.scheduler import sharded_dcc_schedule

        return sharded_dcc_schedule(
            graph,
            protected,
            tau,
            rng,
            shards,
            workers=workers if workers is not None else 0,
            tracer=tracer,
            metrics=metrics,
        )
    if engine is None:
        engine = LocalTopologyEngine(
            graph.copy(), tau, tracer=tracer, metrics=metrics
        )
    elif engine.tau != tau:
        raise ValueError("engine was built for a different tau")
    elif tracer.enabled or metrics is not None:
        engine.set_observers(tracer=tracer, metrics=metrics)
    work = engine.graph
    protected_set = set(protected)
    missing = protected_set - work.vertex_set()
    if missing:
        raise KeyError(f"protected nodes not in graph: {sorted(missing)[:5]}")
    removed: List[int] = []
    deletions_per_round: List[int] = []
    separation = mis_separation(tau)
    counters_before = engine.counters.as_dict() if metrics is not None else None
    round_no = 0

    while True:
        round_start = perf_counter()
        with tracer.trace("scheduler.round", round=round_no, mode=mode):
            if mode == "parallel":
                # Lazy MIS: one random priority order over the internal
                # vertices; a vertex blocked by an earlier winner skips the
                # deletability test entirely.  A blocked vertex can never be
                # selected and never blocks anyone else, so the winners are
                # exactly the greedy MIS over the induced (uniform) order on
                # the deletable set — the eager candidates-then-MIS draw's
                # distribution, minus its wasted span tests.  Blocking is
                # marked from the winner's side: hop distance is symmetric,
                # so ``v`` lies in some winner's separation ball iff a winner
                # lies in ``v``'s — one ball extraction per *winner* (and an
                # O(1) membership probe per candidate) instead of one BFS per
                # candidate.
                with tracer.trace(
                    "scheduler.candidates", round=round_no
                ) as discovery:
                    order = [
                        v for v in work.vertices() if v not in protected_set
                    ]
                    rng.shuffle(order)
                    discovery.set(candidates=len(order))
                with tracer.trace("scheduler.mis_draw", round=round_no) as draw:
                    blocked: Set[int] = set()
                    batch = []
                    for v in order:
                        if v in blocked:
                            continue
                        if engine.deletable(v):
                            batch.append(v)
                            blocked |= engine.ball(v, separation - 1)
                    draw.set(winners=len(batch))
                if not batch:
                    break
            else:
                # Lazy uniform draw: the first deletable vertex of a
                # uniformly random permutation is uniform over the
                # deletable set.
                with tracer.trace("scheduler.mis_draw", round=round_no) as draw:
                    order = [
                        v for v in work.vertices() if v not in protected_set
                    ]
                    rng.shuffle(order)
                    batch = []
                    for v in order:
                        if engine.deletable(v):
                            batch.append(v)
                            break
                    draw.set(winners=len(batch))
                if not batch:
                    break
            with tracer.trace(
                "scheduler.deletion", round=round_no, deletions=len(batch)
            ):
                for v in batch:
                    engine.delete_vertex(v)
                    removed.append(v)
            deletions_per_round.append(len(batch))
        if metrics is not None:
            metrics.observe(
                "scheduler.round_wall_s",
                perf_counter() - round_start,
                volatile=True,
            )
            metrics.observe("scheduler.deletions_per_round", len(batch))
            if mode == "parallel":
                metrics.observe("scheduler.mis_size", len(batch))
        round_no += 1

    if metrics is not None:
        metrics.inc("scheduler.runs")
        metrics.inc("scheduler.rounds", len(deletions_per_round))
        metrics.inc("scheduler.deletions", len(removed))
        after = engine.counters.as_dict()
        metrics.absorb_topology(
            TopologyCounters(
                **{
                    name: after[name] - counters_before[name]
                    for name in after
                }
            )
        )

    return ScheduleResult(
        active=work,
        removed=removed,
        tau=tau,
        rounds=len(deletions_per_round),
        deletions_per_round=deletions_per_round,
        deletability_tests=engine.counters.deletability_tests,
        counters=engine.counters,
    )


def is_non_redundant(
    graph: NetworkGraph,
    boundary_cycles: Sequence[VertexCycle],
    tau: int,
    protected: Iterable[int],
) -> bool:
    """Definition 6 check: no single internal node can be spared.

    ``graph`` should be the *reduced* graph returned by the scheduler.  The
    check recomputes the global criterion once per internal node, so use it
    on small graphs (tests, examples).
    """
    protected_set = set(protected)
    if not is_tau_partitionable(graph, boundary_cycles, tau):
        return False
    for v in graph.vertices():
        if v in protected_set:
            continue
        thinner = graph.copy()
        thinner.remove_vertex(v)
        if is_tau_partitionable(thinner, boundary_cycles, tau):
            return False
    return True
