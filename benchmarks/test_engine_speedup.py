"""Topology-engine speedup: cached vs seed-style recomputation.

The seed implementation recomputed k-balls and short-cycle spans from
scratch at every call site: the scheduler's ``DeletabilityCache`` kept
verdicts but re-ran a BFS per MIS candidate per round and a BFS per
deletion to invalidate, and the distributed protocol re-tested every
active node every iteration with no caching at all.  This bench replays
the *exact* seed algorithms (same loops, same RNG consumption, costs
metered through a cache-disabled engine) against the engine-backed
schedulers and asserts the redundant span/BFS work drops by >= 2x.

Both replicas draw from the same winner distributions as the engine
paths (the lazy draws are distribution-equivalent to the eager ones), so
the runs must land on fixpoints of the same deletion rule with
comparable coverage sets — the refactor changes the cost model, not the
algorithm.
"""

import random
import time

from repro.core.scheduler import ScheduleResult, dcc_schedule
from repro.core.vpt import deletable_vertices, deletion_radius
from repro.network.deployment import Rectangle, build_network
from repro.obs import MetricsRegistry, Tracer, build_run_report, observe
from repro.runtime.protocol import distributed_dcc_schedule
from repro.topology import LocalTopologyEngine

TAU = 4


def _deployment():
    net = build_network(250, Rectangle(0, 0, 7.3, 7.3), 1.0, 1.0, seed=21)
    return net.graph, set(net.boundary_nodes)


def _seed_schedule(graph, protected, tau, rng, mode):
    """The seed scheduler, verbatim, with its costs metered.

    Verdict cache + BFS-ball invalidation (the old ``DeletabilityCache``),
    eager candidate rebuild every round, fresh BFS per MIS candidate:
    the engine's one caching policy meters exactly that cost model.
    """
    engine = LocalTopologyEngine(graph.copy(), tau)
    work = engine.graph
    protected_set = set(protected)
    removed = []
    separation = deletion_radius(tau) + 1
    while True:
        candidates = [
            v
            for v in work.vertices()
            if v not in protected_set and engine.deletable(v)
        ]
        if not candidates:
            break
        if mode == "parallel":
            order = list(candidates)
            rng.shuffle(order)
            selected, batch = set(), []
            for v in order:
                ball = work.bfs_distances(v, cutoff=separation - 1)
                engine.counters.ball_computations += 1
                engine.counters.bfs_expansions += len(ball)
                if selected.isdisjoint(ball):
                    selected.add(v)
                    batch.append(v)
        else:
            batch = [candidates[rng.randrange(len(candidates))]]
        for v in batch:
            engine.delete_vertex(v)
            removed.append(v)
    return ScheduleResult(
        active=work,
        removed=removed,
        tau=tau,
        rounds=0,
        deletability_tests=engine.counters.deletability_tests,
        counters=engine.counters,
    )


def _heavy_ops(counters):
    """Span computations plus BFS ball extractions: the refactor's target."""
    return counters.span_computations + counters.ball_computations


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _compare(mode):
    graph, protected = _deployment()
    seed_run, seed_wall = _timed(
        lambda: _seed_schedule(graph, protected, TAU, random.Random(0), mode)
    )
    engine_run, engine_wall = _timed(
        lambda: dcc_schedule(graph, protected, TAU, rng=random.Random(0), mode=mode)
    )
    return seed_run, seed_wall, engine_run, engine_wall


def _traced_phases(mode):
    """Per-phase aggregates of one observed run (after the timed ones)."""
    graph, protected = _deployment()
    tracer, metrics = Tracer(), MetricsRegistry()
    with observe(tracer, metrics):
        dcc_schedule(graph, protected, TAU, rng=random.Random(0), mode=mode)
    return build_run_report(f"engine_{mode}", tracer, metrics)["phases"]


def _record_entry(bench_record, name, seed_run, seed_wall, engine_run, engine_wall, mode):
    bench_record(
        name,
        {
            "tau": TAU,
            "seed_heavy_ops": _heavy_ops(seed_run.counters),
            "engine_heavy_ops": _heavy_ops(engine_run.counters),
            "seed_wall_s": round(seed_wall, 4),
            "engine_wall_s": round(engine_wall, 4),
            "seed_counters": seed_run.counters.as_dict(),
            "engine_counters": engine_run.counters.as_dict(),
            "phases": _traced_phases(mode),
        },
    )


def test_engine_speedup_parallel(benchmark, bench_record):
    seed_run, seed_wall, engine_run, engine_wall = benchmark.pedantic(
        lambda: _compare("parallel"), rounds=1, iterations=1
    )
    _record_entry(
        bench_record, "engine_vs_seed_parallel",
        seed_run, seed_wall, engine_run, engine_wall, "parallel",
    )
    print()
    print(f"Engine speedup (parallel DCC, tau={TAU}):")
    print(
        f"  seed   : heavy_ops={_heavy_ops(seed_run.counters)} "
        f"spans={seed_run.counters.span_computations} "
        f"bfs={seed_run.counters.ball_computations} wall={seed_wall:.3f}s"
    )
    print(
        f"  engine : heavy_ops={_heavy_ops(engine_run.counters)} "
        f"spans={engine_run.counters.span_computations} "
        f"bfs={engine_run.counters.ball_computations} wall={engine_wall:.3f}s "
        f"({seed_wall / engine_wall:.2f}x)"
    )
    # Same deletion rule, same winner distribution: both land on maximal
    # fixpoints of comparable size, for >= 2x less span/BFS work.
    graph, protected = _deployment()
    for run in (seed_run, engine_run):
        assert deletable_vertices(run.active, TAU, exclude=protected) == []
    assert abs(engine_run.num_active - seed_run.num_active) <= 0.1 * len(graph)
    assert _heavy_ops(seed_run.counters) >= 2 * _heavy_ops(engine_run.counters)


def test_engine_speedup_sequential(benchmark, bench_record):
    seed_run, seed_wall, engine_run, engine_wall = benchmark.pedantic(
        lambda: _compare("sequential"), rounds=1, iterations=1
    )
    _record_entry(
        bench_record, "engine_vs_seed_sequential",
        seed_run, seed_wall, engine_run, engine_wall, "sequential",
    )
    print()
    print(f"Engine speedup (sequential DCC, tau={TAU}):")
    print(
        f"  seed   : heavy_ops={_heavy_ops(seed_run.counters)} "
        f"spans={seed_run.counters.span_computations} "
        f"bfs={seed_run.counters.ball_computations} wall={seed_wall:.3f}s"
    )
    print(
        f"  engine : heavy_ops={_heavy_ops(engine_run.counters)} "
        f"spans={engine_run.counters.span_computations} "
        f"bfs={engine_run.counters.ball_computations} wall={engine_wall:.3f}s "
        f"({seed_wall / engine_wall:.2f}x)"
    )
    # The lazy draw picks from the same uniform distribution, so both
    # runs are maximal deletions; sizes agree even though the draws do not.
    graph, protected = _deployment()
    for run in (seed_run, engine_run):
        assert deletable_vertices(run.active, TAU, exclude=protected) == []
    assert abs(engine_run.num_active - seed_run.num_active) <= 0.1 * len(graph)
    assert _heavy_ops(seed_run.counters) >= 2 * _heavy_ops(engine_run.counters)


def test_engine_speedup_distributed(benchmark, bench_record):
    graph, protected = _deployment()
    result, wall = benchmark.pedantic(
        lambda: _timed(
            lambda: distributed_dcc_schedule(
                graph, protected, TAU, rng=random.Random(0)
            )
        ),
        rounds=1,
        iterations=1,
    )
    counters = result.stats.topology
    bench_record(
        "engine_vs_seed_distributed",
        {
            "tau": TAU,
            "wall_s": round(wall, 4),
            "counters": counters.as_dict(),
        },
    )
    print()
    print(f"Engine speedup (distributed DCC, tau={TAU}):")
    print(
        f"  queries={counters.deletability_queries} "
        f"tests={counters.deletability_tests} "
        f"spans={counters.span_computations} wall={wall:.3f}s"
    )
    # The seed protocol re-tested every queried node from scratch (one
    # span computation per deletability query, no caching); the engine
    # answers the same query stream with >= 2x fewer span computations.
    assert counters.deletability_queries >= 2 * counters.span_computations
