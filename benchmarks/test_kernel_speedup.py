"""CSR kernel speedup over the PR 1 dict-based engine, plus parallel-layer
equivalence.  Results land in ``BENCH_kernel.json`` at the repo root.

The first engine answered every primitive through dict-of-sets BFS;
the CSR kernel answers the same primitives on int-indexed compact
adjacency (slot arrays, chord masks, tau-capped closure streaming).
This bench replays that engine's *exact* scheduling loop
(per-candidate separation-ball probe against the winner set, costs
served by the ``use_kernel=False`` dict oracle engine) against the
kernel-backed ``dcc_schedule`` and asserts

* the deletion schedules are identical vertex-for-vertex (hop distance
  is symmetric, so the winner-side blocking rewrite selects the same
  MIS), and
* cold-cache scheduling gets >= 3x faster at full scale.

``REPRO_BENCH_SCALE=smoke`` shrinks the deployment for CI smoke runs
(the speedup floor relaxes; the identity assertions do not).

A second bench fans sweep cells over a 4-worker process pool and asserts
the rows are byte-identical to the serial run — the parallel layer's
determinism contract — recording both wall times.  On a single-core box
the pool cannot win wall-clock (the entry records ``cpu_count`` so the
numbers are interpretable); equality is machine-independent.
"""

import json
import os
import random
import time

from repro.analysis.sweeps import parameter_grid, run_sweep
from repro.core.scheduler import dcc_schedule
from repro.core.vpt import deletion_radius
from repro.network.deployment import Rectangle, build_network
from repro.obs import MetricsRegistry, Tracer, build_run_report, observe
from repro.topology import LocalTopologyEngine

SMOKE = os.environ.get("REPRO_BENCH_SCALE", "full") == "smoke"
TAU = 4
NODES = 120 if SMOKE else 250
SIDE = 5.1 if SMOKE else 7.3
ROUNDS = 3 if SMOKE else 9
MIN_SPEEDUP = {"parallel": 1.3 if SMOKE else 3.0, "sequential": 1.2 if SMOKE else 2.0}


def _deployment():
    net = build_network(NODES, Rectangle(0, 0, SIDE, SIDE), 1.0, 1.0, seed=21)
    return net.graph, set(net.boundary_nodes)


def _pr1_schedule(graph, protected, tau, rng, mode):
    """The PR 1 scheduler loop, verbatim, on the dict-based engine.

    Lazy MIS with a per-candidate separation-ball probe, dict-BFS
    primitives and cached per-vertex verdicts.  The first engine also
    cached the probe balls and memoised verdicts on subgraph
    signatures; the engine no longer has either, so this baseline is
    the dict engine without them (every probe is a fresh dict BFS).
    """
    engine = LocalTopologyEngine(graph.copy(), tau, use_kernel=False)
    work = engine.graph
    protected_set = set(protected)
    removed = []
    separation = deletion_radius(tau) + 1
    while True:
        order = [v for v in work.vertices() if v not in protected_set]
        rng.shuffle(order)
        if mode == "parallel":
            selected, batch = set(), []
            for v in order:
                ball = engine.ball(v, separation - 1)
                if not selected.isdisjoint(ball):
                    continue
                if engine.deletable(v):
                    selected.add(v)
                    batch.append(v)
        else:
            batch = []
            for v in order:
                if engine.deletable(v):
                    batch.append(v)
                    break
        if not batch:
            break
        for v in batch:
            engine.delete_vertex(v)
            removed.append(v)
    return removed, engine.counters


def _compare(mode):
    """Interleaved best-of-``ROUNDS`` walls; schedules checked every round."""
    graph, protected = _deployment()
    pr1_wall = kernel_wall = float("inf")
    pr1_removed = kernel_run = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        pr1_removed, pr1_counters = _pr1_schedule(
            graph, protected, TAU, random.Random(0), mode
        )
        pr1_wall = min(pr1_wall, time.perf_counter() - start)
        start = time.perf_counter()
        kernel_run = dcc_schedule(
            graph, protected, TAU, rng=random.Random(0), mode=mode
        )
        kernel_wall = min(kernel_wall, time.perf_counter() - start)
        assert kernel_run.removed == pr1_removed, (
            "kernel schedule diverged from the PR 1 engine's"
        )
    # One extra *traced* run, after the timed loops so the walls above
    # stay unpolluted: its per-phase aggregates ride on the bench entry.
    tracer, metrics = Tracer(), MetricsRegistry()
    with observe(tracer, metrics):
        dcc_schedule(graph, protected, TAU, rng=random.Random(0), mode=mode)
    phases = build_run_report(f"kernel_{mode}", tracer, metrics)["phases"]
    return {
        "phases": phases,
        "mode": mode,
        "nodes": NODES,
        "tau": TAU,
        "rounds": ROUNDS,
        "scale": "smoke" if SMOKE else "full",
        "identical_schedule": True,
        "deletions": len(pr1_removed),
        "pr1_wall_s": round(pr1_wall, 4),
        "kernel_wall_s": round(kernel_wall, 4),
        "speedup": round(pr1_wall / kernel_wall, 2),
        "pr1_counters": pr1_counters.as_dict(),
        "kernel_counters": kernel_run.counters.as_dict(),
    }


def test_kernel_speedup_parallel(benchmark, bench_record):
    entry = benchmark.pedantic(lambda: _compare("parallel"), rounds=1, iterations=1)
    bench_record("kernel_schedule_parallel", entry)
    print()
    print(f"CSR kernel vs PR 1 engine (parallel DCC): {json.dumps(entry)}")
    assert entry["identical_schedule"]
    assert entry["speedup"] >= MIN_SPEEDUP["parallel"], entry


def test_kernel_speedup_sequential(benchmark, bench_record):
    entry = benchmark.pedantic(lambda: _compare("sequential"), rounds=1, iterations=1)
    bench_record("kernel_schedule_sequential", entry)
    print()
    print(f"CSR kernel vs PR 1 engine (sequential DCC): {json.dumps(entry)}")
    assert entry["identical_schedule"]
    assert entry["speedup"] >= MIN_SPEEDUP["sequential"], entry


def _sweep_cell_measure(count, degree, seed):
    """Picklable sweep cell: one schedule, one row of measurements."""
    net = build_network(
        count, Rectangle(0, 0, SIDE, SIDE), 1.0, 1.0, seed=seed
    )
    result = dcc_schedule(
        net.graph, set(net.boundary_nodes), TAU, rng=random.Random(seed)
    )
    return {"num_active": result.num_active, "rounds": result.rounds}


def test_sweep_workers_equivalence(benchmark, bench_record):
    """4-worker sweep rows are byte-identical to the serial run."""
    grid = parameter_grid(
        count=(60, 90) if SMOKE else (90, 130), degree=(10.0,)
    )
    seeds = (0, 1) if SMOKE else (0, 1, 2)

    def run(workers):
        start = time.perf_counter()
        result = run_sweep(_sweep_cell_measure, grid, seeds=seeds, workers=workers)
        return result.rows, time.perf_counter() - start

    (serial_rows, serial_wall), (par_rows, par_wall) = benchmark.pedantic(
        lambda: (run(1), run(4)), rounds=1, iterations=1
    )
    entry = {
        "grid_cells": len(grid) * len(seeds),
        "workers": 4,
        "cpu_count": os.cpu_count(),
        "scale": "smoke" if SMOKE else "full",
        "rows_identical": par_rows == serial_rows,
        "serial_wall_s": round(serial_wall, 4),
        "workers4_wall_s": round(par_wall, 4),
    }
    bench_record("sweep_workers4", entry)
    print()
    print(f"Sweep 4-worker equivalence: {json.dumps(entry)}")
    assert entry["rows_identical"], "parallel sweep rows diverged from serial"
