"""Whole-graph criterion: the staged CSR kernel against the dict oracle.

The tau-partitionability criterion (Propositions 2-3) builds one
``ShortCycleSpan`` over the whole graph.  Its CSR path runs the same
staged closure kernel as the local verdicts (triangles, thinned
4-cycles, then truncated-BFS closures for tau >= 5) on sparse
frozenset chord vectors; the dict oracle (``use_csr=False``) streams
BFS closures on ``nu``-bit int masks.  This bench asserts

* equal rank, cycle-space dimension and verdict against the oracle,
* a kernel wall at most 0.7x the oracle wall, both measured in this
  process (best of ``ROUNDS``), so the ratio does not depend on the
  machine, and
* memory linear in the cycle-space dimension: the tracemalloc peak of
  ``ShortCycleSpan(graph, 4)`` per dimension on the 3k-node deployment
  at most 1.2x that on the 1.5k-node one (dense ``nu``-bit pivot rows
  gave 1.61x).  The peaks come from separate, untimed builds (the
  tracer slows allocation), with the graph's CSR mirror built first so
  only the span's own memory counts.

The entry lands in ``BENCH_kernel.json``.  ``REPRO_BENCH_SCALE=smoke``
runs the 1.5k-node deployment CI uses; full scale is 10k nodes.  The
``slow``-marked case records the span alone on a 100k-node deployment.
"""

import json
import os
import time
import tracemalloc

import pytest

from repro.cycles.horton import ShortCycleSpan
from repro.network.topologies import geometric_graph
from repro.obs.bench import _positions, bench_criterion_span

SMOKE = os.environ.get("REPRO_BENCH_SCALE", "full") == "smoke"
ROUNDS = 3 if SMOKE else 1
MAX_RATIO = 0.7
MAX_MEMORY_GROWTH = 1.2
TAU = 4


def _graph(nodes):
    __, positions = _positions(nodes)
    graph = geometric_graph(positions, 1.0)
    graph.csr()
    return graph


def _traced_span(graph):
    """``(span, tracemalloc peak in bytes)`` of one span build."""
    tracemalloc.start()
    try:
        span = ShortCycleSpan(graph, TAU)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return span, peak


def _bytes_per_dimension(nodes):
    span, peak = _traced_span(_graph(nodes))
    return round(peak / span.cycle_space_dimension, 1)


def test_criterion_span_kernel_beats_oracle(bench_record):
    runs = [bench_criterion_span("smoke" if SMOKE else "full") for __ in range(ROUNDS)]
    entry = dict(
        runs[-1],
        rounds=ROUNDS,
        kernel_wall_s=min(r["kernel_wall_s"] for r in runs),
        oracle_wall_s=min(r["oracle_wall_s"] for r in runs),
    )
    entry["wall_ratio"] = round(entry["kernel_wall_s"] / entry["oracle_wall_s"], 3)
    entry["bytes_per_dim_1500"] = _bytes_per_dimension(1_500)
    entry["bytes_per_dim_3000"] = _bytes_per_dimension(3_000)
    entry["bytes_per_dim_ratio"] = round(
        entry["bytes_per_dim_3000"] / entry["bytes_per_dim_1500"], 3
    )
    bench_record("criterion_span", entry)
    print()
    print(f"Criterion span, kernel vs oracle: {json.dumps(entry)}")
    for run in runs:
        assert run["rank"] == run["oracle_rank"], run
        assert run["partitionable"] == run["oracle_partitionable"], run
    assert entry["wall_ratio"] <= MAX_RATIO, entry
    assert entry["bytes_per_dim_ratio"] <= MAX_MEMORY_GROWTH, entry


@pytest.mark.slow
def test_criterion_span_at_100k(bench_record):
    """The whole-graph span on a 100k-node, degree-9 deployment.

    Records the untraced wall (CSR mirror prebuilt), then the
    tracemalloc peak of a second build, which the tracer slows ~7x.
    """
    nodes = 100_000
    graph = _graph(nodes)
    start = time.perf_counter()
    span = ShortCycleSpan(graph, TAU)
    wall = time.perf_counter() - start
    del span
    span, peak = _traced_span(graph)
    dimension = span.cycle_space_dimension
    entry = {
        "nodes": nodes,
        "tau": TAU,
        "rank": span.rank,
        "dimension": dimension,
        "wall_s": round(wall, 2),
        "peak_mb": round(peak / 1e6, 1),
        "bytes_per_dim": round(peak / dimension, 1),
    }
    bench_record("criterion_span_100k", entry)
    print()
    print(f"Criterion span at 100k nodes: {json.dumps(entry)}")
    assert 0 < span.rank <= dimension
    assert entry["bytes_per_dim"] <= MAX_MEMORY_GROWTH * _bytes_per_dimension(1_500)
