"""Whole-graph criterion: the staged CSR kernel against the dict oracle.

The tau-partitionability criterion (Propositions 2-3) builds one
``ShortCycleSpan`` over the whole graph.  Its CSR path runs the same
staged closure kernel as the local verdicts (triangles, thinned
4-cycles, then truncated-BFS closures for tau >= 5); the dict oracle
(``use_csr=False``) streams BFS closures.  This bench asserts

* equal rank, cycle-space dimension and verdict against the oracle, and
* a kernel wall at most 0.7x the oracle wall, both measured in this
  process (best of ``ROUNDS``), so the ratio does not depend on the
  machine.

The entry lands in ``BENCH_kernel.json``.  ``REPRO_BENCH_SCALE=smoke``
runs the 1.5k-node deployment CI uses; full scale is 10k nodes.
"""

import json
import os

from repro.obs.bench import bench_criterion_span

SMOKE = os.environ.get("REPRO_BENCH_SCALE", "full") == "smoke"
ROUNDS = 3 if SMOKE else 1
MAX_RATIO = 0.7


def test_criterion_span_kernel_beats_oracle(bench_record):
    runs = [bench_criterion_span("smoke" if SMOKE else "full") for __ in range(ROUNDS)]
    entry = dict(
        runs[-1],
        rounds=ROUNDS,
        kernel_wall_s=min(r["kernel_wall_s"] for r in runs),
        oracle_wall_s=min(r["oracle_wall_s"] for r in runs),
    )
    entry["wall_ratio"] = round(entry["kernel_wall_s"] / entry["oracle_wall_s"], 3)
    bench_record("criterion_span", entry)
    print()
    print(f"Criterion span, kernel vs oracle: {json.dumps(entry)}")
    for run in runs:
        assert run["rank"] == run["oracle_rank"], run
        assert run["partitionable"] == run["oracle_partitionable"], run
    assert entry["wall_ratio"] <= MAX_RATIO, entry
