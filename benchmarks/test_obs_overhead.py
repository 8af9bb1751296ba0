"""Disabled-tracer overhead guard for the sharded schedule path.

The null-tracer contract promises that a disabled run pays one
attribute probe per guarded site and nothing else (the REPRO114 lint
rule keeps hot-path sites behind guards).  This bench turns the promise
into a number: :func:`repro.obs.bench.bench_tracer_overhead` bounds the
total guard cost from above (guard probes x measured per-probe cost,
against the disabled wall) and the bound must stay **under 2%** of the
schedule's wall time.  The enabled-vs-disabled A/B rides along in the
recorded entry as an informational capture-cost figure — capture cost
is real and unbounded by the contract, which is exactly why tracing
defaults to off.

``REPRO_BENCH_SCALE=smoke`` shrinks the deployment for CI, same as the
shard-scale bench.
"""

import json
import os

from repro.obs.bench import bench_tracer_overhead

SMOKE = os.environ.get("REPRO_BENCH_SCALE", "full") == "smoke"


def test_disabled_tracer_overhead_bound(shard_bench_record):
    """NULL_TRACER guard cost stays under 2% of the sharded schedule."""
    entry = bench_tracer_overhead("smoke" if SMOKE else "full")
    shard_bench_record("tracer_overhead", entry)
    print()
    print(f"Disabled-tracer overhead bound: {json.dumps(entry)}")
    assert entry["removed_identical"], "capture changed the schedule"
    # The upper bound, not a flaky A/B: probes x per-probe cost over the
    # disabled wall.  2% is ~14x headroom over the measured ~0.14%.
    assert entry["guard_cost_pct"] < 2.0, entry
