"""The ``repro-bench`` CLI: named benches with fingerprinted entries.

Benchmark numbers are only comparable when the environment that
produced them is recorded alongside, so every entry written here is
stamped with an **environment fingerprint** (``repro.bench/v2``): CPU
count, Python/NumPy versions, platform, and the determinism-relevant
knob set (the registry's ``fingerprint`` knobs, e.g. ``REPRO_CHAOS``).
Entries merge into shared
JSON files by name through
:func:`repro.obs.export.merge_json_entry` — the ``BENCH_kernel.json``
convention — so partial runs never wipe history.

``repro-bench diff`` is the CI regression gate.  Its comparison rules
keep the gate non-flaky:

* deterministic fields (round counts, deletions, verdict-test counts,
  halo rows, recorded span counts) must match **exactly**;
* ``*bytes*`` fields get a fixed ~10% band (pickle framing varies
  across Python versions);
* timing fields (``*_s`` / ``*_ns`` / ``*_pct``) are compared **only**
  when ``--tolerance`` is given *and* the two entries' fingerprints
  (CPU count + knob set) match — wall clocks from different machines
  never fail the gate.

Named benches mirror the ``benchmarks/`` recipes at ``smoke`` (CI) or
``full`` scale; ``repro-bench normalize`` upgrades pre-fingerprint
entries in committed BENCH files without touching their measurements.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import sys
import time
import timeit
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro import knobs
from repro.obs.export import merge_json_entry

BENCH_SCHEMA = "repro.bench/v2"

#: environment knobs that change what (or how) the benches compute —
#: derived from the declared registry (every knob marked fingerprint)
#: so a new determinism-relevant knob can never silently escape the
#: environment stamp.
KNOB_NAMES = knobs.knob_names(fingerprint=True)

#: fingerprint keys (never diffed as measurements)
FINGERPRINT_KEYS = frozenset(
    {"schema", "cpu_count", "python", "numpy", "platform", "knobs"}
)

#: context keys that describe the run configuration, diffed exactly
_TIMING_SUFFIXES = ("_s", "_ns", "_pct")


def env_fingerprint() -> Dict[str, Any]:
    """The environment stamp every bench entry carries."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is baked into the image
        numpy_version = None
    return {
        "schema": BENCH_SCHEMA,
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.system().lower(),
        "knobs": {name: os.environ.get(name, "") for name in KNOB_NAMES},
    }


def stamp_entry(entry: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``entry`` carrying the current environment fingerprint."""
    stamped = dict(entry)
    stamped.update(env_fingerprint())
    return stamped


# ----------------------------------------------------------------------
# Named benches (smoke mirrors of the benchmarks/ recipes)
# ----------------------------------------------------------------------
_TAU = 4
_TARGET_DEGREE = 9.0


def _positions(nodes: int) -> Tuple[float, Dict[int, Tuple[float, float]]]:
    """Side length and node positions of the smoke deployment."""
    rng = random.Random(21)
    side = math.sqrt(nodes * math.pi / _TARGET_DEGREE)
    return side, {
        v: (rng.uniform(0, side), rng.uniform(0, side)) for v in range(nodes)
    }


def _deployment(nodes: int) -> Tuple[Any, Set[int]]:
    """The ``benchmarks/test_shard_scale.py`` deployment recipe."""
    from repro.network.topologies import geometric_graph

    side, positions = _positions(nodes)
    graph = geometric_graph(positions, 1.0)
    band = 1.0
    protected = {
        v
        for v, (x, y) in positions.items()
        if x < band or y < band or x > side - band or y > side - band
    }
    return graph, protected


def bench_shard_schedule(scale: str = "smoke") -> Dict[str, Any]:
    """Serial vs sharded schedule: identity, halo traffic, wall times."""
    from repro.core.scheduler import dcc_schedule
    from repro.shard import sharded_dcc_schedule

    nodes = 1_500 if scale == "smoke" else 10_000
    shards = 2 if scale == "smoke" else 4
    graph, protected = _deployment(nodes)
    start = time.perf_counter()
    serial = dcc_schedule(graph, protected, _TAU, rng=random.Random(0), workers=1)
    serial_wall = time.perf_counter() - start
    start = time.perf_counter()
    sharded = sharded_dcc_schedule(
        graph, protected, _TAU, random.Random(0), shards=shards, workers=1
    )
    sharded_wall = time.perf_counter() - start
    stats = sharded.shard_stats
    return {
        "scale": scale,
        "nodes": nodes,
        "tau": _TAU,
        "shards": shards,
        "rounds": serial.rounds,
        "deletions": len(serial.removed),
        "removed_identical": sharded.removed == serial.removed,
        "serial_wall_s": round(serial_wall, 4),
        "sharded_inline_wall_s": round(sharded_wall, 4),
        "halo_rows_total": stats.halo_rows_total,
        "halo_bytes_total": stats.halo_bytes_total,
        "serial_tests": serial.counters.deletability_tests,
        "sharded_tests": sharded.counters.deletability_tests,
    }


def bench_kernel_schedule(scale: str = "smoke") -> Dict[str, Any]:
    """A serial schedule over a smaller deployment (kernel-path gate)."""
    from repro.core.scheduler import dcc_schedule

    nodes = 400 if scale == "smoke" else 2_000
    graph, protected = _deployment(nodes)
    start = time.perf_counter()
    result = dcc_schedule(graph, protected, _TAU, rng=random.Random(0), workers=1)
    wall = time.perf_counter() - start
    counters = result.counters
    return {
        "scale": scale,
        "nodes": nodes,
        "tau": _TAU,
        "rounds": result.rounds,
        "deletions": len(result.removed),
        "wall_s": round(wall, 4),
        "deletability_tests": counters.deletability_tests,
        "bfs_expansions": counters.bfs_expansions,
    }


def bench_tracer_overhead(scale: str = "smoke") -> Dict[str, Any]:
    """Disabled-tracer overhead on the inline sharded schedule path.

    The disabled run *is* the baseline, so its overhead cannot be
    measured by subtraction.  Instead the entry records a conservative
    upper bound: every guarded site costs one ``tracer.enabled``
    attribute probe, the number of probes is bounded by twice the span
    count an enabled run records (each span site probes once; pure
    guard sites probe without recording), and the probe cost comes from
    a ``timeit`` microbench.  ``guard_cost_pct`` is that bound as a
    percentage of the disabled wall — the ``<2%`` assertion of
    ``benchmarks/test_obs_overhead.py``.  The enabled-vs-disabled A/B
    (``enabled_overhead_pct``) rides along as an informational number;
    it measures *capture* cost, which the null-tracer contract does not
    bound.
    """
    from repro.obs.tracer import NULL_TRACER, Tracer, observe
    from repro.shard import sharded_dcc_schedule

    nodes = 1_500 if scale == "smoke" else 10_000
    shards = 2 if scale == "smoke" else 4
    graph, protected = _deployment(nodes)

    start = time.perf_counter()
    disabled = sharded_dcc_schedule(
        graph, protected, _TAU, random.Random(0), shards=shards, workers=1
    )
    disabled_wall = time.perf_counter() - start

    tracer = Tracer()
    start = time.perf_counter()
    with observe(tracer, None):
        enabled = sharded_dcc_schedule(
            graph, protected, _TAU, random.Random(0), shards=shards, workers=1
        )
    enabled_wall = time.perf_counter() - start
    spans = len(tracer.spans()) + tracer.dropped

    probes = 200_000
    per_guard_s = (
        timeit.timeit(
            "trc.enabled", globals={"trc": NULL_TRACER}, number=probes
        )
        / probes
    )
    guard_checks = spans * 2
    guard_cost_pct = 100.0 * guard_checks * per_guard_s / max(disabled_wall, 1e-9)
    return {
        "scale": scale,
        "nodes": nodes,
        "tau": _TAU,
        "shards": shards,
        "removed_identical": enabled.removed == disabled.removed,
        "spans": spans,
        "guard_checks": guard_checks,
        "per_guard_ns": round(per_guard_s * 1e9, 2),
        "disabled_wall_s": round(disabled_wall, 4),
        "enabled_wall_s": round(enabled_wall, 4),
        "guard_cost_pct": round(guard_cost_pct, 4),
        "enabled_overhead_pct": round(
            100.0 * (enabled_wall - disabled_wall) / max(disabled_wall, 1e-9),
            2,
        ),
    }


def bench_criterion_span(scale: str = "smoke") -> Dict[str, Any]:
    """Whole-graph tau-partitionability: staged CSR kernel vs dict oracle.

    Runs on the :func:`_deployment` graph; the boundary is the outer face
    of its planar backbone (the Figure-2 boundary recipe).  ``kernel_wall_s`` includes building
    the graph's CSR mirror, which the criterion's first call pays.
    """
    from repro.boundary.geometric import planar_backbone, trace_outer_face
    from repro.core.criterion import is_tau_partitionable
    from repro.cycles.horton import ShortCycleSpan
    from repro.network.topologies import geometric_graph

    nodes = 1_500 if scale == "smoke" else 10_000
    __, positions = _positions(nodes)
    graph = geometric_graph(positions, 1.0)
    backbone = planar_backbone(graph, positions)
    backbone = backbone.induced_subgraph(
        max(backbone.connected_components(), key=len)
    )
    boundary = [trace_outer_face(backbone, positions)]

    start = time.perf_counter()
    kernel = ShortCycleSpan(graph, _TAU)
    kernel_wall = time.perf_counter() - start
    start = time.perf_counter()
    oracle = ShortCycleSpan(graph, _TAU, use_csr=False)
    oracle_wall = time.perf_counter() - start
    return {
        "scale": scale,
        "nodes": nodes,
        "tau": _TAU,
        "rank": kernel.rank,
        "dimension": kernel.cycle_space_dimension,
        "partitionable": is_tau_partitionable(graph, boundary, _TAU, span=kernel),
        "oracle_rank": oracle.rank,
        "oracle_partitionable": is_tau_partitionable(graph, boundary, _TAU, span=oracle),
        "kernel_wall_s": round(kernel_wall, 4),
        "oracle_wall_s": round(oracle_wall, 4),
    }


BENCHES: Dict[str, Callable[[str], Dict[str, Any]]] = {
    "criterion_span": bench_criterion_span,
    "kernel_schedule": bench_kernel_schedule,
    "shard_schedule": bench_shard_schedule,
    "tracer_overhead": bench_tracer_overhead,
}


# ----------------------------------------------------------------------
# Diff (the CI regression gate)
# ----------------------------------------------------------------------
def _is_timing(key: str) -> bool:
    return key.endswith(_TIMING_SUFFIXES)


def _same_env(base: Dict[str, Any], current: Dict[str, Any]) -> bool:
    return (
        base.get("cpu_count") == current.get("cpu_count")
        and base.get("knobs") == current.get("knobs")
    )


def diff_entries(
    name: str,
    base: Dict[str, Any],
    current: Dict[str, Any],
    tolerance: Optional[float] = None,
) -> List[str]:
    """Regression findings for one named entry (empty = gate passes)."""
    problems: List[str] = []
    comparable_env = _same_env(base, current)
    for key in sorted(set(base) & set(current)):
        if key in FINGERPRINT_KEYS:
            continue
        b, c = base[key], current[key]
        if _is_timing(key):
            if tolerance is None or not comparable_env:
                continue
            if not isinstance(b, (int, float)) or not isinstance(c, (int, float)):
                continue
            if c > b * (1.0 + tolerance) and c - b > 1e-6:
                problems.append(
                    f"{name}.{key}: {c} exceeds baseline {b} "
                    f"by more than {tolerance:.0%}"
                )
        elif "bytes" in key and isinstance(b, int) and isinstance(c, int):
            # Pickle framing drifts across Python versions; the traffic
            # itself (row counts) is gated exactly.
            if abs(c - b) > max(16, 0.1 * abs(b)):
                problems.append(
                    f"{name}.{key}: {c} outside the 10% band around {b}"
                )
        elif b != c:
            problems.append(f"{name}.{key}: {c!r} != baseline {b!r}")
    return problems


def diff_files(
    baseline_path: str,
    current_path: str,
    tolerance: Optional[float] = None,
) -> Tuple[List[str], List[str]]:
    """``(problems, notes)`` comparing two BENCH-convention JSON files."""
    baseline = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
    current = json.loads(Path(current_path).read_text(encoding="utf-8"))
    problems: List[str] = []
    notes: List[str] = []
    shared = sorted(set(baseline) & set(current))
    for name in sorted(set(baseline) - set(current)):
        notes.append(f"{name}: in baseline only (skipped)")
    for name in sorted(set(current) - set(baseline)):
        notes.append(f"{name}: new entry (no baseline)")
    for name in shared:
        found = diff_entries(name, baseline[name], current[name], tolerance)
        problems.extend(found)
        if not found:
            skipped_timing = tolerance is None or not _same_env(
                baseline[name], current[name]
            )
            notes.append(
                f"{name}: ok"
                + (" (timing skipped: env mismatch)" if skipped_timing else "")
            )
    if not shared:
        problems.append("no entries in common between baseline and current")
    return problems, notes


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _cmd_list(args: argparse.Namespace) -> int:
    for name in sorted(BENCHES):
        doc = (BENCHES[name].__doc__ or "").strip().splitlines()[0]
        print(f"{name:<18} {doc}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    names = args.names or sorted(BENCHES)
    unknown = [name for name in names if name not in BENCHES]
    if unknown:
        print(f"unknown bench(es): {', '.join(unknown)}", file=sys.stderr)
        return 2
    for name in names:
        entry = stamp_entry(BENCHES[name](args.scale))
        merge_json_entry(args.out, name, entry)
        print(f"{name} -> {args.out}")
        print(f"  {json.dumps(entry, sort_keys=True)}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    problems, notes = diff_files(args.baseline, args.current, args.tolerance)
    for note in notes:
        print(f"  {note}")
    if problems:
        print(f"repro-bench diff: {len(problems)} regression(s)")
        for problem in problems:
            print(f"  REGRESSION {problem}")
        return 1
    print("repro-bench diff: no regressions")
    return 0


def _cmd_normalize(args: argparse.Namespace) -> int:
    target = Path(args.path)
    data = json.loads(target.read_text(encoding="utf-8"))
    fingerprint = env_fingerprint()
    for name, entry in data.items():
        # Keep every measured key (and a pre-existing cpu_count, which
        # described the measuring machine) — only fill in what the v2
        # schema adds.
        for key, value in fingerprint.items():
            entry.setdefault(key, value)
        print(f"normalized {name}")
    target.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Run named benches with environment-fingerprinted entries and "
            "diff them against committed baselines (the CI regression gate)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the named benches").set_defaults(
        func=_cmd_list
    )

    run = sub.add_parser("run", help="run benches and merge stamped entries")
    run.add_argument("names", nargs="*", help="bench names (default: all)")
    run.add_argument(
        "--scale",
        choices=("smoke", "full"),
        default="smoke",
        help="bench size (smoke = CI scale)",
    )
    run.add_argument(
        "--out",
        default="BENCH_smoke.json",
        help="target JSON file (merge-by-name, default BENCH_smoke.json)",
    )
    run.set_defaults(func=_cmd_run)

    diff = sub.add_parser(
        "diff", help="compare a bench file against a committed baseline"
    )
    diff.add_argument("baseline", help="baseline JSON (committed)")
    diff.add_argument("current", help="freshly produced JSON")
    diff.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help=(
            "relative slack for timing fields (e.g. 0.5 = +50%%); timing "
            "is only compared when the environment fingerprints match"
        ),
    )
    diff.set_defaults(func=_cmd_diff)

    normalize = sub.add_parser(
        "normalize",
        help="stamp pre-v2 entries in a BENCH file with the fingerprint schema",
    )
    normalize.add_argument("path", help="BENCH JSON file to upgrade in place")
    normalize.set_defaults(func=_cmd_normalize)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
