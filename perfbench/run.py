"""Figure-2 benchmark: run one workload at one seed, check it, print metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig2_10k --seed 0 --seconds 55 --trace 0

Each workload is a closed loop with one client: a job is one call of
``repro.analysis.experiments.run_fig2_vertex_deletion`` and the next job
starts when the previous one returns, until the next job would overrun
``--seconds``.  Every job's output is checked.  ``--trace 0`` prints
the end-to-end metrics (untraced jobs), ``--trace 1`` the per-layer
metrics (alternating untraced and traced jobs).  The last line of
standard output is the JSON result; the lines before it are the
human-readable report.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: fresh interpreters timed per run; setup_s is their median
SETUP_PROBES = 5


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def measure_setup() -> float:
    """Median spawn-to-ready time of fresh interpreters (``setup_s``)."""
    times = []
    for __ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py")],
            stdout=subprocess.PIPE,
            text=True,
        ) as probe:
            line = probe.stdout.readline()
            times.append(perf_counter() - start)
            probe.communicate(timeout=60)
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {probe.returncode})")
    return statistics.median(times)


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report_layers(fig2bench: Any, tracer: Any) -> None:
    rows = fig2bench.layer_table(fig2bench.span_forest(tracer.spans()))
    print(f"  {'span':40s} {'calls':>7s} {'wall s':>9s} {'self s':>9s} {'per call':>11s}")
    for name, row in sorted(rows.items(), key=lambda item: -item[1].wall_s):
        per_call = row.wall_s / row.calls
        text = f"{per_call * 1e3:8.3f} ms" if per_call >= 1e-3 else f"{per_call * 1e6:8.1f} us"
        print(f"  {name:40s} {row.calls:7d} {row.wall_s:9.4f} {row.self_s:9.4f} {text:>11s}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: smoke-test deployments (a few hundred nodes)",
    )
    parser.add_argument(
        "--references", type=Path,
        help="reference outputs to check jobs against",
    )
    args = parser.parse_args(argv)

    knobs = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if knobs:
        return fail(f"refusing to run with REPRO_* knobs set: {', '.join(knobs)}")
    if not (SRC / "repro" / "__init__.py").is_file():
        return fail(f"no repro package under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import fig2bench

    workload = fig2bench.WORKLOADS.get(args.workload)
    if workload is None:
        return fail(f"unknown workload {args.workload!r}; one of {sorted(fig2bench.WORKLOADS)}")
    declared = declared_metrics(bool(args.trace))
    from repro.obs.bench import env_fingerprint

    print("env:", json.dumps(env_fingerprint(), sort_keys=True))

    kwargs = workload.kwargs(args.scale)
    references = fig2bench.load_references(args.references or fig2bench.REFERENCES)
    reference = references.get(args.scale, {}).get(workload.name, {}).get(str(args.seed))
    print(f"workload {workload.name} seed={args.seed} scale={args.scale} kwargs={kwargs}")
    if reference is None:
        print(f"  no recorded reference for seed {args.seed}: checking invariants only")

    setup_s = measure_setup() if not args.trace else None
    serial_digests = reference["digests"] if reference is not None else None
    serial_tests = 0
    if workload.sharded and (serial_digests is None or args.trace):
        serial_digests, serial_tests = fig2bench.serial_schedule(kwargs, args.seed)
    untraced: List[Any] = []
    traced: List[Any] = []
    # A serial workload's one process is moved round the CPUs (see
    # RotateCpus); a sharded one spreads over them by itself.
    with fig2bench.RotateCpus() if workload.workers == 1 else contextlib.nullcontext():
        # Warm-up at smoke scale: lazy imports and first-call paths (the
        # shard worker pool included) run before anything is timed.
        fig2bench.run_job(workload, workload.kwargs("tiny"), args.seed, False, None, None)
        start = perf_counter()
        while True:
            untraced.append(
                fig2bench.run_job(workload, kwargs, args.seed, False, reference, serial_digests)
            )
            if args.trace:
                traced.append(
                    fig2bench.run_job(workload, kwargs, args.seed, True, reference, serial_digests)
                )
            rounds = len(untraced)
            elapsed = perf_counter() - start
            if elapsed + elapsed / rounds > args.seconds:
                break

    jobs = untraced + traced
    for index, job in enumerate(jobs):
        kind = "traced" if index >= len(untraced) else "untraced"
        status = "ok" if not job.failed else "FAILED: " + "; ".join(job.problems)
        print(
            f"  job {index} {kind}: wall {job.wall_s:.4f} s, schedule {job.schedule_s:.4f} s, "
            f"cpu {job.cpu_s:.4f} s, active {job.active_nodes} -- {status}"
        )
    failed = sum(job.failed for job in jobs)
    print(f"  error_rate {failed / len(jobs):.4f} ({failed} of {len(jobs)} jobs failed)")

    wall = statistics.median(job.wall_s for job in untraced)
    cpu = statistics.median(job.cpu_s for job in untraced)
    if args.trace:
        per_job = [
            fig2bench.per_layer_metrics(job, wall, cpu, workload.workers, serial_tests)
            for job in traced
        ]
        values = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
        print("  layer table of the last traced job:")
        report_layers(fig2bench, traced[-1].tracer)
    else:
        values = {
            "wall_s": wall,
            "schedule_s": statistics.median(job.schedule_s for job in untraced),
            "cpu_s": cpu,
            "peak_rss_mb": fig2bench.peak_rss_mb(),
            "setup_s": setup_s,
            "active_nodes": statistics.median(job.active_nodes for job in untraced),
        }
    missing = sorted(set(declared) - set(values))
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
