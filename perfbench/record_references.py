"""Record the reference outputs the benchmark checks every job against.

For each workload and seed this stores the Figure-2 table and the
sorted active-set digest of every tau.  The sharded workload's entry is
recorded from the serial (unsharded, single-process) driver call, so
checking against it also checks that sharding changed nothing.

References must come from the commit that defined the benchmark, not
from the code under test: a later change that alters any schedule then
shows up as failed jobs.  Usage, from the repository root:

    python3 perfbench/record_references.py --seeds 0-39 --scale full
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import fig2bench  # noqa: E402  (needs src on sys.path)


def seed_range(text: str) -> range:
    first, __, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def record(workload: fig2bench.Workload, scale: str, seed: int) -> dict:
    kwargs = workload.kwargs(scale)
    if workload.sharded:
        kwargs = fig2bench.serial_counterpart(kwargs)
    with fig2bench.Probes(trace=False) as probes:
        result = fig2bench.experiments.run_fig2_vertex_deletion(seed=seed, **kwargs)
    return fig2bench.reference_entry(result, probes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--workload", choices=sorted(fig2bench.WORKLOADS))
    args = parser.parse_args()
    path = fig2bench.REFERENCES
    refs = fig2bench.load_references(path) if path.exists() else {}
    names = [args.workload] if args.workload else sorted(fig2bench.WORKLOADS)
    for seed in args.seeds:
        for name in names:
            entry = record(fig2bench.WORKLOADS[name], args.scale, seed)
            refs.setdefault(args.scale, {}).setdefault(name, {})[str(seed)] = entry
            print(f"{args.scale} {name} seed={seed} {entry['digests']}", flush=True)
        # Rewrite after every seed so an interrupted run keeps its work.
        with open(path, "w") as handle:
            json.dump(refs, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
