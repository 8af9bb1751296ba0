"""``repro-bounds``: symbolic locality/complexity certifier CLI.

Two modes, one contract:

* **Static mode** (default) — run the REPRO4xx passes
  (:mod:`repro.checks.bounds`) over the tree: every BFS/ball/TTL/halo
  radius proven as a symbolic expression over ``(tau, k, m)``, the
  Horton stage cutoffs re-derived, and the per-round
  message/halo envelopes emitted.  ``--manifest PATH`` writes the proved
  bounds as a ``repro-bounds-manifest/v1`` document.
* **Cross-check mode** (``--cross-check``) — run a small sharded +
  distributed smoke and assert every measured meter (halo rows/bytes,
  per-kind message counts, max BFS depth) stays inside the manifest's
  static envelope (:mod:`repro.obs.envelope`), printing the margin
  table.  ``--margins-out PATH`` writes the measured margins for the CI
  artifact.

Examples::

    repro-bounds src/
    repro-bounds src/ --json
    repro-bounds src/ --manifest bounds-manifest.json
    repro-bounds --cross-check --manifest-in bounds-manifest.json \\
        --margins-out bounds-margins.json
    repro-bounds --list-rules

Exit status: 0 when no *new* findings (static) or every meter inside
its envelope (cross-check), 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.checks.bounds import (
    BOUNDS_REPORT_SCHEMA,
    BOUNDS_RULES,
    BoundsManifest,
    run_bounds,
)
from repro.checks.engine import Baseline, Finding, render_text
from repro.checks.runner import (
    add_front_args,
    parse_front,
    print_rule_rows,
    print_summary,
    split_baseline,
    write_baseline,
)

DEFAULT_BASELINE = "repro-bounds.baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bounds",
        description=(
            "Symbolic radius/cutoff certifier and runtime envelope "
            "cross-check for the repro codebase."
        ),
    )
    add_front_args(parser, DEFAULT_BASELINE, select=False, verb="certify")
    parser.add_argument(
        "--manifest",
        metavar="PATH",
        default=None,
        help="write the proved-bounds manifest JSON to PATH (static mode)",
    )
    cross = parser.add_argument_group(
        "cross-check", "runtime envelope verification (--cross-check)"
    )
    cross.add_argument(
        "--cross-check",
        action="store_true",
        help="run the sharded/distributed smoke and check the envelopes",
    )
    cross.add_argument(
        "--manifest-in",
        metavar="PATH",
        default=None,
        help="bounds manifest to check against (default: derive statically)",
    )
    cross.add_argument(
        "--margins-out",
        metavar="PATH",
        default=None,
        help="write the measured-margin report JSON to PATH",
    )
    cross.add_argument(
        "--nodes", type=int, default=40, help="smoke deployment size (default: 40)"
    )
    cross.add_argument(
        "--degree",
        type=float,
        default=8.0,
        help="smoke average degree (default: 8)",
    )
    cross.add_argument(
        "--seed", type=int, default=0, help="smoke deployment seed (default: 0)"
    )
    cross.add_argument(
        "--shards", type=int, default=2, help="smoke shard count (default: 2)"
    )
    cross.add_argument(
        "--tau", type=int, default=5, help="smoke confine size (default: 5)"
    )
    return parser


def render_report(
    findings: List[Finding], manifest: BoundsManifest
) -> str:
    """The ``repro-bounds/v1`` JSON document (sorted keys, stable)."""
    payload: Dict[str, object] = {
        "format": BOUNDS_REPORT_SCHEMA,
        "count": len(findings),
        "findings": [f.as_dict() for f in findings],
        "manifest": manifest.as_dict(),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def run_cross_check(args: argparse.Namespace, root: Path) -> int:
    """The runtime half: smoke runs measured against the static manifest.

    Heavy imports are deferred so the static mode stays import-light.
    """
    from repro.analysis.experiments import _prepare_network
    from repro.obs.envelope import (
        check_envelope,
        max_bfs_depth_from_tracer,
        measured_from_runtime_stats,
        measured_from_shard_stats,
        shape_params_from_graph,
    )
    from repro.obs.tracer import Tracer

    if args.manifest_in:
        manifest_path = (
            Path(args.manifest_in)
            if Path(args.manifest_in).is_absolute()
            else root / args.manifest_in
        )
        manifest = json.loads(manifest_path.read_text())
    else:
        _, bounds_manifest = run_bounds([Path(p) for p in args.paths], root)
        manifest = bounds_manifest.as_dict()

    network, _, protected = _prepare_network(args.nodes, args.degree, args.seed)
    params: Dict[str, int] = shape_params_from_graph(network.graph, args.tau)
    measured: Dict[str, int] = {}

    # Sharded smoke: halo-traffic meters plus the observed BFS depths.
    from repro.core.scheduler import dcc_schedule

    tracer = Tracer()
    result = dcc_schedule(
        network.graph,
        protected,
        args.tau,
        seed=args.seed,
        shards=args.shards,
        workers=1,
        tracer=tracer,
    )
    stats = result.shard_stats
    if stats is not None:
        measured.update(measured_from_shard_stats(stats))
        params["shards"] = stats.shard_count
        params["halo_members"] = sum(stats.halo_sizes)
        params["subrounds"] = max(stats.subrounds_per_round, default=0)
    params["rounds"] = result.rounds
    depth = max_bfs_depth_from_tracer(tracer)
    if depth is not None:
        measured["bfs.max_depth"] = depth

    # Distributed smoke: the per-kind message counters.
    from repro.runtime.protocol import distributed_dcc_schedule

    dist = distributed_dcc_schedule(
        network.graph, protected, args.tau, seed=args.seed
    )
    measured.update(measured_from_runtime_stats(dist.stats))
    params["deletions"] = len(dist.removed)
    # The flood envelopes bound each protocol iteration by a round of
    # sends; the distributed run's iteration count is the tighter cap.
    params["rounds"] = max(params["rounds"], dist.iterations)

    report = check_envelope(manifest, measured, params)
    print(report.format_diff())
    if args.margins_out:
        margins_path = (
            Path(args.margins_out)
            if Path(args.margins_out).is_absolute()
            else root / args.margins_out
        )
        margins_path.write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"margins -> {margins_path}")
    summary = "ok" if report.ok else f"{len(report.violations)} violation(s)"
    print(f"repro-bounds: cross-check {summary} ({len(report.rows)} meter(s))")
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print_rule_rows(BOUNDS_RULES)
        return 0
    front = parse_front(args)
    if args.cross_check:
        return run_cross_check(args, front.root)

    findings, manifest = run_bounds(front.paths, front.root)

    if args.manifest:
        manifest_path = (
            Path(args.manifest)
            if Path(args.manifest).is_absolute()
            else front.root / args.manifest
        )
        manifest_path.write_text(
            json.dumps(manifest.as_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"manifest -> {manifest_path}")

    if args.update_baseline:
        return write_baseline(findings, front.baseline_path)

    baseline = None if args.no_baseline else Baseline.load(front.baseline_path)
    fresh, parked = split_baseline(findings, baseline)

    if args.json:
        print(render_report(fresh, manifest))
    else:
        if fresh:
            print(render_text(fresh))
        sites = manifest.radius_sites
        proven = sum(1 for s in sites if s.status == "proven")
        delegated = sum(1 for s in sites if s.status == "delegated")
        allowed = sum(1 for s in sites if s.status == "allowed")
        print(
            f"repro-bounds: {len(sites)} radius site(s) — "
            f"{proven} proven, {delegated} delegated, {allowed} allowed; "
            f"{len(manifest.envelopes)} envelope(s)"
        )
        print_summary("repro-bounds", fresh, parked)
    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main())
