"""Command-line front end: run any of the paper's experiments.

Examples::

    repro-coverage fig1
    repro-coverage fig3 --runs 3 --nodes 220
    repro-coverage fig4 --runs 2
    repro-coverage fig2 --trace fig2.jsonl --report fig2.json --profile
    repro-coverage all
    python -m repro.cli fig6

Every invocation runs under an enabled tracer and metrics registry (the
per-figure timing printed after each table is the figure's recorded
span, so it always agrees with ``--report``); ``--trace`` / ``--report``
/ ``--profile`` / ``--timeline`` export the observation in the formats
of :mod:`repro.obs.export` and :mod:`repro.obs.timeline`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.checks.sanitizer import current_sanitizer, enable_sanitizer
from repro.parallel.runner import chaos_summary
from repro.analysis.experiments import (
    run_fig1_mobius,
    run_fig2_vertex_deletion,
    run_fig3_confine_size,
    run_fig4_hgc_comparison,
    run_fig5_rssi_cdf,
    run_fig6_trace,
    run_fig7_trace,
)
from repro.obs import (
    MetricsRegistry,
    Tracer,
    attribution_from_tracer,
    attribution_summary,
    build_run_report,
    lane_timeline_from_tracer,
    observe,
    profile_summary,
    timeline_from_tracer,
    validate_run_report,
    write_run_report,
    write_trace_jsonl,
)


def _cmd_fig1(args: argparse.Namespace) -> str:
    return run_fig1_mobius().format_table()


def _overrides(args: argparse.Namespace, *names: str) -> dict:
    """Keyword overrides for options the user actually supplied."""
    out = {}
    mapping = {"nodes": "count", "degree": "degree", "runs": "runs", "seed": "seed"}
    for name in names:
        value = getattr(args, name)
        if value is not None:
            out[mapping[name]] = value
    return out


def _workers(args: argparse.Namespace) -> int:
    """``--workers`` contract: omitted = auto-detect (0), ``1`` = serial."""
    return args.workers if args.workers is not None else 0


def _cmd_fig2(args: argparse.Namespace) -> str:
    result = run_fig2_vertex_deletion(
        workers=_workers(args),
        shards=args.shards,
        criterion=not args.no_criterion,
        **_overrides(args, "nodes", "degree", "seed"),
    )
    return result.format_table()


def _cmd_fig3(args: argparse.Namespace) -> str:
    result = run_fig3_confine_size(
        paper_scale=args.paper_scale,
        workers=_workers(args),
        **_overrides(args, "nodes", "degree", "runs", "seed"),
    )
    return result.format_table()


def _cmd_fig4(args: argparse.Namespace) -> str:
    result = run_fig4_hgc_comparison(
        workers=_workers(args), **_overrides(args, "nodes", "degree", "runs", "seed")
    )
    return result.format_table()


def _cmd_fig5(args: argparse.Namespace) -> str:
    return run_fig5_rssi_cdf(seed=args.seed if args.seed is not None else 1).format_table()


def _cmd_fig6(args: argparse.Namespace) -> str:
    return run_fig6_trace(
        seed=args.seed if args.seed is not None else 1, workers=_workers(args)
    ).format_table("6")


def _cmd_fig7(args: argparse.Namespace) -> str:
    return run_fig7_trace(
        seed=args.seed if args.seed is not None else 1, workers=_workers(args)
    ).format_table("7")


_COMMANDS = {
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "fig7": _cmd_fig7,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-coverage",
        description=(
            "Reproduce the evaluation figures of 'Distributed Coverage in "
            "Wireless Ad Hoc and Sensor Networks by Topological Graph "
            "Approaches' (ICDCS 2010)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_COMMANDS) + ["all"],
        help="which figure to regenerate ('all' runs every one)",
    )
    parser.add_argument(
        "--nodes", type=int, default=None, help="node count (driver default if omitted)"
    )
    parser.add_argument(
        "--degree", type=float, default=None, help="target average degree"
    )
    parser.add_argument("--runs", type=int, default=None, help="random repetitions")
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "process-pool size for independent runs/cells "
            "(default: auto-detect; 1 = serial; results are identical "
            "at any worker count)"
        ),
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "partition each schedule into this many halo-exchange region "
            "shards (fig2 only; results are vertex-identical to the "
            "unsharded run — see DESIGN.md section 9)"
        ),
    )
    parser.add_argument(
        "--no-criterion",
        action="store_true",
        help=(
            "skip the full-graph tau-partitionability checks (fig2 only; "
            "saves about 0.8 s at 10k nodes and 10 s at 100k)"
        ),
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's full experiment sizes (slow in pure Python)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "shadow-check kernel verdicts, cached verdicts, k-balls and "
            "parallel metrics merges against dict oracles (slower; "
            "schedules stay byte-identical); equivalent to REPRO_SANITIZE=1"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write the span trace as JSON lines (repro.trace/v1)",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help=(
            "write a schema-versioned run-report (repro.run_report/v1) "
            "with per-phase wall times and merged metrics"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the span profile tree (inclusive/exclusive wall time)",
    )
    parser.add_argument(
        "--timeline",
        metavar="PATH",
        default=None,
        help=(
            "render the SVG timeline of the traced run (multi-lane "
            "per-shard/worker view when the run recorded distributed "
            "spans, rounds-x-phases grid otherwise)"
        ),
    )
    parser.add_argument(
        "--attribute",
        action="store_true",
        help=(
            "print the distributed wall-clock attribution (per-round "
            "compute / barrier-wait / halo / merge lanes, straggler "
            "spread, critical path) and embed it in --report"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    names = sorted(_COMMANDS) if args.experiment == "all" else [args.experiment]
    sanitizer = enable_sanitizer() if args.sanitize else current_sanitizer()
    tracer = Tracer()
    metrics = MetricsRegistry()
    with observe(tracer, metrics):
        for name in names:
            with tracer.trace(f"figure.{name}", experiment=name):
                output = _COMMANDS[name](args)
            print(output)
            # The figure span was recorded on exit, so the printed
            # timing is byte-for-byte the one --report aggregates.
            print(f"  [{name} took {tracer.last_span().wall_s:.1f}s]\n")
    if sanitizer is not None:
        print(sanitizer.summary())
    chaos_line = chaos_summary()
    if chaos_line is not None:
        # To stderr: a REPRO_CHAOS run's stdout must stay byte-identical
        # to the serial baseline (the CI acceptance diff).
        print(chaos_line, file=sys.stderr)
    if args.trace:
        count = write_trace_jsonl(tracer, args.trace)
        print(f"trace: {count} spans -> {args.trace}")
    attribution = None
    if args.attribute:
        attribution = attribution_from_tracer(tracer)
        if attribution is not None:
            metrics.absorb_attribution(attribution)
            print(attribution_summary(attribution))
        else:
            print("attribution: no scheduling rounds recorded")
    if args.report:
        report = build_run_report(
            f"repro-coverage:{args.experiment}",
            tracer,
            metrics,
            meta={
                "experiment": args.experiment,
                "figures": names,
                "nodes": args.nodes,
                "degree": args.degree,
                "runs": args.runs,
                "seed": args.seed,
                "paper_scale": args.paper_scale,
                "workers": args.workers,
            },
            attribution=attribution,
        )
        validate_run_report(report)
        write_run_report(report, args.report)
        print(f"run-report -> {args.report}")
    if args.timeline:
        # The multi-lane view only says something when the trace carries
        # distributed spans (proc-tagged imports / barrier windows).
        spans = tracer.spans()
        distributed = any(
            "proc" in span.attrs or span.name == "shard.barrier"
            for span in spans
        )
        if distributed:
            canvas = lane_timeline_from_tracer(
                tracer, title=f"repro-coverage {args.experiment} (lanes)"
            )
        else:
            canvas = timeline_from_tracer(
                tracer, title=f"repro-coverage {args.experiment}"
            )
        canvas.save(args.timeline)
        print(f"timeline -> {args.timeline}")
    if args.profile:
        print(profile_summary(tracer))
    if sanitizer is not None and sanitizer.violations:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
