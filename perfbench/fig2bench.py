"""Figure-2 benchmark internals: workloads, layer probes, checks, spans.

Everything here observes the program from outside.  Layer calls are
timed by swapping the module-level names the Figure-2 driver
(:func:`repro.analysis.experiments.run_fig2_vertex_deletion`) looks up
for thin wrappers, for the duration of one job only; counters are read
off the values those calls already return, and the program's own spans
are read from the tracer installed through :func:`repro.obs.observe`.
No file under ``src/`` is modified.

Importing this module needs ``repro`` on ``sys.path``; ``run.py`` puts
the checkout's ``src`` there first.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import resource
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, Optional, Tuple

# planar_backbone imports scipy.spatial on first use (about 0.6 s); doing
# it here puts that cost in setup_s instead of the first job.
import scipy.spatial  # noqa: F401

import repro.analysis.experiments as experiments
import repro.boundary.geometric as geometric
from repro.network.radio import RadioModel
from repro.obs import MetricsRegistry, Tracer, attribute_spans, observe
from repro.obs.tracer import current_tracer

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

#: spans this benchmark records around each layer call (trace mode)
JOB = "perfbench.job"
DEPLOY = "perfbench.network_for_average_degree"
BUILD_GRAPH = "perfbench.build_graph"
OUTER_CYCLE = "perfbench.outer_boundary_cycle"
BACKBONE = "perfbench.planar_backbone"
CRITERION = "perfbench.is_tau_partitionable"
SCHEDULE = "perfbench.dcc_schedule"
SPAN_VERDICT = "kernel.span_verdict"
#: spans that hold one fresh verdict inside ``scheduler.mis_draw``
VERDICT_SPANS = ("engine.verdict", "kernel.batch_verdict")
#: spans that time an import of spans recorded in another capture
IMPORT_SPANS = ("fanout.task", "shard.merge")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    #: driver keyword arguments at full and at smoke-test scale
    full: Dict[str, Any]
    tiny: Dict[str, Any]

    def kwargs(self, scale: str) -> Dict[str, Any]:
        return dict(self.full if scale == "full" else self.tiny)

    @property
    def sharded(self) -> bool:
        return self.full.get("shards") is not None

    @property
    def workers(self) -> int:
        return int(self.full.get("workers") or 1)


def serial_counterpart(kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """The unsharded, single-process driver call over the same cells."""
    out = dict(kwargs)
    out.pop("shards", None)
    out["workers"] = 1
    return out


_TEN_K = dict(count=10000, degree=9.0, taus=(4,))
_TINY_TEN_K = dict(count=600, degree=9.0, taus=(4,))

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Why each workload exists: README.md and BENCHMARK.json.
        Workload(
            "fig2_dense",
            full=dict(workers=1),
            tiny=dict(count=120, workers=1),
        ),
        Workload(
            "fig2_10k",
            full=dict(_TEN_K, criterion=True, workers=1),
            tiny=dict(_TINY_TEN_K, criterion=True, workers=1),
        ),
        Workload(
            "fig2_10k_sharded",
            full=dict(_TEN_K, criterion=False, shards=2, workers=2),
            tiny=dict(_TINY_TEN_K, criterion=False, shards=2, workers=2),
        ),
    )
}


# ----------------------------------------------------------------------
# Layer probes
# ----------------------------------------------------------------------
def _wrap(fn: Callable[..., Any], span: str, calls: List[Tuple[float, Any]]):
    """``fn`` timed into ``calls`` and, when tracing, under ``span``.

    The ambient tracer is read at call time, so calls the driver makes
    inside a per-task capture land in that capture.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with current_tracer().trace(span):
            start = perf_counter()
            out = fn(*args, **kwargs)
            calls.append((perf_counter() - start, out))
        return out

    return wrapper


class Probes:
    """Wrappers around the driver's layer calls, installed for one job.

    Untraced jobs wrap only ``dcc_schedule`` (for ``schedule_s`` and the
    output check); traced jobs wrap every layer call the per-layer metrics read.
    """

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.calls: Dict[str, List[Tuple[float, Any]]] = {}
        self._saved: List[Tuple[Any, str, Any]] = []

    def _install(self, owner: Any, attr: str, span: str) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(original, span, self.calls.setdefault(span, [])))

    def __enter__(self) -> "Probes":
        self._install(experiments, "dcc_schedule", SCHEDULE)
        if self.trace:
            self._install(experiments, "network_for_average_degree", DEPLOY)
            self._install(RadioModel, "build_graph", BUILD_GRAPH)
            self._install(experiments, "outer_boundary_cycle", OUTER_CYCLE)
            self._install(geometric, "planar_backbone", BACKBONE)
            self._install(experiments, "is_tau_partitionable", CRITERION)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def schedules(self) -> List[Any]:
        return [out for __, out in self.calls.get(SCHEDULE, [])]

    def schedule_s(self) -> float:
        return sum(wall for wall, __ in self.calls.get(SCHEDULE, []))


class RotateCpus:
    """Move the calling thread round the CPUs it may run on, every ``period_s``.

    On a shared virtual machine each vCPU slows down on its own, for
    seconds to minutes at a time, and the kernel leaves a lone busy
    thread on the vCPU it started on.  A serial job then runs at the
    speed of whichever vCPU it was left on.  Moving it round all of them
    gives every job the mean speed of the machine's CPUs instead.

    Use it only around single-process work: a process forked inside it
    inherits a one-CPU affinity mask.  Without ``os.sched_setaffinity``
    or with one CPU it does nothing.
    """

    def __init__(self, period_s: float = 0.25) -> None:
        self.period_s = period_s
        getaffinity = getattr(os, "sched_getaffinity", None)
        self.cpus = sorted(getaffinity(0)) if getaffinity is not None else []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _rotate(self, tid: int) -> None:
        for step in itertools.count(1):
            if self._stop.wait(self.period_s):
                return
            os.sched_setaffinity(tid, {self.cpus[step % len(self.cpus)]})

    def __enter__(self) -> "RotateCpus":
        if len(self.cpus) > 1:
            self._thread = threading.Thread(
                target=self._rotate, args=(threading.get_native_id(),), daemon=True
            )
            self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
            os.sched_setaffinity(0, self.cpus)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def active_digest(graph: Any) -> str:
    """Digest of a coverage set: its sorted vertex ids."""
    text = ",".join(str(v) for v in sorted(graph.vertices()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def schedule_digests(schedules: List[Any]) -> Dict[str, str]:
    return {str(result.tau): active_digest(result.active) for result in schedules}


def reference_entry(result: Any, probes: Probes) -> Dict[str, Any]:
    """What a job is compared against: figure table and active-set digests."""
    return {"table": result.format_table(), "digests": schedule_digests(probes.schedules())}


def load_references(path: Path = REFERENCES) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def check_job(
    result: Any,
    probes: Probes,
    workload: Workload,
    reference: Optional[Dict[str, Any]],
    serial_digests: Optional[Dict[str, str]],
) -> List[str]:
    """Reasons the job's output is wrong; empty when it is right."""
    problems = []
    got = reference_entry(result, probes)
    if reference is not None:
        if got["table"] != reference["table"]:
            problems.append("figure table differs from the reference")
        if got["digests"] != reference["digests"]:
            problems.append("active sets differ from the reference")
    for tau in sorted(result.active_by_tau):
        if not result.preserved(tau):
            problems.append(f"tau={tau}: partitionability not preserved (Theorem 5)")
    if workload.sharded and serial_digests is not None:
        if got["digests"] != serial_digests:
            problems.append("sharded schedule differs from the serial schedule")
    return problems


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child, in MB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    schedule_s: float
    active_nodes: int
    problems: List[str]
    #: traced jobs only: the layer calls and the spans under them
    probes: Optional[Probes] = None
    tracer: Optional[Tracer] = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_job(
    workload: Workload,
    kwargs: Dict[str, Any],
    seed: int,
    trace: bool,
    reference: Optional[Dict[str, Any]],
    serial_digests: Optional[Dict[str, str]],
) -> Job:
    """One closed-loop job: a single driver call, timed and checked."""
    tracer = Tracer(capacity=1 << 22) if trace else None
    probes = Probes(trace)
    result = None
    problems: List[str] = []
    cpu0, children0 = process_time(), _children_cpu()
    start = perf_counter()
    try:
        with probes:
            if tracer is not None:
                with observe(tracer, MetricsRegistry()):
                    with tracer.trace(JOB):
                        result = experiments.run_fig2_vertex_deletion(seed=seed, **kwargs)
            else:
                result = experiments.run_fig2_vertex_deletion(seed=seed, **kwargs)
    except Exception as exc:  # the job boundary: a raise is a failed job
        traceback.print_exc()
        problems.append(f"raised {type(exc).__name__}: {exc}")
    wall = perf_counter() - start
    cpu = process_time() - cpu0 + _children_cpu() - children0
    if result is not None:
        problems = check_job(result, probes, workload, reference, serial_digests)
        if tracer is not None and tracer.dropped:
            problems.append(f"tracer dropped {tracer.dropped} spans")
    return Job(
        wall_s=wall,
        cpu_s=cpu,
        schedule_s=probes.schedule_s(),
        active_nodes=sum(result.active_by_tau.values()) if result is not None else 0,
        problems=problems,
        # Untraced jobs drop their schedules, so a run's peak memory does
        # not grow with the number of jobs it holds.
        probes=probes if trace else None,
        tracer=tracer,
    )


def serial_schedule(kwargs: Dict[str, Any], seed: int) -> Tuple[Dict[str, str], int]:
    """Digests and fresh-verdict count of the serial schedule (untimed)."""
    with Probes(trace=False) as probes:
        experiments.run_fig2_vertex_deletion(
            seed=seed, **dict(serial_counterpart(kwargs), criterion=False)
        )
    schedules = probes.schedules()
    return schedule_digests(schedules), sum(r.counters.deletability_tests for r in schedules)


# ----------------------------------------------------------------------
# Span analysis (traced jobs)
# ----------------------------------------------------------------------
@dataclass
class Node:
    span: Any
    children: List["Node"] = field(default_factory=list)

    def self_s(self, names: Optional[Tuple[str, ...]] = None) -> float:
        """Wall minus the part of it the (named) children cover."""
        lo = self.span.start_s
        hi = lo + self.span.wall_s
        covered = 0.0
        reach = lo
        for start, end in sorted(
            (c.span.start_s, c.span.start_s + c.span.wall_s)
            for c in self.children
            if names is None or c.span.name in names
        ):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        return self.span.wall_s - covered


def span_forest(spans: List[Any]) -> List[Node]:
    """Rebuild nesting from exit order: children precede their parent.

    A span in IMPORT_SPANS only times the import of spans recorded
    elsewhere (a task capture, a shard worker), which nest under it by
    depth.  Those are handed to its parent instead, where they ran.
    """
    pending: Dict[int, List[Node]] = {}
    for span in spans:
        children = pending.pop(span.depth + 1, [])
        siblings = pending.setdefault(span.depth, [])
        if span.name in IMPORT_SPANS:
            siblings.extend(children)
            children = []
        siblings.append(Node(span, children))
    return [node for depth in sorted(pending) for node in pending[depth]]


def walk(nodes: List[Node]):
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


@dataclass
class LayerRow:
    calls: int = 0
    wall_s: float = 0.0
    self_s: float = 0.0


def layer_table(forest: List[Node]) -> Dict[str, LayerRow]:
    """Calls, total wall and self time per span name."""
    rows: Dict[str, LayerRow] = {}
    for node in walk(forest):
        row = rows.setdefault(node.span.name, LayerRow())
        row.calls += 1
        row.wall_s += node.span.wall_s
        row.self_s += node.self_s()
    return rows


def _self(forest: List[Node], name: str, minus: Optional[Tuple[str, ...]] = None) -> float:
    return sum(n.self_s(minus) for n in walk(forest) if n.span.name == name)


def per_layer_metrics(
    job: Job, untraced_wall: float, untraced_cpu: float, workers: int, serial_tests: int
) -> Dict[str, float]:
    """The per-layer metric set of one traced job (see README.md)."""
    forest = span_forest(job.tracer.spans())
    rows = layer_table(forest)

    def row(name: str) -> LayerRow:
        return rows.get(name, LayerRow())

    def per_call(total: float, name: str) -> float:
        calls = row(name).calls
        return total / calls if calls else 0.0

    schedules = job.probes.schedules()
    counters = [r.counters for r in schedules]
    queries = sum(c.deletability_queries for c in counters)
    tests = sum(c.deletability_tests for c in counters)
    hits = sum(c.deletability_cache_hits for c in counters)
    deletions = sum(len(r.removed) for r in schedules)
    stats = [r.shard_stats for r in schedules if r.shard_stats is not None]
    deploys = job.probes.calls.get(DEPLOY, [])
    cycles = job.probes.calls.get(OUTER_CYCLE, [])
    lanes = (attribute_spans(job.tracer.spans()) or {}).get("totals", {})
    return {
        "network.deploy_s": per_call(_self(forest, DEPLOY, (BUILD_GRAPH,)), DEPLOY),
        "network.build_graph_s": per_call(row(BUILD_GRAPH).wall_s, BUILD_GRAPH),
        "network.edges": deploys[-1][1].graph.num_edges() if deploys else 0,
        "boundary.outer_cycle_s": per_call(_self(forest, OUTER_CYCLE, (BACKBONE,)), OUTER_CYCLE),
        "boundary.backbone_s": per_call(row(BACKBONE).wall_s, BACKBONE),
        "boundary.cycle_len": len(cycles[-1][1]) if cycles else 0,
        "criterion.s": row(CRITERION).wall_s,
        "criterion.calls": row(CRITERION).calls,
        "scheduler.rounds": sum(r.rounds for r in schedules),
        "scheduler.deletions": deletions,
        "scheduler.candidates_s": row("scheduler.candidates").wall_s,
        "scheduler.deletion_s": row("scheduler.deletion").wall_s,
        "scheduler.mis_draw_self_s": _self(forest, "scheduler.mis_draw", VERDICT_SPANS),
        "topology.verdict_self_s": _self(forest, "engine.verdict"),
        "topology.deletability_queries": queries,
        "topology.deletability_tests": tests,
        "topology.verdict_cache_hit_ratio": hits / queries if queries else 0.0,
        "topology.ball_computations": sum(c.ball_computations for c in counters),
        "topology.bfs_expansions": sum(c.bfs_expansions for c in counters),
        "topology.invalidations": sum(c.invalidations for c in counters),
        "topology.useful_verdict_ratio": deletions / tests if tests else 0.0,
        "cycles.span_verdict_s": row(SPAN_VERDICT).wall_s,
        "cycles.span_verdict_us": per_call(row(SPAN_VERDICT).wall_s * 1e6, SPAN_VERDICT),
        "cycles.ball_bfs_s": row("kernel.ball_bfs").wall_s,
        "shard.compute_s": lanes.get("compute_s", 0.0),
        "shard.barrier_wait_s": lanes.get("barrier_wait_s", 0.0),
        "shard.halo_s": lanes.get("halo_s", 0.0),
        "shard.merge_s": lanes.get("merge_s", 0.0),
        "shard.halo_rows": sum(s.halo_rows_total for s in stats),
        "shard.halo_bytes": sum(s.halo_bytes_total for s in stats),
        "shard.subrounds": sum(sum(s.subrounds_per_round) for s in stats),
        "shard.redundant_tests": tests - serial_tests if stats else 0,
        "parallel.utilisation": untraced_cpu / (untraced_wall * workers),
        "obs.trace_overhead_pct": (job.wall_s / untraced_wall - 1.0) * 100.0,
        "analysis.driver_self_s": row(JOB).self_s,
    }
