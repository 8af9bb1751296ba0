"""Experiment drivers, one per figure of the paper's evaluation.

Every driver returns a small result dataclass with the same rows/series the
paper reports, plus a ``format_table()`` for human-readable output.  The
default parameters are scaled down from the paper's (1600 nodes x 100 runs
on their hardware) so each driver finishes in seconds-to-minutes of pure
Python; ``paper_scale=True`` restores the published sizes.  DESIGN.md maps
each driver to its benchmark target.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.boundary.geometric import outer_boundary_cycle
from repro.core.confine import ConfineRequirement
from repro.core.criterion import is_tau_partitionable
from repro.core.scheduler import dcc_schedule
from repro.homology.hgc import hgc_schedule, hgc_verify
from repro.network.deployment import Network, network_for_average_degree
from repro.network.graph import NetworkGraph
from repro.network.topologies import mobius_band_network
from repro.traces.greenorbs import (
    GreenOrbsConfig,
    GreenOrbsTrace,
    generate_greenorbs_trace,
)
from repro.traces.rssi import rssi_cdf


def _prepare_network(
    count: int, degree: float, seed: int, rs: float = 1.0
) -> Tuple[Network, List[int], Set[int]]:
    """Deploy, extract the outer boundary, and build the protected set."""
    network = network_for_average_degree(count, degree, rc=1.0, rs=rs, seed=seed)
    cycle = outer_boundary_cycle(network)
    protected = set(network.boundary_nodes) | set(cycle)
    return network, cycle, protected


def _prepare_hgc_verified_network(
    count: int, degree: float, seed: int, max_attempts: int = 40
) -> Tuple[Network, List[int], Set[int]]:
    """A deployment that passes HGC's own verification.

    The HGC comparison (Figure 4) is only meaningful in the regime where
    Ghrist et al.'s method applies: the initial network must verify
    (trivial relative H1 plus the boundary certificate).  Random
    deployments contain unfillable 4-holes with appreciable probability,
    so we search successive seeds for a verifying instance.
    """
    for attempt in range(max_attempts):
        network, cycle, protected = _prepare_network(
            count, degree, seed + 1000 * attempt
        )
        if hgc_verify(network.graph, [cycle]).verified:
            return network, cycle, protected
    raise RuntimeError(
        f"no HGC-verified deployment found in {max_attempts} attempts; "
        "increase density"
    )


# ----------------------------------------------------------------------
# Figure 1 — Möbius band: criterion comparison
# ----------------------------------------------------------------------
@dataclass
class Fig1Result:
    hgc_relative_betti_1: int
    hgc_verified: bool
    dcc_partitionable: bool

    def format_table(self) -> str:
        return (
            "Figure 1 (Moebius band network):\n"
            f"  HGC relative b1 = {self.hgc_relative_betti_1} -> "
            f"verified={self.hgc_verified} (false negative)\n"
            f"  DCC 3-partitionable = {self.dcc_partitionable} (correct)"
        )


def run_fig1_mobius() -> Fig1Result:
    """HGC wrongly rejects the covered Möbius network; DCC accepts it."""
    mobius = mobius_band_network()
    verification = hgc_verify(mobius.graph, [mobius.outer_boundary])
    partitionable = is_tau_partitionable(mobius.graph, [mobius.outer_boundary], 3)
    return Fig1Result(
        hgc_relative_betti_1=verification.relative_betti_1,
        hgc_verified=verification.verified,
        dcc_partitionable=partitionable,
    )


# ----------------------------------------------------------------------
# Figure 2 — maximal vertex deletion at several confine sizes
# ----------------------------------------------------------------------
@dataclass
class Fig2Result:
    total_nodes: int
    protected_nodes: int
    active_by_tau: Dict[int, int]
    #: per-tau criterion outcomes; ``None`` when the run skipped the
    #: full-graph criterion check (``criterion=False`` at 100k+ scale).
    initially_partitionable: Dict[int, Optional[bool]]
    finally_partitionable: Dict[int, Optional[bool]]

    def preserved(self, tau: int) -> bool:
        """Theorem 5: scheduling never changes partitionability."""
        return (
            self.initially_partitionable[tau] == self.finally_partitionable[tau]
        )

    def format_table(self) -> str:
        lines = [
            "Figure 2 (maximal vertex deletion):",
            f"  network: {self.total_nodes} nodes "
            f"({self.protected_nodes} boundary/protected)",
        ]
        for tau in sorted(self.active_by_tau):
            lines.append(
                f"  tau={tau}: coverage set {self.active_by_tau[tau]:4d} nodes, "
                f"partitionable {self.initially_partitionable[tau]} -> "
                f"{self.finally_partitionable[tau]} "
                f"(preserved={self.preserved(tau)})"
            )
        return "\n".join(lines)


def _fig2_cell(
    graph: NetworkGraph,
    cycle: List[int],
    protected: Set[int],
    seed: int,
    tau: int,
    shards: Optional[int],
    workers: Optional[int],
    criterion: bool,
) -> Tuple[int, int, Optional[bool], Optional[bool]]:
    """One confine size of Figure 2 on the prepared network (picklable)."""
    initially = is_tau_partitionable(graph, [cycle], tau) if criterion else None
    result = dcc_schedule(
        graph, protected, tau, rng=random.Random(seed + tau),
        shards=shards, workers=workers,
    )
    finally_ = (
        is_tau_partitionable(result.active, [cycle], tau) if criterion else None
    )
    return tau, result.num_active, initially, finally_


def run_fig2_vertex_deletion(
    count: int = 420,
    degree: float = 25.0,
    taus: Sequence[int] = (3, 4, 5, 6),
    seed: int = 0,
    workers: Optional[int] = 1,
    shards: Optional[int] = None,
    criterion: bool = True,
) -> Fig2Result:
    """One network thinned for each confine size, as in Figure 2 (b-e).

    The network is prepared once and the per-tau cells share nothing
    else, so ``workers`` fans them across processes through
    :func:`parallel_starmap`; results are identical to the serial loop
    at any worker count, and so are run-reports (modulo wall-clock
    fields), because the serial path performs the same per-task capture
    under an active observation.

    ``shards`` runs every cell's schedule over halo-exchange region
    shards (vertex-identical results — see :mod:`repro.shard`).  A
    sharded run keeps the cells serial and spends ``workers`` on the
    schedule instead: each cell's shards are hosted by a
    coordinator-driven worker pool
    (:class:`~repro.parallel.runner.ShardWorkerPool`), which keeps the
    chaos/attribution accounting in this process.
    ``criterion=False`` skips the full-graph partitionability checks.
    The schedule is local work; the criterion is a whole-graph GF(2)
    span on sparse rows: ~0.8 s and ~15 MB on a 10k-node initial graph
    on a 2-vCPU Linux machine, ~10 s and ~240 MB at 100k (DESIGN.md
    section 5).  Skipping it saves that time; the 100k fig2-style bench
    uses ``criterion=False`` together with ``shards``.
    """
    from repro.parallel import parallel_starmap

    network, cycle, protected = _prepare_network(count, degree, seed)
    sharded = shards is not None
    cells = parallel_starmap(
        _fig2_cell,
        [
            (
                network.graph, cycle, protected, seed, tau, shards,
                workers if sharded else 1, criterion,
            )
            for tau in taus
        ],
        workers=1 if sharded else workers,
    )
    active_by_tau: Dict[int, int] = {}
    initially: Dict[int, Optional[bool]] = {}
    finally_: Dict[int, Optional[bool]] = {}
    for tau, active, init, fin in cells:
        active_by_tau[tau] = active
        initially[tau] = init
        finally_[tau] = fin
    return Fig2Result(
        total_nodes=len(network.graph),
        protected_nodes=len(protected),
        active_by_tau=active_by_tau,
        initially_partitionable=initially,
        finally_partitionable=finally_,
    )


# ----------------------------------------------------------------------
# Figure 3 — impact of confine size on coverage-set size
# ----------------------------------------------------------------------
@dataclass
class Fig3Result:
    taus: List[int]
    mean_ratio_by_tau: Dict[int, float]
    runs: int

    def format_table(self) -> str:
        lines = [
            "Figure 3 (coverage-set size ratio vs confine size, "
            f"{self.runs} runs; tau=3 is 1.0):"
        ]
        for tau in self.taus:
            lines.append(f"  tau={tau}: ratio={self.mean_ratio_by_tau[tau]:.3f}")
        return "\n".join(lines)


def _fig3_run(
    count: int, degree: float, taus: Sequence[int], seed: int, run: int
) -> Dict[int, float]:
    """Coverage-set sizes of one Figure 3 repetition (picklable)."""
    network, __, protected = _prepare_network(count, degree, seed + run)
    sizes: Dict[int, float] = {}
    for tau in taus:
        result = dcc_schedule(
            network.graph, protected, tau, rng=random.Random(seed + run)
        )
        sizes[tau] = result.num_active
    return sizes


def run_fig3_confine_size(
    count: int = 420,
    degree: float = 25.0,
    taus: Sequence[int] = (3, 4, 5, 6, 7, 8, 9),
    runs: int = 2,
    seed: int = 0,
    paper_scale: bool = False,
    workers: Optional[int] = 1,
) -> Fig3Result:
    """Mean coverage-set size, normalised by the tau=3 set, per tau.

    The paper uses 1600 nodes at average degree ~25 with 100 runs; the
    default here is a laptop-scale reduction that preserves density and
    therefore the curve's shape.  Repetitions are seed-independent, so
    ``workers`` fans them across processes (results identical to serial).
    """
    from repro.parallel import parallel_starmap

    if paper_scale:
        count, degree, runs = 1600, 25.0, 100
    ratios: Dict[int, List[float]] = {tau: [] for tau in taus}
    per_run = parallel_starmap(
        _fig3_run,
        [(count, degree, tuple(taus), seed, run) for run in range(runs)],
        workers=workers,
    )
    for sizes in per_run:
        base = sizes[taus[0]]
        for tau in taus:
            ratios[tau].append(sizes[tau] / base)
    return Fig3Result(
        taus=list(taus),
        mean_ratio_by_tau={
            tau: sum(values) / len(values) for tau, values in ratios.items()
        },
        runs=runs,
    )


# ----------------------------------------------------------------------
# Figure 4 — saved nodes vs sensing ratio, DCC against HGC
# ----------------------------------------------------------------------
@dataclass
class Fig4Result:
    gammas: List[float]
    requirements: List[float]
    #: saved-node ratio lambda indexed by (max hole diameter, gamma)
    saved: Dict[Tuple[float, float], float] = field(default_factory=dict)
    #: lambda over internal (schedulable) nodes only — the protected
    #: boundary ring is identical for both methods and dilutes the full
    #: ratio at laptop scale, where the periphery band is a large fraction
    saved_internal: Dict[Tuple[float, float], float] = field(
        default_factory=dict
    )
    tau_used: Dict[Tuple[float, float], Optional[int]] = field(default_factory=dict)

    def _grid(self, table: Dict[Tuple[float, float], float]) -> List[str]:
        lines = [
            "  Dmax\\gamma " + "  ".join(f"{g:5.2f}" for g in self.gammas)
        ]
        for dmax in self.requirements:
            label = "Full" if dmax == 0.0 else f"{dmax:.1f}"
            cells = []
            for gamma in self.gammas:
                lam = table.get((dmax, gamma))
                cells.append(f"{lam:5.2f}" if lam is not None else "    -")
            lines.append(f"  {label:>9} " + "  ".join(cells))
        return lines

    def format_table(self) -> str:
        lines = ["Figure 4 (saved nodes lambda = (n1-n2)/n1 vs gamma):"]
        lines.extend(self._grid(self.saved))
        if self.saved_internal:
            lines.append("  over internal nodes only:")
            lines.extend(self._grid(self.saved_internal))
        return "\n".join(lines)


def _fig4_run(
    count: int,
    degree: float,
    gammas: Sequence[float],
    requirements: Sequence[float],
    seed: int,
    run: int,
    tau_cap: int,
) -> Tuple[
    Dict[Tuple[float, float], Optional[int]],
    Dict[Tuple[float, float], float],
    Dict[Tuple[float, float], float],
]:
    """One Figure 4 repetition: ``(tau_used, lambda, lambda_internal)``."""
    network, cycle, protected = _prepare_hgc_verified_network(
        count, degree, seed + run
    )
    hgc = hgc_schedule(
        network.graph,
        [cycle],
        protected,
        rng=random.Random(seed + run),
        require_verified=True,
    )
    n1 = hgc.num_active
    n1_internal = n1 - len(protected)
    dcc_cache: Dict[int, int] = {}
    tau_used: Dict[Tuple[float, float], Optional[int]] = {}
    saved: Dict[Tuple[float, float], float] = {}
    saved_internal: Dict[Tuple[float, float], float] = {}
    for gamma in gammas:
        for dmax in requirements:
            requirement = ConfineRequirement(
                gamma=gamma, max_hole_diameter=dmax, rc=1.0
            )
            tau = requirement.max_feasible_tau(tau_cap=tau_cap)
            key = (dmax, gamma)
            tau_used[key] = tau
            if tau is None:
                # No connectivity-based guarantee possible: DCC falls
                # back to HGC's triangle granularity, saving nothing.
                saved[key] = 0.0
                saved_internal[key] = 0.0
                continue
            if tau not in dcc_cache:
                schedule = dcc_schedule(
                    network.graph,
                    protected,
                    tau,
                    rng=random.Random(seed + run),
                )
                dcc_cache[tau] = schedule.num_active
            n2 = dcc_cache[tau]
            saved[key] = max(0.0, (n1 - n2) / n1)
            if n1_internal > 0:
                saved_internal[key] = max(0.0, (n1 - n2) / n1_internal)
    return tau_used, saved, saved_internal


def run_fig4_hgc_comparison(
    count: int = 300,
    degree: float = 25.0,
    gammas: Sequence[float] = (2.0, 1.8, 1.6, 1.4, 1.2, 1.0),
    requirements: Sequence[float] = (0.0, 0.4, 0.8, 1.2),
    runs: int = 2,
    seed: int = 3,
    tau_cap: int = 9,
    workers: Optional[int] = 1,
) -> Fig4Result:
    """DCC (adaptive tau) against HGC (fixed triangles), Figure 4.

    For every sensing ratio ``gamma`` and hole-diameter requirement the
    DCC scheduler runs at the largest feasible confine size (Proposition
    1); HGC's coverage set is independent of ``gamma`` because it always
    uses triangles.  ``lambda = (n1 - n2)/n1`` counts the nodes DCC saves.
    Repetitions are seed-independent; ``workers`` fans them across
    processes with results identical to the serial loop.
    """
    from repro.parallel import parallel_starmap

    result = Fig4Result(gammas=list(gammas), requirements=list(requirements))
    accum: Dict[Tuple[float, float], List[float]] = {}
    accum_internal: Dict[Tuple[float, float], List[float]] = {}
    per_run = parallel_starmap(
        _fig4_run,
        [
            (count, degree, tuple(gammas), tuple(requirements), seed, run, tau_cap)
            for run in range(runs)
        ],
        workers=workers,
    )
    for tau_used, saved, saved_internal in per_run:
        result.tau_used.update(tau_used)
        for key, lam in saved.items():
            accum.setdefault(key, []).append(lam)
        for key, lam in saved_internal.items():
            accum_internal.setdefault(key, []).append(lam)
    result.saved = {
        key: sum(values) / len(values) for key, values in accum.items()
    }
    result.saved_internal = {
        key: sum(values) / len(values)
        for key, values in accum_internal.items()
    }
    return result


# ----------------------------------------------------------------------
# Figure 5 — RSSI CDF of the (synthetic) GreenOrbs trace
# ----------------------------------------------------------------------
@dataclass
class Fig5Result:
    thresholds_dbm: List[float]
    fraction_at_least: List[float]
    chosen_threshold_dbm: float
    kept_fraction: float

    def format_table(self) -> str:
        lines = ["Figure 5 (RSSI CDF of the synthetic GreenOrbs trace):"]
        for threshold, fraction in zip(self.thresholds_dbm, self.fraction_at_least):
            lines.append(f"  >= {threshold:6.1f} dBm : {fraction:5.1%} of edges")
        lines.append(
            f"  chosen threshold {self.chosen_threshold_dbm:.1f} dBm keeps "
            f"{self.kept_fraction:.0%} of undirected edges"
        )
        return "\n".join(lines)


def run_fig5_rssi_cdf(
    config: Optional[GreenOrbsConfig] = None,
    seed: int = 1,
    trace: Optional[GreenOrbsTrace] = None,
) -> Fig5Result:
    trace = trace or generate_greenorbs_trace(config, seed=seed)
    values = trace.trace.edge_rssi_values()
    thresholds = [-45.0, -55.0, -65.0, -75.0, -85.0, -95.0]
    fractions = rssi_cdf(values, thresholds)
    kept = sum(1 for v in values if v >= trace.threshold_dbm) / len(values)
    return Fig5Result(
        thresholds_dbm=thresholds,
        fraction_at_least=fractions,
        chosen_threshold_dbm=trace.threshold_dbm,
        kept_fraction=kept,
    )


# ----------------------------------------------------------------------
# Figures 6 & 7 — DCC on the trace topology
# ----------------------------------------------------------------------
@dataclass
class TraceConfineResult:
    taus: List[int]
    inner_left_by_tau: Dict[int, int]
    boundary_nodes: int
    total_nodes: int

    def format_table(self, figure: str) -> str:
        lines = [
            f"Figure {figure} (trace topology, {self.total_nodes} nodes, "
            f"{self.boundary_nodes} boundary):"
        ]
        for tau in self.taus:
            lines.append(
                f"  tau={tau}: inner nodes left = {self.inner_left_by_tau[tau]}"
            )
        return "\n".join(lines)


def _trace_confine_cell(
    graph: NetworkGraph, protected: Set[int], seed: int, tau: int
) -> Tuple[int, int]:
    """One confine size on the prepared trace topology (picklable)."""
    result = dcc_schedule(graph, protected, tau, rng=random.Random(seed + tau))
    return tau, result.num_active - len(protected)


def run_trace_confine(
    taus: Sequence[int] = (3, 4, 5, 6, 7, 8),
    config: Optional[GreenOrbsConfig] = None,
    seed: int = 1,
    trace: Optional[GreenOrbsTrace] = None,
    workers: Optional[int] = 1,
) -> TraceConfineResult:
    """Inner nodes retained per confine size on the trace topology.

    Figure 6 plots taus 3..8; Figure 7's snapshots are taus 3..7 of the
    same experiment.  The sharp drop between tau=3 and tau=5 is the
    signature the paper attributes to the trace's long links and the long
    narrow deployment shape.  The trace topology is built once (from
    ``trace`` or regenerated from ``seed``) and the per-tau runs go
    through :func:`parallel_starmap`, so ``workers`` fans them across
    processes and run-reports are worker-count invariant.
    """
    from repro.parallel import parallel_starmap

    config = config or GreenOrbsConfig()
    trace = trace or generate_greenorbs_trace(config, seed=seed)
    network = trace.as_network(rc=config.max_range, rs=config.max_range)
    protected = set(outer_boundary_cycle(network))
    cells = parallel_starmap(
        _trace_confine_cell,
        [(network.graph, protected, seed, tau) for tau in taus],
        workers=workers,
    )
    return TraceConfineResult(
        taus=list(taus),
        inner_left_by_tau=dict(cells),
        boundary_nodes=len(protected),
        total_nodes=len(network.graph),
    )


def run_fig6_trace(seed: int = 1, workers: Optional[int] = 1) -> TraceConfineResult:
    return run_trace_confine(taus=(3, 4, 5, 6, 7, 8), seed=seed, workers=workers)


def run_fig7_trace(seed: int = 1, workers: Optional[int] = 1) -> TraceConfineResult:
    return run_trace_confine(taus=(3, 4, 5, 6, 7), seed=seed, workers=workers)
