"""Runtime shadow-oracle sanitizer for live runs.

Enabled via ``REPRO_SANITIZE=1`` (any truthy value; ``warn`` records
without raising) or programmatically with :func:`enable_sanitizer` —
the ``repro-coverage --sanitize`` flag does the latter and also exports
the env var so parallel worker processes sanitize too.  When active:

* every **fresh CSR-kernel verdict** the topology engine computes is
  recomputed on the dict oracle (pure-Python BFS over the adjacency
  sets, :class:`~repro.network.graph.SubgraphView`,
  :class:`~repro.cycles.horton.ShortCycleSpan` with ``use_csr=False``)
  and compared;
* every **verdict-cache hit** is compared against a fresh recompute
  (stride-sampled via ``REPRO_SANITIZE_STRIDE``, default: every hit);
* every **kernel k-ball** is compared against the dict BFS;
* every **parallel metrics merge** of three or more worker payloads is
  re-associated — ``merge(a, merge(b, c))`` against
  ``merge(merge(a, b), c)`` — and the resulting registries compared.

Violations are reported through the ambient obs tracer (a zero-width
``sanitizer.violation`` span) and metrics registry
(``sanitizer.violations``), and raise :class:`SanitizerError` unless
the mode is ``warn``.  All checks are read-only recomputations: a
sanitized run is slower but produces byte-identical schedules, figures
and traces (modulo the sanitizer's own spans).

This module sits *below* :mod:`repro.topology` in the import order (the
engine imports it), so it must never import the topology package — the
oracle is rebuilt here from the network/cycles layers directly.
"""

from __future__ import annotations

import math
import os
from collections import deque
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence

from repro import knobs
from repro.cycles.horton import ShortCycleSpan
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import current_metrics, current_tracer


class SanitizerError(AssertionError):
    """A shadow-oracle check failed on a live run."""


class Violation:
    """One recorded divergence between the fast path and its oracle."""

    __slots__ = ("kind", "detail")

    def __init__(self, kind: str, detail: Dict[str, Any]) -> None:
        self.kind = kind
        self.detail = detail

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v!r}" for k, v in sorted(self.detail.items()))
        return f"sanitizer violation [{self.kind}] {pairs}"


# ----------------------------------------------------------------------
# Dict oracles (deliberately independent of the CSR kernel)
# ----------------------------------------------------------------------
def _dict_bfs(graph: Any, source: int, cutoff: Optional[int]) -> Dict[int, int]:
    """Truncated BFS over the raw adjacency sets — no CSR involvement."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        d = dist[u]
        if cutoff is not None and d >= cutoff:
            continue
        for w in sorted(graph.neighbors(u)):
            if w not in dist:
                dist[w] = d + 1
                frontier.append(w)
    return dist


def oracle_ball(graph: Any, v: int, radius: int) -> FrozenSet[int]:
    """The dict-oracle k-ball (includes ``v``)."""
    return frozenset(_dict_bfs(graph, v, radius))


def oracle_deletable(graph: Any, v: int, tau: int) -> bool:
    """Definition 5 on the dict oracle: punctured k-ball, connectivity,
    short-cycle span — every step forced onto the non-kernel path."""
    k = math.ceil(tau / 2)
    neighborhood = frozenset(_dict_bfs(graph, v, k)) - {v}
    if not neighborhood:
        return True
    view = graph.subgraph_view(neighborhood)
    if not view.is_connected():
        return False
    return ShortCycleSpan(view, tau, use_csr=False).spans_cycle_space()


def check_merge_associativity(
    payloads: Sequence[Sequence[Any]],
) -> Optional[str]:
    """Re-associate a metrics merge; ``None`` if both groupings agree.

    ``payloads`` are :meth:`MetricsRegistry.to_payload` snapshots in
    submission order.  Folding left ``((a + b) + c)`` and folding right
    ``(a + (b + c))`` must produce identical registries — counters and
    histogram concatenations are associative, gauges resolve
    last-write-wins under either grouping because submission order is
    preserved.  Returns a description of the first differing metric
    otherwise.
    """
    registries: List[MetricsRegistry] = []
    for rows in payloads:
        reg = MetricsRegistry()
        reg.merge_payload(list(rows))
        registries.append(reg)
    if len(registries) < 2:
        return None
    left = MetricsRegistry()
    for reg in registries:
        left.merge(reg)
    right = MetricsRegistry()
    for reg in reversed(registries):
        flipped = MetricsRegistry()
        flipped.merge(reg)
        flipped.merge(right)
        right = flipped
    left_dict, right_dict = left.as_dict(), right.as_dict()
    if left_dict == right_dict:
        return None
    names = sorted(set(left_dict) | set(right_dict))
    for name in names:
        if left_dict.get(name) != right_dict.get(name):
            return (
                f"metric {name!r}: left-fold {left_dict.get(name)!r} != "
                f"right-fold {right_dict.get(name)!r}"
            )
    return "registries differ"  # pragma: no cover - defensive


# ----------------------------------------------------------------------
# The sanitizer itself
# ----------------------------------------------------------------------
class Sanitizer:
    """Shadow-checks live computations against the dict oracles.

    ``mode`` is ``"raise"`` (default: first violation raises
    :class:`SanitizerError`) or ``"warn"`` (record and continue);
    ``stride`` samples the verdict-cache-hit recompute (1 = every hit).
    Checks and violations are counted per kind in :attr:`checks` /
    :attr:`violations`.
    """

    def __init__(self, mode: str = "raise", stride: int = 1) -> None:
        if mode not in ("raise", "warn"):
            raise ValueError(f"unknown sanitizer mode {mode!r}")
        self.mode = mode
        self.stride = max(1, int(stride))
        self.checks: Dict[str, int] = {}
        self.violations: List[Violation] = []
        self._hit_tick = 0

    # -- accounting ----------------------------------------------------
    def _count(self, kind: str) -> None:
        self.checks[kind] = self.checks.get(kind, 0) + 1
        metrics = current_metrics()
        if metrics is not None:
            metrics.inc(f"sanitizer.checks.{kind}")

    def _violate(self, kind: str, **detail: Any) -> None:
        violation = Violation(kind, detail)
        self.violations.append(violation)
        tracer = current_tracer()
        tracer.add_span("sanitizer.violation", 0.0, kind=kind, **detail)
        metrics = current_metrics()
        if metrics is not None:
            metrics.inc("sanitizer.violations")
        if self.mode == "raise":
            raise SanitizerError(repr(violation))

    @property
    def total_checks(self) -> int:
        return sum(self.checks.values())

    def summary(self) -> str:
        kinds = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.checks.items())
        )
        return (
            f"sanitizer: {self.total_checks} checks "
            f"({kinds or 'none'}), {len(self.violations)} violations"
        )

    # -- engine hooks --------------------------------------------------
    def check_fresh_verdict(self, graph: Any, v: int, tau: int, verdict: bool) -> None:
        """A fresh kernel verdict against the full dict-oracle recompute."""
        self._count("fresh_verdict")
        expected = oracle_deletable(graph, v, tau)
        if expected != verdict:
            self._violate(
                "kernel-verdict-divergence",
                vertex=v,
                tau=tau,
                kernel=verdict,
                oracle=expected,
            )

    def check_cached_verdict(self, graph: Any, v: int, tau: int, verdict: bool) -> None:
        """A verdict-cache hit against a fresh recompute (stride-sampled)."""
        self._hit_tick += 1
        if self._hit_tick % self.stride:
            return
        self._count("cached_verdict")
        expected = oracle_deletable(graph, v, tau)
        if expected != verdict:
            self._violate(
                "stale-verdict-cache",
                vertex=v,
                tau=tau,
                cached=verdict,
                oracle=expected,
            )

    def check_ball(
        self, graph: Any, v: int, radius: int, ball: Iterable[int]
    ) -> None:
        """A kernel k-ball against the dict BFS."""
        self._count("ball")
        expected = oracle_ball(graph, v, radius)
        got = frozenset(ball)
        if expected != got:
            self._violate(
                "kernel-ball-divergence",
                vertex=v,
                radius=radius,
                missing=sorted(expected - got)[:5],
                extra=sorted(got - expected)[:5],
            )

    def check_merge(self, payloads: Sequence[Sequence[Any]]) -> None:
        """Associativity of a live parallel metrics merge (>= 3 parts)."""
        if len(payloads) < 3:
            return
        self._count("merge_associativity")
        mismatch = check_merge_associativity(payloads)
        if mismatch is not None:
            self._violate(
                "merge-associativity", parts=len(payloads), mismatch=mismatch
            )

    def assert_clean(self) -> None:
        """Raise (even in ``warn`` mode) if any violation was recorded."""
        if self.violations:
            raise SanitizerError(
                f"{len(self.violations)} sanitizer violations; first: "
                f"{self.violations[0]!r}"
            )


# ----------------------------------------------------------------------
# Process-global activation (env-driven so worker processes inherit it)
# ----------------------------------------------------------------------
_ACTIVE: Optional[Sanitizer] = None


def current_sanitizer() -> Optional[Sanitizer]:
    """The active sanitizer, or ``None`` — the hot-path guard."""
    return _ACTIVE


def enable_sanitizer(
    mode: Optional[str] = None, stride: Optional[int] = None
) -> Sanitizer:
    """Install a fresh sanitizer and export ``REPRO_SANITIZE``.

    Exporting the env var is what lets :class:`ProcessPoolExecutor`
    workers — which import this module fresh — activate their own
    sanitizers; a worker violation in ``raise`` mode propagates to the
    caller through the future's result.
    """
    global _ACTIVE
    if mode is None:
        mode = "raise"
    if stride is None:
        stride = _env_stride()
    _ACTIVE = Sanitizer(mode=mode, stride=stride)
    os.environ["REPRO_SANITIZE"] = "warn" if mode == "warn" else "1"
    return _ACTIVE


def disable_sanitizer() -> None:
    """Deactivate and clear the env var (workers spawned later run clean)."""
    global _ACTIVE
    _ACTIVE = None
    os.environ.pop("REPRO_SANITIZE", None)


def _env_stride() -> int:
    return knobs.get_int("REPRO_SANITIZE_STRIDE")


def _init_from_env() -> None:
    global _ACTIVE
    value = os.environ.get("REPRO_SANITIZE", "").strip().lower()
    if value and value not in ("0", "false", "off", "no"):
        mode = "warn" if value == "warn" else "raise"
        _ACTIVE = Sanitizer(mode=mode, stride=_env_stride())


_init_from_env()
