"""The CSR kernel: compact-adjacency primitives against the dict oracle.

Every primitive the kernel fast-paths (BFS distances, hop balls,
punctured balls, span verdicts) has a dict-based reference
implementation that stays in the tree as the oracle; these tests pin
the kernel to it, including across incremental mutations and on the
non-monotone slot path (vertices added out of id order).
"""

import random

import pytest

from repro.cycles.horton import ShortCycleSpan
from repro.network.graph import NetworkGraph
from repro.topology import LocalTopologyEngine


def _random_graph(seed, n=24, p=0.25):
    rng = random.Random(seed)
    g = NetworkGraph(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def _dict_ball(graph, v, radius):
    return frozenset(graph.bfs_distances(v, cutoff=radius))


def test_csr_mirror_tracks_mutations():
    g = _random_graph(3)
    csr = g.csr()
    csr.delete_vertex(5)
    csr.delete_edge(*next(iter(g.edges())))
    csr.add_vertex(100)
    csr.add_edge(100, 7)
    assert g.csr() is csr  # still in lock-step, no rebuild
    for v in g.vertices():
        want = g.bfs_distances(v)
        got = csr.bfs_distances(v)
        assert got == want


def test_out_of_band_mutation_triggers_rebuild():
    g = _random_graph(4)
    csr = g.csr()
    g.remove_vertex(2)  # bypasses the mirror
    rebuilt = g.csr()
    assert rebuilt is not csr
    assert 2 not in rebuilt.index


def test_ball_primitives_match_dict_bfs():
    g = _random_graph(5)
    csr = g.csr()
    for v in g.vertices():
        for radius in (1, 2, 3):
            ball = csr.ball_ids(v, radius)
            assert ball == _dict_ball(g, v, radius)
            slots = csr.punctured_ball_slots(v, radius)
            assert csr.index[v] not in slots
            assert frozenset(csr.ids[i] for i in slots) == ball - {v}


@pytest.mark.parametrize("tau", [3, 4, 5, 6])
def test_span_connected_verdict_matches_oracle(tau):
    g = _random_graph(8, n=18, p=0.3)
    csr = g.csr()
    rng = random.Random(2)
    for _ in range(12):
        members_ids = frozenset(v for v in g.vertices() if rng.random() < 0.6)
        if not members_ids:
            continue
        view = g.subgraph_view(members_ids)
        want = view.is_connected() and ShortCycleSpan(view, tau).spans_cycle_space()
        slots = csr.member_slots(members_ids)
        assert csr.span_connected_verdict(slots, tau) == want


def test_engine_kernel_matches_oracle_across_deletions():
    g = _random_graph(9, n=30)
    kernel_engine = LocalTopologyEngine(g.copy(), 4, use_kernel=True)
    oracle_engine = LocalTopologyEngine(g.copy(), 4, use_kernel=False)
    rng = random.Random(3)
    for _ in range(6):
        for v in sorted(kernel_engine.graph.vertices()):
            assert kernel_engine.deletable(v) == oracle_engine.deletable(v)
        alive = sorted(kernel_engine.graph.vertices())
        if len(alive) <= 4:
            break
        victim = rng.choice(alive)
        kernel_engine.delete_vertex(victim)
        oracle_engine.delete_vertex(victim)
