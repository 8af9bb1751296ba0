"""Property-based tests for the local topology engine's cache coherence.

The engine's whole value proposition is that its dirty-region invalidation
is *sound*: after any interleaving of vertex/edge deletions, a cached
deletability verdict must agree with a from-scratch Definition 5 test on
the same graph.  These tests drive random mutation sequences on random
geometric graphs and compare the engine against the stateless oracle.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.graph import NetworkGraph
from repro.topology import LocalTopologyEngine, punctured_deletable


def _geometric_graph(seed: int, nodes: int, radius: float) -> NetworkGraph:
    """Random geometric graph on the unit square (largest component)."""
    rng = random.Random(seed)
    points = {v: (rng.random(), rng.random()) for v in range(nodes)}
    graph = NetworkGraph(points)
    r2 = radius * radius
    items = sorted(points.items())
    for i, (u, (ux, uy)) in enumerate(items):
        for v, (vx, vy) in items[i + 1 :]:
            if (ux - vx) ** 2 + (uy - vy) ** 2 <= r2:
                graph.add_edge(u, v)
    giant = max(graph.connected_components(), key=len)
    return graph.induced_subgraph(giant)


@st.composite
def geometric_graphs(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    nodes = draw(st.integers(min_value=8, max_value=22))
    return _geometric_graph(seed, nodes, radius=0.45)


class TestEngineAgreesWithOracle:
    @given(geometric_graphs(), st.integers(min_value=3, max_value=6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_verdicts_match_fresh_recomputation_under_deletions(
        self, graph, tau, data
    ):
        engine = LocalTopologyEngine(graph.copy(), tau)
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            vertices = sorted(engine.graph.vertices())
            if len(vertices) <= 2:
                break
            # Query a handful of vertices (populating the caches) ...
            probes = data.draw(
                st.lists(
                    st.sampled_from(vertices), min_size=1, max_size=4, unique=True
                )
            )
            for v in probes:
                assert engine.deletable(v) == punctured_deletable(
                    engine.graph.copy(), v, tau
                )
            # ... then mutate and re-query: stale answers would diverge.
            if data.draw(st.booleans()) and engine.graph.num_edges() > 0:
                u, w = data.draw(st.sampled_from(sorted(engine.graph.edges())))
                engine.delete_edge(u, w)
            else:
                victim = data.draw(st.sampled_from(vertices))
                engine.delete_vertex(victim)
            for v in sorted(engine.graph.vertices())[:4]:
                assert engine.deletable(v) == punctured_deletable(
                    engine.graph.copy(), v, tau
                )

    @given(geometric_graphs(), st.integers(min_value=3, max_value=6), st.data())
    @settings(max_examples=20, deadline=None)
    def test_seed_parity_mode_matches_cached_mode(self, graph, tau, data):
        """The seed's recompute-from-scratch verdicts match both cached engines.

        The kernel engine and the dict oracle engine keep warm verdict
        caches across random vertex and edge deletions; every verdict of
        both must equal a fresh ``punctured_deletable`` on a copy of the
        current graph.
        """
        cached = LocalTopologyEngine(graph.copy(), tau)
        oracle = LocalTopologyEngine(graph.copy(), tau, use_kernel=False)
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            vertices = sorted(cached.graph.vertices())
            if len(vertices) <= 2:
                break
            for v in vertices:
                fresh = punctured_deletable(cached.graph.copy(), v, tau)
                assert cached.deletable(v) == fresh
                assert oracle.deletable(v) == fresh
            if data.draw(st.booleans()) and cached.graph.num_edges() > 0:
                u, w = data.draw(st.sampled_from(sorted(cached.graph.edges())))
                cached.delete_edge(u, w)
                oracle.delete_edge(u, w)
            else:
                victim = data.draw(st.sampled_from(vertices))
                cached.delete_vertex(victim)
                oracle.delete_vertex(victim)
