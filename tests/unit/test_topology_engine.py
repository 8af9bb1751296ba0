"""Unit tests for the local topology engine and subgraph views."""

import pytest

from repro.network.graph import NetworkGraph, SubgraphView
from repro.network.topologies import triangulated_grid
from repro.topology import (
    LocalTopologyEngine,
    TopologyCounters,
    neighborhood_radius,
    punctured_deletable,
)


def path_graph(n):
    graph = NetworkGraph(range(n))
    for v in range(n - 1):
        graph.add_edge(v, v + 1)
    return graph


class TestNeighborhoodRadius:
    def test_matches_definition_5(self):
        assert neighborhood_radius(3) == 2
        assert neighborhood_radius(4) == 2
        assert neighborhood_radius(5) == 3
        assert neighborhood_radius(6) == 3

    def test_rejects_small_tau(self):
        with pytest.raises(ValueError):
            neighborhood_radius(2)


class TestSubgraphView:
    def test_matches_induced_subgraph(self):
        mesh = triangulated_grid(4, 4).graph
        keep = set(list(sorted(mesh.vertices()))[:10])
        view = mesh.subgraph_view(keep)
        copy = mesh.induced_subgraph(keep)
        assert view.vertex_set() == copy.vertex_set()
        assert set(view.edges()) == set(copy.edges())
        assert view.num_edges() == copy.num_edges()
        assert view.is_connected() == copy.is_connected()
        for v in keep:
            assert view.neighbors(v) == copy.neighbors(v)
            assert view.degree(v) == copy.degree(v)

    def test_view_is_lazy_over_live_graph(self):
        graph = path_graph(5)
        view = graph.subgraph_view({0, 1, 2})
        assert isinstance(view, SubgraphView)
        assert len(view) == 3
        assert view.has_edge(0, 1) and not view.has_edge(2, 3)


class TestEngineCaching:
    def test_repeat_query_hits_cache(self):
        mesh = triangulated_grid(5, 5).graph
        engine = LocalTopologyEngine(mesh, 4)
        v = sorted(mesh.vertices())[12]
        first = engine.deletable(v)
        tests_after_first = engine.counters.deletability_tests
        assert engine.deletable(v) == first
        assert engine.counters.deletability_tests == tests_after_first
        assert engine.counters.deletability_cache_hits == 1

    def test_far_deletion_preserves_cached_verdict(self):
        graph = path_graph(12)
        # Extend the path into a lollipop so middle vertices see cycles.
        engine = LocalTopologyEngine(graph, 4)
        engine.deletable(1)
        tests = engine.counters.deletability_tests
        # Vertex 11 is > k hops from 1's ball: verdict must survive.
        engine.delete_vertex(11)
        engine.deletable(1)
        assert engine.counters.deletability_tests == tests

    def test_near_deletion_invalidates(self):
        graph = path_graph(12)
        engine = LocalTopologyEngine(graph, 4)
        engine.deletable(5)
        tests = engine.counters.deletability_tests
        engine.delete_vertex(6)  # inside 5's k-ball
        engine.deletable(5)
        assert engine.counters.deletability_tests == tests + 1

    def test_edge_edits_count_every_dropped_verdict(self):
        mesh = triangulated_grid(5, 5).graph
        engine = LocalTopologyEngine(mesh, 4)
        vertices = sorted(mesh.vertices())
        for v in vertices:
            engine.deletable(v)
        u = vertices[12]
        w = min(mesh.neighbors(u))
        before = engine.counters.invalidations
        engine.delete_edge(u, w)
        assert engine.counters.invalidations == before + len(vertices)
        for v in vertices[:7]:
            engine.deletable(v)
        before = engine.counters.invalidations
        engine.add_edge(u, w)
        assert engine.counters.invalidations == before + 7

    def test_external_mutation_detected_by_version(self):
        mesh = triangulated_grid(4, 4).graph
        engine = LocalTopologyEngine(mesh, 4)
        v = sorted(mesh.vertices())[5]
        engine.deletable(v)
        u = sorted(mesh.vertices())[6]
        mesh.remove_vertex(u)  # behind the engine's back
        assert engine.deletable(v) == punctured_deletable(mesh.copy(), v, 4)

    def test_fork_shares_counters_but_not_graph(self):
        mesh = triangulated_grid(4, 4).graph
        engine = LocalTopologyEngine(mesh, 4)
        v = sorted(mesh.vertices())[7]
        engine.deletable(v)
        fork = engine.fork()
        assert fork.counters is engine.counters
        assert fork.graph is not engine.graph
        fork.delete_vertex(v)
        assert v in engine.graph and v not in fork.graph
        # Fork inherited the warm verdict cache.
        before = engine.counters.deletability_tests
        other = engine.fork()
        other.deletable(v)
        assert engine.counters.deletability_tests == before


class TestTauScope:
    def test_verdicts_are_tau_scoped(self):
        graph = triangulated_grid(4, 4).graph
        e3 = LocalTopologyEngine(graph.copy(), 3)
        e6 = LocalTopologyEngine(graph.copy(), 6)
        v = sorted(graph.vertices())[5]
        assert e3.deletable(v) == punctured_deletable(graph.copy(), v, 3)
        assert e6.deletable(v) == punctured_deletable(graph.copy(), v, 6)


class TestCounters:
    def test_merge_and_dict(self):
        a = TopologyCounters(deletability_queries=2, span_computations=1)
        b = TopologyCounters(deletability_queries=3, bfs_expansions=7)
        a.merge(b)
        assert a.deletability_queries == 5
        assert a.bfs_expansions == 7
        assert a.as_dict()["span_computations"] == 1
        assert "span" in a.summary()
