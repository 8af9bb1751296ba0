"""Property-based tests for the cycle space and Horton machinery."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.criterion import boundary_edge_sum
from repro.cycles.cycle_space import (
    EdgeIndex,
    cycle_space_dimension,
    fundamental_cycle_basis,
    is_cycle_mask,
    decompose_mask_into_cycles,
)
from repro.cycles.gf2 import GF2Basis
from repro.cycles.horton import (
    ShortCycleSpan,
    horton_candidate_cycles,
    max_irreducible_cycle_bounded,
    minimum_cycle_basis,
)
from repro.network.graph import NetworkGraph


@st.composite
def random_graphs(draw, max_nodes=10):
    n = draw(st.integers(min_value=3, max_value=max_nodes))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((i, j))
    return NetworkGraph(range(n), edges)


class TestCycleSpaceProperties:
    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_fundamental_basis_has_full_rank(self, graph):
        __, masks = fundamental_cycle_basis(graph)
        assert GF2Basis(masks).rank == len(masks) == cycle_space_dimension(graph)

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_fundamental_masks_are_simple_cycles(self, graph):
        index, masks = fundamental_cycle_basis(graph)
        for mask in masks:
            assert is_cycle_mask(mask, index)

    @given(random_graphs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_xor_of_cycles_decomposes_into_cycles(self, graph, data):
        index, masks = fundamental_cycle_basis(graph)
        if not masks:
            return
        picks = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(masks) - 1),
                max_size=len(masks),
                unique=True,
            )
        )
        total = 0
        for i in picks:
            total ^= masks[i]
        if total == 0:
            return
        cycles = decompose_mask_into_cycles(total, index)
        rebuilt = 0
        for cycle in cycles:
            assert is_cycle_mask(cycle.mask, index)
            rebuilt ^= cycle.mask
        assert rebuilt == total


class TestHortonProperties:
    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_mcb_size_and_independence(self, graph):
        nu = cycle_space_dimension(graph)
        basis = minimum_cycle_basis(graph)
        assert len(basis) == nu
        assert GF2Basis(c.mask for c in basis).rank == nu

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_mcb_total_length_minimal_vs_brute(self, graph):
        nu = cycle_space_dimension(graph)
        if nu == 0 or len(graph) > 9:
            return
        index = EdgeIndex.from_graph(graph)
        all_cycles = sorted(
            (len(c), index.mask_of_vertex_cycle(c))
            for c in nx.simple_cycles(graph.to_networkx())
            if len(c) >= 3
        )
        brute = GF2Basis()
        total = 0
        for length, mask in all_cycles:
            if brute.add(mask):
                total += length
                if brute.rank == nu:
                    break
        ours = sum(c.length for c in minimum_cycle_basis(graph))
        assert ours == total

    @given(random_graphs(), st.integers(min_value=3, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_span_test_matches_mcb(self, graph, tau):
        basis = minimum_cycle_basis(graph)
        if not basis:
            assert max_irreducible_cycle_bounded(graph, tau)
            return
        maximum = max(c.length for c in basis)
        assert max_irreducible_cycle_bounded(graph, tau) == (maximum <= tau)

    @given(random_graphs(), st.integers(min_value=3, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_span_contains_every_capped_candidate(self, graph, tau):
        span = ShortCycleSpan(graph, tau)
        for cycle in horton_candidate_cycles(graph, max_length=tau):
            assert span.contains_vertex_cycle(cycle)

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_bounded_is_monotone_in_tau(self, graph):
        results = [
            max_irreducible_cycle_bounded(graph, tau) for tau in range(3, 11)
        ]
        assert results == sorted(results)


@st.composite
def mutated_graphs(draw, max_nodes=12):
    """Random graphs edited through their CSR mirror.

    Deleting vertices leaves dead slots behind; adding a vertex whose id
    is smaller than every existing one makes slot order disagree with id
    order (``monotone_ids`` false).  The mirror stays the graph's cached
    one, so ``ShortCycleSpan``'s CSR path runs over both.
    """
    offset = 4
    n = draw(st.integers(min_value=3, max_value=max_nodes))
    ids = range(offset, offset + n)
    # A union of random cycles plus a few extra edges: unlike a coin per
    # vertex pair, this keeps long chordless cycles common, so the
    # tau >= 5 closure stage is exercised, not just triangles and squares.
    loops = draw(
        st.lists(
            st.lists(st.sampled_from(ids), min_size=3, max_size=8, unique=True),
            max_size=4,
        )
    )
    edges = [(a, b) for loop in loops for a, b in zip(loop, loop[1:] + loop[:1])]
    pairs = [(u, v) for u in ids for v in ids if u < v]
    edges += draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n))
    graph = NetworkGraph(ids, edges)
    csr = graph.csr()
    doomed = draw(st.lists(st.sampled_from(ids), unique=True, max_size=n // 3))
    for v in doomed:
        csr.delete_vertex(v)
    alive = sorted(graph.vertices())
    for new in draw(st.lists(st.integers(0, offset - 1), unique=True, max_size=3)):
        nbrs = draw(st.lists(st.sampled_from(alive), unique=True, max_size=4))
        csr.add_vertex(new)
        for w in nbrs:
            csr.add_edge(new, w)
        alive.append(new)
    assert graph.csr() is csr
    return graph


class TestShortCycleSpanOracleParity:
    """The CSR staged kernel reaches exactly the dict oracle's subspace."""

    @pytest.mark.parametrize("tau", [3, 4, 5, 6])
    @given(graph=mutated_graphs(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_csr_span_matches_dict_oracle(self, tau, graph, data):
        fast = ShortCycleSpan(graph, tau)
        oracle = ShortCycleSpan(graph, tau, use_csr=False)
        assert fast.rank == oracle.rank
        assert fast.cycle_space_dimension == oracle.cycle_space_dimension
        assert fast.spans_cycle_space() == oracle.spans_cycle_space()

        index, masks = fundamental_cycle_basis(graph)
        if masks:
            picks = data.draw(
                st.lists(st.sampled_from(range(len(masks))), unique=True)
            )
            total = 0
            for i in picks:
                total ^= masks[i]
            edges = index.edges_of_mask(total)
            assert fast.contains_edges(edges) == oracle.contains_edges(edges)
        candidates = horton_candidate_cycles(graph)
        if candidates:
            chosen = data.draw(
                st.lists(st.sampled_from(candidates), min_size=1, max_size=4)
            )
            edges = boundary_edge_sum(chosen)
            assert fast.contains_edges(edges) == oracle.contains_edges(edges)
