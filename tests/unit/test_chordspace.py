"""Unit tests for the chord-space internals of the Horton machinery."""


from repro.cycles.cycle_space import cycle_space_dimension
from repro.cycles.horton import ShortCycleSpan, _ChordSpace, _SlotChords
from repro.network.graph import NetworkGraph
from repro.network.topologies import cycle_graph


class TestChordSpace:
    def test_nu_matches_cycle_space_dimension(self, k4, trigrid6):
        for graph in (k4, trigrid6.graph):
            chords = _ChordSpace(graph)
            assert chords.nu == cycle_space_dimension(graph)

    def test_forest_has_no_chords(self):
        g = NetworkGraph(range(5), [(0, 1), (1, 2), (3, 4)])
        assert _ChordSpace(g).nu == 0

    def test_chord_masks_stored_both_orientations(self, k4):
        chords = _ChordSpace(k4)
        for (u, v), mask in list(chords.chord_mask.items()):
            assert chords.chord_mask[(v, u)] == mask

    def test_single_cycle_has_one_chord(self):
        chords = _ChordSpace(cycle_graph(7))
        assert chords.nu == 1
        cycle = list(range(7))
        assert chords.project_vertex_cycle(cycle) == 1

    def test_tree_edges_project_to_zero(self, trigrid6):
        chords = _ChordSpace(trigrid6.graph)
        # a path (no closing chord usage) projects through tree edges only
        # when none of its edges are chords; verify at least that the
        # projection of a cycle equals the XOR of its chord-edge masks
        cycle = trigrid6.outer_boundary
        expected = 0
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            expected ^= chords.chord_mask.get((a, b), 0)
        assert chords.project_vertex_cycle(cycle) == expected

    def test_projection_is_linear(self, k4):
        chords = _ChordSpace(k4)
        t1 = chords.project_vertex_cycle([0, 1, 2])
        t2 = chords.project_vertex_cycle([0, 2, 3])
        square = chords.project_vertex_cycle([0, 1, 2, 3])
        # triangles share edge (0,2): sum of projections = square's
        assert t1 ^ t2 == square

    def test_distinct_cycles_project_distinctly(self, k4):
        chords = _ChordSpace(k4)
        projections = {
            chords.project_vertex_cycle(c)
            for c in ([0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3])
        }
        assert len(projections) == 4

    def test_project_edges_matches_vertex_projection(self, k4):
        chords = _ChordSpace(k4)
        cycle = [0, 1, 2]
        edges = [(0, 1), (1, 2), (2, 0)]
        assert chords.project_edges(edges) == chords.project_vertex_cycle(cycle)


class TestSlotChords:
    def test_nu_matches_cycle_space_dimension(self, k4, trigrid6):
        two_parts = NetworkGraph(
            range(8),
            [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7), (7, 4), (4, 6)],
        )
        for graph in (k4, trigrid6.graph, two_parts):
            assert _SlotChords(graph.csr()).nu == cycle_space_dimension(graph)

    def test_ids_count_up_from_one_and_tree_edges_are_empty(self, trigrid6):
        chords = _SlotChords(trigrid6.graph.csr())
        ids = sorted(c for row in chords.vectors for vec in row for c in vec)
        # every chord id appears under both orientations of its edge
        assert ids == sorted(2 * list(range(1, chords.nu + 1)))
        empty = sum(not vec for row in chords.vectors for vec in row)
        assert empty == 2 * (len(trigrid6.graph) - 1)

    def test_edges_added_after_the_build_are_not_in_the_span(self):
        graph = cycle_graph(6)
        span = ShortCycleSpan(graph, 6)
        assert span.contains_vertex_cycle(list(range(6)))
        graph.add_edge(0, 3)
        # the span describes the graph it was built on
        assert not span.contains_vertex_cycle([0, 1, 2, 3])
