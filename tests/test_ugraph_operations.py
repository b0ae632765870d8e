"""Unit tests for structural graph operations."""

import pytest

from repro.exceptions import GraphConstructionError
from repro.ugraph import (
    UncertainGraph,
    align_edge_universe,
    edge_probability_map,
    induced_subgraph,
    overlay,
    probability_l1_distance,
    relabel,
)


class TestInducedSubgraph:
    def test_keeps_internal_edges(self, bridge_graph):
        sub = induced_subgraph(bridge_graph, [0, 1, 2])
        assert sub.n_nodes == 3
        assert sub.n_edges == 3

    def test_renumbers_densely(self, bridge_graph):
        sub = induced_subgraph(bridge_graph, [3, 4, 5])
        assert sub.has_edge(0, 1)  # was (3, 4)

    def test_deduplicates_input(self, triangle):
        sub = induced_subgraph(triangle, [0, 1, 0, 1])
        assert sub.n_nodes == 2

    def test_rejects_unknown_vertex(self, triangle):
        with pytest.raises(GraphConstructionError):
            induced_subgraph(triangle, [0, 7])


class TestRelabel:
    def test_permutes_edges(self, path4):
        permuted = relabel(path4, [3, 2, 1, 0])
        assert permuted.probability(3, 2) == pytest.approx(0.9)
        assert permuted.probability(2, 1) == pytest.approx(0.5)

    def test_rejects_non_bijection(self, path4):
        with pytest.raises(GraphConstructionError):
            relabel(path4, [0, 0, 1, 2])

    def test_moves_labels(self):
        g = UncertainGraph(2, [(0, 1, 0.5)], labels=["a", "b"])
        assert relabel(g, [1, 0]).labels == ["b", "a"]


class TestOverlay:
    def test_updates_existing_edge(self, triangle):
        merged = overlay(triangle, [(0, 1, 0.99)])
        assert merged.probability(0, 1) == pytest.approx(0.99)
        assert merged.probability(1, 2) == pytest.approx(0.8)

    def test_adds_new_edge(self, path4):
        merged = overlay(path4, [(0, 3, 0.2)])
        assert merged.probability(0, 3) == pytest.approx(0.2)
        assert merged.n_edges == 4

    def test_zero_update_keeps_edge_in_universe(self, triangle):
        merged = overlay(triangle, [(0, 1, 0.0)])
        assert merged.has_edge(0, 1)
        assert merged.probability(0, 1) == 0.0


class TestAlignment:
    def test_align_edge_universe(self):
        a = UncertainGraph(3, [(0, 1, 0.5)])
        b = UncertainGraph(3, [(1, 2, 0.4)])
        aligned_a, aligned_b = align_edge_universe(a, b)
        assert aligned_a.n_edges == aligned_b.n_edges == 2
        assert aligned_a.probability(1, 2) == 0.0
        assert aligned_b.probability(0, 1) == 0.0

    def test_align_rejects_mismatched_vertex_sets(self):
        with pytest.raises(GraphConstructionError):
            align_edge_universe(UncertainGraph(2), UncertainGraph(3))

    def test_l1_distance(self):
        a = UncertainGraph(3, [(0, 1, 0.5), (1, 2, 0.2)])
        b = UncertainGraph(3, [(0, 1, 0.7), (0, 2, 0.1)])
        # |0.5-0.7| + |0.2-0| + |0-0.1| = 0.5
        assert probability_l1_distance(a, b) == pytest.approx(0.5)

    def test_l1_distance_zero_for_identical(self, triangle):
        assert probability_l1_distance(triangle, triangle) == 0.0

    def test_l1_distance_symmetric(self, triangle, path4):
        a = UncertainGraph(3, [(0, 1, 0.5)])
        b = UncertainGraph(3, [(0, 1, 0.9), (1, 2, 0.3)])
        assert probability_l1_distance(a, b) == pytest.approx(
            probability_l1_distance(b, a)
        )


def test_edge_probability_map(triangle):
    mapping = edge_probability_map(triangle)
    assert mapping[(0, 1)] == pytest.approx(0.5)
    assert len(mapping) == 3
