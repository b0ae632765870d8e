"""Liu-Terzi k-degree anonymization baseline."""

import numpy as np
import pytest

from repro.baselines import (
    anonymize_degree_sequence,
    extract_representative,
    k_degree_anonymize,
    realize_supergraph,
)
from repro.exceptions import ObfuscationError
from repro.metrics import k_degree_anonymity
from repro.ugraph import UncertainGraph


def brute_force_min_cost(degrees, k):
    """Reference: try every valid consecutive partition of the sorted
    sequence, return the minimal total increase."""
    degrees = sorted(degrees, reverse=True)
    n = len(degrees)

    best = [float("inf")] * (n + 1)
    best[0] = 0
    for j in range(1, n + 1):
        for i in range(0, j):
            width = j - i
            if width < k:
                continue
            cost = degrees[i] * width - sum(degrees[i:j])
            if best[i] + cost < best[j]:
                best[j] = best[i] + cost
    return best[n]


class TestSequenceDP:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_cost(self, seed):
        rng = np.random.default_rng(seed)
        degrees = rng.integers(0, 8, size=rng.integers(4, 12))
        k = int(rng.integers(2, max(3, degrees.shape[0] // 2)))
        targets = anonymize_degree_sequence(degrees, k)
        assert (targets - degrees).sum() == brute_force_min_cost(
            degrees.tolist(), k
        )

    def test_result_is_k_anonymous(self):
        degrees = np.array([9, 7, 7, 5, 4, 4, 3, 1])
        targets = anonymize_degree_sequence(degrees, 3)
        __, counts = np.unique(targets, return_counts=True)
        assert counts.min() >= 3

    def test_targets_never_decrease(self):
        rng = np.random.default_rng(1)
        degrees = rng.integers(0, 20, size=30)
        targets = anonymize_degree_sequence(degrees, 5)
        assert (targets >= degrees).all()

    def test_k_one_is_identity(self):
        degrees = np.array([3, 1, 2])
        np.testing.assert_array_equal(
            anonymize_degree_sequence(degrees, 1), degrees
        )

    def test_alignment_with_input_order(self):
        degrees = np.array([1, 9, 1, 9])
        targets = anonymize_degree_sequence(degrees, 2)
        # Groups: {9, 9} and {1, 1} -> unchanged, in input positions.
        np.testing.assert_array_equal(targets, degrees)

    def test_k_validated(self):
        with pytest.raises(ObfuscationError):
            anonymize_degree_sequence(np.array([1, 2]), 0)
        with pytest.raises(ObfuscationError):
            anonymize_degree_sequence(np.array([1, 2]), 3)


class TestRealization:
    def test_adds_edges_to_reach_targets(self):
        g = UncertainGraph(4, [(0, 1, 1.0)])
        targets = np.array([2, 1, 1, 2])
        realized, added, residual = realize_supergraph(g, targets, seed=0)
        assert residual == 0
        degrees = np.zeros(4, dtype=int)
        np.add.at(degrees, realized.edge_src, 1)
        np.add.at(degrees, realized.edge_dst, 1)
        np.testing.assert_array_equal(degrees, targets)
        assert added == 2

    def test_preserves_original_edges(self):
        g = UncertainGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        realized, __, __ = realize_supergraph(
            g, np.array([2, 2, 2, 2]), seed=1
        )
        assert realized.has_edge(0, 1)
        assert realized.has_edge(2, 3)

    def test_rejects_decreasing_targets(self):
        g = UncertainGraph(3, [(0, 1, 1.0)])
        with pytest.raises(ObfuscationError):
            realize_supergraph(g, np.array([0, 1, 0]))

    def test_odd_total_deficit_leaves_residual(self):
        g = UncertainGraph(3)
        __, __, residual = realize_supergraph(g, np.array([1, 0, 0]), seed=2)
        assert residual == 1


class TestPipeline:
    def test_output_is_k_degree_anonymous(self, small_profile_graph):
        rep = extract_representative(small_profile_graph, strategy="adr")
        result = k_degree_anonymize(rep, k=4, seed=3)
        if not result.exact:
            pytest.skip("probing exhausted; k-anonymity not guaranteed")
        assert k_degree_anonymity(result.graph) >= 4

    def test_supergraph_property(self, small_profile_graph):
        rep = extract_representative(small_profile_graph, strategy="adr")
        result = k_degree_anonymize(rep, k=3, seed=4)
        for u, v in rep.endpoint_pairs():
            assert result.graph.has_edge(u, v)

    def test_rejects_uncertain_input(self, triangle):
        with pytest.raises(ObfuscationError):
            k_degree_anonymize(triangle, k=2)

    def test_regular_graph_needs_nothing(self, certain_square):
        result = k_degree_anonymize(certain_square, k=4, seed=5)
        assert result.edges_added == 0
        assert result.exact
        assert result.graph == certain_square

    def test_star_gets_padded(self):
        star = UncertainGraph(6, [(0, i, 1.0) for i in range(1, 6)])
        result = k_degree_anonymize(star, k=2, seed=6)
        assert result.edges_added > 0
        if result.exact:
            assert k_degree_anonymity(result.graph) >= 2
