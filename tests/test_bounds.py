"""Analytic reliability bounds vs. the exact oracle."""

import itertools

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.reliability import (
    exact_two_terminal,
    reliability_bounds,
    reliability_lower_bound,
    reliability_upper_bound,
)
from repro.ugraph import UncertainGraph


def random_small_graph(seed, n=6, density=0.5):
    rng = np.random.default_rng(seed)
    triples = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                triples.append((u, v, float(rng.uniform(0.05, 0.95))))
    return UncertainGraph(n, triples)


class TestBracket:
    @pytest.mark.parametrize("seed", range(8))
    def test_bounds_bracket_exact_reliability(self, seed):
        graph = random_small_graph(seed)
        if graph.n_edges == 0 or graph.n_edges > 15:
            pytest.skip("unlucky density draw")
        for u, v in itertools.combinations(range(3), 2):
            exact = exact_two_terminal(graph, u, v)
            lo, hi = reliability_bounds(graph, u, v)
            assert lo - 1e-9 <= exact <= hi + 1e-9, (seed, u, v)

    def test_series_path_bounds(self):
        """On a single path: the path bound is exact; the cut bound is the
        weakest single edge."""
        g = UncertainGraph(3, [(0, 1, 0.6), (1, 2, 0.5)])
        lo, hi = reliability_bounds(g, 0, 2)
        assert lo == pytest.approx(0.3)
        assert hi == pytest.approx(0.5, abs=1e-3)

    def test_parallel_edges_upper_bound_tight(self):
        """Two disjoint 1-hop routes: the cut at either terminal is exact."""
        g = UncertainGraph(4, [(0, 1, 0.5), (1, 3, 1.0), (0, 2, 0.4), (2, 3, 1.0)])
        exact = exact_two_terminal(g, 0, 3)
        hi = reliability_upper_bound(g, 0, 3)
        assert hi == pytest.approx(exact, abs=1e-3)


class TestEdgeCases:
    def test_same_vertex(self, triangle):
        assert reliability_upper_bound(triangle, 1, 1) == 1.0
        assert reliability_lower_bound(triangle, 1, 1) == 1.0

    def test_disconnected_pair(self):
        g = UncertainGraph(4, [(0, 1, 0.5)])
        lo, hi = reliability_bounds(g, 0, 3)
        assert lo == 0.0
        assert hi == 0.0

    def test_edgeless_graph(self):
        g = UncertainGraph(3)
        assert reliability_upper_bound(g, 0, 1) == 0.0

    def test_certain_connection_upper_bound_one(self):
        g = UncertainGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert reliability_upper_bound(g, 0, 2) == 1.0

    def test_invalid_vertices(self, triangle):
        with pytest.raises(EstimationError):
            reliability_upper_bound(triangle, 0, 9)


class TestSandwichesMonteCarloEstimator:
    def test_bounds_sandwich_mc_estimate(self, small_profile_graph):
        from repro.reliability import WorldStore

        est = WorldStore(small_profile_graph, 2000, seed=0).base_view()
        rng = np.random.default_rng(1)
        for __ in range(5):
            u, v = rng.integers(0, small_profile_graph.n_nodes, 2)
            if u == v:
                continue
            estimate = est.two_terminal(int(u), int(v))
            lo, hi = reliability_bounds(small_profile_graph, int(u), int(v))
            assert lo - 0.05 <= estimate <= hi + 0.05
