"""Weighted uncertain graphs (the road-network extension)."""

import numpy as np
import pytest

from repro.exceptions import EstimationError, GraphConstructionError
from repro.ugraph import WeightedUncertainGraph


@pytest.fixture
def road_network():
    """Diamond road network: fast route 0-1-3, slow route 0-2-3.

    The fast route is jam-prone (low probabilities); the slow one is
    dependable.
    """
    return WeightedUncertainGraph(
        4,
        [
            (0, 1, 0.5, 10.0),
            (1, 3, 0.5, 10.0),
            (0, 2, 0.95, 30.0),
            (2, 3, 0.95, 30.0),
        ],
    )


class TestConstruction:
    def test_layers_aligned(self, road_network):
        assert road_network.n_nodes == 4
        assert road_network.n_edges == 4
        assert road_network.weight(0, 1) == 10.0
        assert road_network.probability(0, 1) == 0.5

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphConstructionError):
            WeightedUncertainGraph(2, [(0, 1, 0.5, -1.0)])

    def test_non_finite_weight_rejected(self):
        with pytest.raises(GraphConstructionError):
            WeightedUncertainGraph(2, [(0, 1, 0.5, float("nan"))])

    def test_probability_validation_inherited(self):
        with pytest.raises(Exception):
            WeightedUncertainGraph(2, [(0, 1, 1.5, 1.0)])

    def test_edge_iteration(self, road_network):
        quads = list(road_network.edges())
        assert (0, 1, 0.5, 10.0) in quads

    def test_expected_total_weight(self, road_network):
        expected = 0.5 * 10 + 0.5 * 10 + 0.95 * 30 + 0.95 * 30
        assert road_network.expected_total_weight() == pytest.approx(expected)


class TestWeightedDistance:
    def test_certain_network_exact(self):
        g = WeightedUncertainGraph(
            3, [(0, 1, 1.0, 2.0), (1, 2, 1.0, 3.0), (0, 2, 1.0, 10.0)]
        )
        distance, p_connect = g.expected_weighted_distance(0, 2, n_samples=20,
                                                           seed=0)
        assert distance == pytest.approx(5.0)
        assert p_connect == 1.0

    def test_jam_probability_shifts_expectation(self, road_network):
        distance, p_connect = road_network.expected_weighted_distance(
            0, 3, n_samples=20_000, seed=1
        )
        # Fast route works w.p. 0.25 (20 units), else slow route (60) when
        # it works; conditional expectation sits strictly between.
        assert 20.0 < distance < 60.0
        assert p_connect == pytest.approx(
            1 - (1 - 0.25) * (1 - 0.95**2), abs=0.02
        )

    def test_self_distance(self, road_network):
        assert road_network.expected_weighted_distance(1, 1) == (0.0, 1.0)

    def test_never_connected(self):
        g = WeightedUncertainGraph(3, [(0, 1, 0.0, 1.0)])
        distance, p_connect = g.expected_weighted_distance(0, 2,
                                                           n_samples=50, seed=2)
        assert np.isnan(distance)
        assert p_connect == 0.0

    def test_invalid_vertices(self, road_network):
        with pytest.raises(EstimationError):
            road_network.expected_weighted_distance(0, 9)


class TestAnonymizationRoundTrip:
    def test_weights_reattach_after_anonymization(self):
        import repro

        rng = np.random.default_rng(3)
        base = repro.load_dataset("ppi", scale=0.2, seed=3)
        weights = rng.uniform(1.0, 5.0, size=base.n_edges)
        weighted = WeightedUncertainGraph(
            base.n_nodes,
            [
                (u, v, p, w)
                for (u, v, p), w in zip(
                    (e.as_tuple() for e in base.edges()), weights
                )
            ],
        )
        result = repro.anonymize(
            weighted.probability_layer, k=4, epsilon=0.1, seed=4,
            n_trials=2, relevance_samples=80, sigma_tolerance=0.05,
        )
        assert result.success
        released = weighted.with_probability_layer(
            result.graph.dropping_zero_edges(), default_weight=2.5
        )
        # Surviving original edges keep their weights.
        kept = 0
        for u, v, p, w in released.edges():
            if weighted.probability_layer.has_edge(u, v):
                assert w == pytest.approx(weighted.weight(u, v))
                kept += 1
            else:
                assert w == 2.5
        assert kept > 0
