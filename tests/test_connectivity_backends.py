"""The batched connectivity kernel against its per-world oracles.

The contract under test: the one labeling kernel
(:func:`repro.reliability.batch_component_labels`) gives, world for
world, exactly the canonical labels of the per-world oracles -- one
scipy ``connected_components`` call per world
(``tests/connectivity_oracle.py``) and the union-find
:func:`~repro.reliability.union_find.canonical_component_labels` -- and
routing the whole Monte-Carlo stack through the oracle changes no
seeded estimator result.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability import (
    WorldStore,
    batch_component_labels,
    batch_pair_counts,
    connected_pair_count,
    pair_counts_from_labels,
    reliability_discrepancy,
    sample_vertex_pairs,
)
from repro.reliability.union_find import canonical_component_labels
from repro.ugraph import UncertainGraph, sample_edge_masks
from tests.connectivity_oracle import (
    oracle_component_labels,
    use_oracle_labeler,
)
from tests.discrepancy_oracle import two_estimator_discrepancy


def equality_matrices(labels: np.ndarray) -> np.ndarray:
    """Label-invariant partition encoding: per-world co-membership."""
    return labels[:, :, None] == labels[:, None, :]


def union_find_labels(graph: UncertainGraph, masks: np.ndarray) -> np.ndarray:
    """Per-world canonical labels from the union-find oracle."""
    return np.stack([
        canonical_component_labels(
            graph.n_nodes, graph.edge_src[keep], graph.edge_dst[keep]
        )
        for keep in masks
    ])


@st.composite
def uncertain_graphs(draw) -> UncertainGraph:
    """Random small uncertain graphs with arbitrary probabilities."""
    n = draw(st.integers(min_value=2, max_value=18))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
    )
    probs = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    return UncertainGraph(n, [(u, v, p) for (u, v), p in zip(chosen, probs)])


class TestCrossBackendPartitions:
    @settings(max_examples=40, deadline=None)
    @given(graph=uncertain_graphs(), seed=st.integers(0, 2**31 - 1))
    def test_all_backends_identical_partitions(self, graph, seed):
        masks = sample_edge_masks(graph, 12, seed=seed)
        labels = batch_component_labels(graph, masks)
        assert labels.shape == (12, graph.n_nodes)
        # Canonical labels: the oracles agree bit for bit, not just up
        # to per-world renaming.
        np.testing.assert_array_equal(
            labels,
            oracle_component_labels(
                graph.n_nodes, graph.edge_src, graph.edge_dst, masks
            ),
        )
        np.testing.assert_array_equal(labels, union_find_labels(graph, masks))

    @settings(max_examples=25, deadline=None)
    @given(graph=uncertain_graphs(), seed=st.integers(0, 2**31 - 1))
    def test_pair_counts_agree_across_backends(self, graph, seed):
        masks = sample_edge_masks(graph, 8, seed=seed)
        expected = [
            float(connected_pair_count(row))
            for row in union_find_labels(graph, masks)
        ]
        np.testing.assert_array_equal(batch_pair_counts(graph, masks), expected)


class TestEstimatorDeterminism:
    @pytest.mark.parametrize("labeler", ["batched", "oracle"])
    def test_backend_does_not_change_seeded_results(
        self, small_profile_graph, labeler, monkeypatch
    ):
        reference = WorldStore(small_profile_graph, 60, seed=11).base_view()
        pairs = sample_vertex_pairs(small_profile_graph.n_nodes, 50, seed=5)
        expected = (
            reference.two_terminal(0, 1),
            reference.expected_connected_pairs(),
            reference.reliability_of_pairs(pairs),
            reference.pairwise_reliability(),
        )
        if labeler == "oracle":
            use_oracle_labeler(monkeypatch)
        estimator = WorldStore(small_profile_graph, 60, seed=11).base_view()
        assert estimator.two_terminal(0, 1) == expected[0]
        assert estimator.expected_connected_pairs() == expected[1]
        np.testing.assert_array_equal(
            estimator.reliability_of_pairs(pairs), expected[2]
        )
        np.testing.assert_array_equal(
            estimator.pairwise_reliability(), expected[3]
        )

    @pytest.mark.parametrize("labeler", ["batched", "oracle"])
    def test_discrepancy_deterministic_across_backends(
        self, bridge_graph, labeler, monkeypatch
    ):
        perturbed = bridge_graph.with_probabilities(
            np.clip(bridge_graph.edge_probabilities - 0.2, 0.0, 1.0)
        )
        reference = reliability_discrepancy(
            bridge_graph, perturbed, n_samples=80, seed=3
        )
        if labeler == "oracle":
            use_oracle_labeler(monkeypatch)
        for estimate in (reliability_discrepancy, two_estimator_discrepancy):
            value = estimate(bridge_graph, perturbed, n_samples=80, seed=3)
            assert value == reference


class TestBatchedEdgeCases:
    def test_empty_world_batch(self, triangle):
        masks = np.zeros((0, triangle.n_edges), dtype=bool)
        labels = batch_component_labels(triangle, masks)
        assert labels.shape == (0, 3)

    def test_all_edges_absent_worlds(self, triangle):
        masks = np.zeros((5, triangle.n_edges), dtype=bool)
        labels = batch_component_labels(triangle, masks)
        # Every vertex isolated: partitions are all-singletons.
        for row in labels:
            assert len(set(row.tolist())) == 3

    def test_edgeless_graph(self):
        graph = UncertainGraph(4, [])
        masks = np.zeros((3, 0), dtype=bool)
        labels = batch_component_labels(graph, masks)
        assert labels.shape == (3, 4)
        assert labels.tolist() == [[0, 1, 2, 3]] * 3

    def test_integer_masks_accepted(self, triangle):
        masks = sample_edge_masks(triangle, 6, seed=0).astype(np.int8)
        a = batch_component_labels(triangle, masks)
        b = batch_component_labels(triangle, masks.astype(bool))
        np.testing.assert_array_equal(
            equality_matrices(a), equality_matrices(b)
        )


class TestValidation:
    def test_wrong_width_masks_rejected(self, triangle):
        masks = np.zeros((4, triangle.n_edges + 2), dtype=bool)
        with pytest.raises(ValueError, match="edge columns"):
            batch_component_labels(triangle, masks)

    def test_one_dimensional_masks_rejected(self, triangle):
        with pytest.raises(ValueError, match="2-D"):
            batch_component_labels(
                triangle, np.zeros(triangle.n_edges, dtype=bool)
            )

    def test_unknown_backend_rejected(self, triangle):
        """The world store has no ``backend=`` knob left to forward: any
        value, the former default ``"scipy"`` included, is a TypeError."""
        for backend in ("gpu", "scipy", "auto"):
            with pytest.raises(TypeError, match="backend"):
                WorldStore(triangle, 4, seed=0, backend=backend)

    def test_pair_counts_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            pair_counts_from_labels(np.zeros(5, dtype=np.int32))
