"""Unit tests for batch connectivity over sampled worlds."""

import numpy as np
import pytest

from repro.reliability import (
    batch_component_labels,
    batch_pair_counts,
    component_labels_for_edges,
    pair_counts_from_labels,
)
from repro.reliability.union_find import canonical_component_labels
from repro.ugraph import sample_edge_masks
from tests.connectivity_oracle import (
    oracle_component_labels,
    world_component_labels,
)


def one_world_labels(n_nodes, src, dst) -> np.ndarray:
    """The batched kernel on a one-row batch that realizes every edge."""
    realized = np.ones((1, src.shape[0]), dtype=bool)
    return component_labels_for_edges(n_nodes, src, dst, realized)[0]


def test_world_labels_empty_edge_set():
    labels = one_world_labels(4, np.array([], dtype=np.int64),
                              np.array([], dtype=np.int64))
    assert labels.tolist() == [0, 1, 2, 3]


def test_world_labels_path():
    src = np.array([0, 1])
    dst = np.array([1, 2])
    labels = one_world_labels(4, src, dst)
    assert labels.tolist() == [0, 0, 0, 1]


def test_backends_agree():
    """The kernel labels one world exactly as both per-world oracles do."""
    rng = np.random.default_rng(5)
    n = 30
    src, dst = [], []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.08:
                src.append(u)
                dst.append(v)
    src = np.array(src)
    dst = np.array(dst)
    labels = one_world_labels(n, src, dst)
    np.testing.assert_array_equal(labels, world_component_labels(n, src, dst))
    np.testing.assert_array_equal(
        labels, canonical_component_labels(n, src, dst)
    )


def test_unknown_backend_rejected(triangle):
    """One labeler and no ``backend=`` keyword: any value, a former
    engine name included, is a TypeError."""
    masks = sample_edge_masks(triangle, 2, seed=0)
    for backend in ("gpu", "scipy", "process"):
        with pytest.raises(TypeError, match="backend"):
            batch_component_labels(triangle, masks, backend=backend)


def test_batch_labels_shape(triangle):
    masks = sample_edge_masks(triangle, 20, seed=0)
    labels = batch_component_labels(triangle, masks)
    assert labels.shape == (20, 3)


def test_pair_counts_from_labels():
    labels = np.array([[0, 0, 1, 1], [0, 0, 0, 0], [0, 1, 2, 3]])
    counts = pair_counts_from_labels(labels)
    np.testing.assert_array_equal(counts, [2.0, 6.0, 0.0])


def test_batch_pair_counts_certain_graph(certain_square):
    masks = sample_edge_masks(certain_square, 10, seed=1)
    counts = batch_pair_counts(certain_square, masks)
    # The square is deterministic and connected: always C(4,2) = 6 pairs.
    np.testing.assert_array_equal(counts, np.full(10, 6.0))


def test_batch_labels_shape_mismatch_rejected(triangle):
    masks = np.zeros((5, triangle.n_edges + 1), dtype=bool)
    with pytest.raises(ValueError):
        batch_component_labels(triangle, masks)


def test_batched_backend_matches_loop(triangle):
    masks = sample_edge_masks(triangle, 25, seed=9)
    loop = oracle_component_labels(
        triangle.n_nodes, triangle.edge_src, triangle.edge_dst, masks
    )
    np.testing.assert_array_equal(batch_component_labels(triangle, masks), loop)


def test_pair_counts_vectorized_matches_per_world_bincount():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, size=(17, 9)).astype(np.int32)
    # Renumber rows to the documented consecutive-ids contract.
    labels = np.stack([np.unique(row, return_inverse=True)[1] for row in labels])
    expected = np.array([
        float((np.bincount(row) * (np.bincount(row) - 1) // 2).sum())
        for row in labels
    ])
    np.testing.assert_array_equal(pair_counts_from_labels(labels), expected)


def test_pair_counts_empty_batch():
    assert pair_counts_from_labels(np.zeros((0, 5), dtype=np.int32)).shape == (0,)
