"""Batch connectivity over sampled possible worlds.

Given the ``(N, |E|)`` world-mask matrix produced by
:mod:`repro.ugraph.worlds`, these routines compute, per world, the
connected-component labeling and the number of connected vertex pairs.
They are the inner loop of every reliability estimator, and one kernel
serves them all: every world of a batch is stacked into ONE
block-diagonal sparse adjacency (node ids offset by
``world_index * n_nodes``) and labeled by a single compiled
``connected_components`` call.  A batch is split so that no stacked
adjacency exceeds ``_BATCH_NODE_LIMIT`` virtual nodes.

Labels are canonical: each row numbers its components with consecutive
ids from 0 in order of first appearance over the vertex scan, so a row
depends only on that world's realized edges.  The per-world oracles the
kernel is tested against -- one ``connected_components`` call per world
(``tests/connectivity_oracle.py``) and
:func:`repro.reliability.union_find.canonical_component_labels` -- give
the same labels bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _scipy_cc

from ..ugraph.graph import UncertainGraph

__all__ = [
    "component_labels_for_edges",
    "batch_component_labels",
    "batch_pair_counts",
    "pair_counts_from_labels",
]

#: Soft cap on block-diagonal size: the batched kernel splits the world
#: batch so one stacked adjacency never exceeds this many virtual nodes.
_BATCH_NODE_LIMIT = 4_000_000

#: Soft cap on the temporary ``(rows, n_nodes)`` bincount matrix used by
#: the vectorized pair-count accumulation.
_PAIR_COUNT_BLOCK_ELEMENTS = 8_000_000


def _validate_masks(graph: UncertainGraph, masks: np.ndarray) -> np.ndarray:
    """Check the world matrix against the graph's edge universe."""
    masks = np.asarray(masks)
    if masks.ndim != 2:
        raise ValueError(
            f"world-mask matrix must be 2-D (N, |E|), got shape {masks.shape}"
        )
    if masks.shape[1] != graph.n_edges:
        raise ValueError(
            f"world-mask matrix has {masks.shape[1]} edge columns but the "
            f"graph has {graph.n_edges} edges; masks must come from the "
            "same graph (edge indexing is positional)"
        )
    if masks.dtype != np.bool_:
        masks = masks.astype(bool)
    return masks


def _batched_labels(
    n_nodes: int, src: np.ndarray, dst: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """Label a world batch with ONE block-diagonal ``connected_components``.

    World ``i``'s vertex ``v`` becomes virtual node ``i * n_nodes + v``;
    stacking every realized edge with that offset yields a single sparse
    graph whose components are exactly the per-world components.

    The CSR is built directly: with the edge universe sorted by ``src``
    (grown columns arrive unsorted), the realized edges enumerated
    world-major give globally sorted stacked row ids, so ``indptr`` is a
    ``bincount`` prefix sum -- no COO sort, no duplicate merge.
    ``connected_components`` numbers components in first-appearance
    order over the vertex scan, so each world's ids form one ascending
    range starting at its vertex 0's id, and subtracting that id yields
    the canonical labeling.
    """
    n_samples = masks.shape[0]
    if n_samples == 0:
        return np.empty((0, n_nodes), dtype=np.int32)
    if n_nodes == 0:
        return np.empty((n_samples, 0), dtype=np.int32)
    total = n_samples * n_nodes
    # csgraph works on int32 indices internally; building the CSR with
    # them up front avoids a 2x index-copy inside connected_components.
    index_dtype = np.int32 if total < np.iinfo(np.int32).max else np.int64
    order = np.argsort(src, kind="stable")
    # ``take`` keeps the gathered matrix C-contiguous, so the flat scan
    # below reads it in place; flat indices plus per-world counts are
    # several times cheaper than the two-array ``np.nonzero`` of 2-D.
    masks = masks.take(order, axis=1)
    realized = np.flatnonzero(masks)
    per_world = np.count_nonzero(masks, axis=1)
    edge_pos = realized - np.repeat(
        np.arange(n_samples, dtype=np.int64) * masks.shape[1], per_world
    )
    offsets = np.repeat(
        np.arange(n_samples, dtype=index_dtype) * n_nodes, per_world
    )
    rows = src.astype(index_dtype)[order][edge_pos] + offsets
    cols = dst.astype(index_dtype)[order][edge_pos] + offsets
    indptr = np.zeros(total + 1, dtype=index_dtype)
    np.cumsum(np.bincount(rows, minlength=total), out=indptr[1:])
    # float64 data is csgraph's working dtype, so validation copies nothing.
    adjacency = csr_matrix(
        (np.ones(rows.shape[0], dtype=np.float64), cols, indptr),
        shape=(total, total),
    )
    __, flat = _scipy_cc(adjacency, directed=False)
    flat = flat.reshape(n_samples, n_nodes)
    return (flat - flat[:, :1]).astype(np.int32, copy=False)


def _batched_labels_chunked(
    n_nodes: int, src: np.ndarray, dst: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """Batched labeling, split so the stacked graph stays memory-bounded."""
    n_samples = masks.shape[0]
    if n_nodes == 0 or n_samples == 0:
        return np.empty((n_samples, n_nodes), dtype=np.int32)
    worlds_per_chunk = max(1, _BATCH_NODE_LIMIT // n_nodes)
    if n_samples <= worlds_per_chunk:
        return _batched_labels(n_nodes, src, dst, masks)
    parts = [
        _batched_labels(n_nodes, src, dst, masks[start:start + worlds_per_chunk])
        for start in range(0, n_samples, worlds_per_chunk)
    ]
    return np.concatenate(parts, axis=0)


def component_labels_for_edges(
    n_nodes: int,
    src: np.ndarray,
    dst: np.ndarray,
    masks: np.ndarray,
) -> np.ndarray:
    """Component labels for a world batch over an explicit edge universe.

    Same contract as :func:`batch_component_labels` but parameterized by
    raw endpoint arrays instead of an :class:`UncertainGraph`, so callers
    whose edge universe outgrew the base graph (the world store's derived
    candidates) label through the same kernel.  ``masks`` must be
    ``(N, len(src))``.
    """
    masks = np.asarray(masks)
    if masks.ndim != 2 or masks.shape[1] != src.shape[0]:
        raise ValueError(
            f"world-mask matrix must be (N, {src.shape[0]}), got {masks.shape}"
        )
    if masks.dtype != np.bool_:
        masks = masks.astype(bool)
    return _batched_labels_chunked(n_nodes, src, dst, masks)


def batch_component_labels(
    graph: UncertainGraph, masks: np.ndarray
) -> np.ndarray:
    """Component labels for every sampled world.

    Returns an ``(N, n_nodes)`` int32 matrix; row ``i`` labels world ``i``
    with canonical consecutive component ids starting at 0.
    """
    masks = _validate_masks(graph, masks)
    return component_labels_for_edges(
        graph.n_nodes, graph.edge_src, graph.edge_dst, masks
    )


def pair_counts_from_labels(labels: np.ndarray) -> np.ndarray:
    """Connected-pair count per world from a batch labeling.

    ``labels`` is ``(N, n_nodes)`` with consecutive component ids per
    row.  Vectorized: rows are offset into disjoint label ranges so one
    ``np.bincount`` yields every world's component sizes at once
    (block-processed to bound the temporary size matrix).
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError(f"labels must be 2-D (N, n_nodes), got {labels.shape}")
    n_samples, n_nodes = labels.shape
    counts = np.empty(n_samples, dtype=np.float64)
    if n_samples == 0:
        return counts
    if n_nodes == 0:
        counts.fill(0.0)
        return counts
    block = max(1, _PAIR_COUNT_BLOCK_ELEMENTS // n_nodes)
    for start in range(0, n_samples, block):
        chunk = labels[start:start + block].astype(np.int64, copy=False)
        rows = chunk.shape[0]
        offset = np.arange(rows, dtype=np.int64)[:, None] * n_nodes
        sizes = np.bincount(
            (chunk + offset).ravel(), minlength=rows * n_nodes
        ).reshape(rows, n_nodes)
        counts[start:start + rows] = (sizes * (sizes - 1) // 2).sum(axis=1)
    return counts


def batch_pair_counts(graph: UncertainGraph, masks: np.ndarray) -> np.ndarray:
    """Connected-pair count of every sampled world (``cc(G)`` in Alg. 2)."""
    return pair_counts_from_labels(batch_component_labels(graph, masks))
