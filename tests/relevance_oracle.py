"""Per-world reliability relevance (Algorithm 2) as a test oracle.

Production sums Algorithm 2's add-edge pair-count gains over chunks of
worlds at once
(:func:`repro.reliability.relevance._merge_gain_accumulate`), and
relabels a degenerate edge's forced-absent worlds as one batch.  The
oracle walks the worlds one at a time and labels each through the
union-find labeler.  Gains and pair counts are exact integers, so the
two must agree bit for bit whatever the summation order.
"""

from __future__ import annotations

import numpy as np

from repro._rng import as_generator
from repro.reliability.union_find import (
    canonical_component_labels,
    connected_pair_count,
)
from repro.ugraph import UncertainGraph, sample_edge_masks


def merge_gain_accumulate_loop(
    graph: UncertainGraph, masks: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(gain_sums, absent_counts)`` per edge, one world at a time."""
    n_samples = masks.shape[0]
    src, dst = graph.edge_src, graph.edge_dst
    gain_sums = np.zeros(graph.n_edges, dtype=np.float64)
    absent_counts = np.zeros(graph.n_edges, dtype=np.int64)
    for i in range(n_samples):
        row = labels[i]
        sizes = np.bincount(row)
        lu, lv = row[src], row[dst]
        gains = np.where(lu != lv, sizes[lu].astype(np.float64) * sizes[lv], 0.0)
        absent = ~masks[i]
        gain_sums[absent] += gains[absent]
        absent_counts += absent
    return gain_sums, absent_counts


def _gain(row: np.ndarray, u: int, v: int) -> float:
    """Pair-count gain of adding ``(u, v)`` to a world labeled ``row``."""
    if row[u] == row[v]:
        return 0.0
    return float((row == row[u]).sum()) * float((row == row[v]).sum())


def forced_absent_err_loop(
    graph: UncertainGraph, edges, masks: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """``ERR`` of each edge in ``edges`` with the edge forced absent in
    every sampled world, one world at a time."""
    n, src, dst = graph.n_nodes, graph.edge_src, graph.edge_dst
    out = np.zeros(len(edges), dtype=np.float64)
    for j, e in enumerate(edges):
        u, v = int(src[e]), int(dst[e])
        total = 0.0
        for mask, row in zip(masks, labels):
            if mask[e]:
                keep = mask.copy()
                keep[e] = False
                row = canonical_component_labels(n, src[keep], dst[keep])
            total += _gain(row, u, v)
        out[j] = total / masks.shape[0]
    return out


def edge_reliability_relevance_loop(
    graph: UncertainGraph, n_samples: int, seed, method: str
) -> np.ndarray:
    """:func:`repro.reliability.edge_reliability_relevance`, per world."""
    masks = sample_edge_masks(graph, n_samples, seed=as_generator(seed))
    labels = np.array([
        canonical_component_labels(
            graph.n_nodes, graph.edge_src[mask], graph.edge_dst[mask]
        )
        for mask in masks
    ]).reshape(n_samples, graph.n_nodes)
    present = masks.sum(axis=0)
    absent = n_samples - present
    if method == "grouped":
        counts = [float(connected_pair_count(row)) for row in labels]
        present_sums = np.zeros(graph.n_edges, dtype=np.float64)
        for mask, count in zip(masks, counts):
            present_sums[mask] += count
        total = float(sum(counts))
        with np.errstate(invalid="ignore", divide="ignore"):
            err = present_sums / present - (total - present_sums) / absent
        degenerate = (present == 0) | (absent == 0)
    else:
        gains, gain_counts = merge_gain_accumulate_loop(graph, masks, labels)
        with np.errstate(invalid="ignore", divide="ignore"):
            err = gains / gain_counts
        degenerate = gain_counts == 0
    edges = np.flatnonzero(degenerate)
    err[edges] = forced_absent_err_loop(graph, edges, masks, labels)
    return np.clip(np.nan_to_num(err, nan=0.0), 0.0, None)
