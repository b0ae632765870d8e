"""Per-world merge-gain accumulation as a test oracle.

Production sums Algorithm 2's add-edge pair-count gains over chunks of
worlds at once
(:func:`repro.reliability.relevance._merge_gain_accumulate`).  The
oracle walks the worlds one at a time; gains are products of component
sizes -- exact integers -- so the two must agree bit for bit whatever
the summation order.
"""

from __future__ import annotations

import numpy as np

from repro.ugraph import UncertainGraph


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
