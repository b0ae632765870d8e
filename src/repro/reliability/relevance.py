"""Reliability relevance of edges and vertices (Section V-D, Algorithm 2).

The **edge reliability relevance** ``ERR(e)`` measures how much the
graph-wide reliability moves per unit change of ``p(e)``.  By the
factorization lemma it equals the difference in expected connected-pair
counts between the graph with ``e`` forced present and forced absent --
always non-negative, and large exactly for "probabilistic bridges".

Two shared-sample estimators are provided, both reusing a single batch of
possible worlds for *all* edges (the reuse that brings the cost from
``O(|E| * N * alpha * |E|)`` down to ``O(N * alpha * |E|)``, Lemma 3):

* ``"grouped"`` -- Algorithm 2 verbatim: split the sampled worlds by the
  edge's realized presence and difference the group means of the
  connected-pair count.
* ``"merge-gain"`` -- a Rao-Blackwellized variant: over worlds where the
  edge is absent, the exact pair-count gain of adding it is the product of
  its endpoints' component sizes; averaging that gain estimates ``ERR``
  with strictly lower variance.

Edges whose sampled presence is degenerate (all worlds on one side) fall
back to a direct forced-absent evaluation so the estimate stays defined.
The fallback reuses the shared worlds: for each degenerate edge only the
worlds where it was realized *present* are relabeled (with its column
cleared), so no edge samples worlds of its own and p ~ 0 edges need no
relabeling at all.

The **vertex reliability relevance** ``VRR(u) = sum_{e in E(u)}
p(e) * ERR(e)`` aggregates edge relevance to vertices and is the
utility-oriented signal GenObf uses to steer noise away from structurally
critical regions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._rng import as_generator
from ..exceptions import EstimationError
from ..ugraph.graph import UncertainGraph
from ..ugraph.worlds import sample_edge_masks
from .connectivity import batch_component_labels, pair_counts_from_labels

__all__ = [
    "RelevanceResult",
    "edge_reliability_relevance",
    "vertex_reliability_relevance",
    "compute_relevance",
]


@dataclass(frozen=True)
class RelevanceResult:
    """Edge- and vertex-level reliability relevance of one graph."""

    edge_relevance: np.ndarray
    vertex_relevance: np.ndarray
    n_samples: int
    method: str

    def normalized_vertex_relevance(self) -> np.ndarray:
        """Vertex relevance rescaled to ``[0, 1]`` (max-normalized).

        GenObf combines this with uniqueness; an all-zero relevance vector
        (edgeless or fully disconnected graph) normalizes to zeros.
        """
        top = self.vertex_relevance.max(initial=0.0)
        if top <= 0.0:
            return np.zeros_like(self.vertex_relevance)
        return self.vertex_relevance / top


def _merge_gain_accumulate(
    graph: UncertainGraph, masks: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum of add-edge pair-count gains over worlds where each edge is absent.

    Returns ``(gain_sums, absent_counts)`` indexed by edge.

    Vectorized over chunks of worlds: offsetting each world's labels by
    ``world * n`` gives int32 component ids unique within the chunk, one
    ``bincount`` of them yields every component's size, and 1-D gathers
    read the endpoint sizes for every (world, edge) pair at once.  A
    present edge's endpoints share a component, so its gain is already
    0 and no absence mask is needed.  Gains are products of component
    sizes -- integers bounded by ``n^2``, with totals far below 2^53 --
    so every partial sum is exactly representable and the reordered
    summation is bit-identical to the per-world loop (the oracle in
    ``tests/relevance_oracle.py``).  Chunking keeps the ``(worlds, n)``
    and ``(worlds, |E|)`` intermediates bounded.
    """
    n_samples = masks.shape[0]
    n = graph.n_nodes
    src, dst = graph.edge_src, graph.edge_dst
    gain_sums = np.zeros(graph.n_edges, dtype=np.float64)
    if n_samples == 0 or graph.n_edges == 0:
        return gain_sums, np.zeros(graph.n_edges, dtype=np.int64)
    # ``chunk * n`` stays below 2_000_000, far inside int32.
    chunk = max(1, 2_000_000 // max(n + 2 * graph.n_edges, 1))
    offsets = np.arange(chunk, dtype=np.int32)[:, None] * np.int32(n)
    for start in range(0, n_samples, chunk):
        block = labels[start : start + chunk]
        ids = block.astype(np.int32, copy=False) + offsets[: block.shape[0]]
        sizes = np.bincount(ids.ravel(), minlength=ids.size)
        comp_u = ids[:, src]
        comp_v = ids[:, dst]
        gains = np.where(
            comp_u != comp_v,
            sizes[comp_u].astype(np.float64) * sizes[comp_v],
            0.0,
        )
        gain_sums += gains.sum(axis=0)
    absent_counts = n_samples - masks.sum(axis=0, dtype=np.int64)
    return gain_sums, absent_counts


def _merge_gain_total(labels_block: np.ndarray, u: int, v: int) -> float:
    """Sum over worlds of the pair-count gain of adding edge ``(u, v)``.

    The gain in one world is ``|C(u)| * |C(v)|`` when the endpoints sit
    in different components, else 0.  Vectorized over worlds; chunked so
    the intermediate label-equality matrices stay bounded.
    """
    if labels_block.shape[0] == 0:
        return 0.0
    lu = labels_block[:, u]
    lv = labels_block[:, v]
    rows = np.flatnonzero(lu != lv)
    if rows.size == 0:
        return 0.0
    total = 0.0
    chunk = max(1, 4_000_000 // max(labels_block.shape[1], 1))
    for start in range(0, rows.size, chunk):
        sel = rows[start : start + chunk]
        sub = labels_block[sel]
        size_u = (sub == lu[sel, None]).sum(axis=1, dtype=np.int64)
        size_v = (sub == lv[sel, None]).sum(axis=1, dtype=np.int64)
        total += float((size_u.astype(np.float64) * size_v).sum())
    return total


def _forced_absent_err_batch(
    graph: UncertainGraph,
    edges: np.ndarray,
    masks: np.ndarray,
    labels: np.ndarray,
) -> np.ndarray:
    """``ERR`` for degenerate edges by forcing each absent, reusing worlds.

    Every edge reuses the shared sampled worlds (``masks`` and their
    ``labels``): worlds where the edge is already absent keep their
    labels, and only the worlds where it was realized present are
    relabeled, with its column cleared -- no per-edge resampling, which
    would cost ``O(#degenerate * N * |E|)`` on graphs with many p ~ 0/1
    edges.  A p ~ 0 edge (absent everywhere) costs no relabeling at all.
    """
    src, dst = graph.edge_src, graph.edge_dst
    totals = np.zeros(edges.size, dtype=np.float64)
    for j, e in enumerate(edges.tolist()):
        u, v = int(src[e]), int(dst[e])
        # Where the edge is absent, the sampled world already is the
        # forced-absent world.
        absent = np.flatnonzero(~masks[:, e])
        if absent.size:
            totals[j] += _merge_gain_total(labels[absent], u, v)
        present = np.flatnonzero(masks[:, e])
        if present.size:
            forced = masks[present]
            forced[:, e] = False
            totals[j] += _merge_gain_total(
                batch_component_labels(graph, forced), u, v
            )
    return totals / masks.shape[0]


def edge_reliability_relevance(
    graph: UncertainGraph,
    n_samples: int = 1000,
    seed=None,
    method: str = "merge-gain",
) -> np.ndarray:
    """Estimate ``ERR(e)`` for every edge with shared sampled worlds.

    Parameters
    ----------
    method:
        ``"grouped"`` (Algorithm 2 as published) or ``"merge-gain"``
        (lower-variance default; see module docstring).

    Returns the ``(|E|,)`` non-negative relevance vector aligned with the
    graph's dense edge indexing.
    """
    if graph.n_edges == 0:
        return np.zeros(0, dtype=np.float64)
    if method not in ("grouped", "merge-gain"):
        raise EstimationError(f"unknown relevance method {method!r}")
    rng = as_generator(seed)
    masks = sample_edge_masks(graph, n_samples, seed=rng)
    labels = batch_component_labels(graph, masks)

    present_counts = masks.sum(axis=0)
    absent_counts = n_samples - present_counts

    if method == "grouped":
        pair_counts = pair_counts_from_labels(labels)
        present_sums = pair_counts @ masks
        total = pair_counts.sum()
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_present = present_sums / present_counts
            mean_absent = (total - present_sums) / absent_counts
        err = mean_present - mean_absent
        degenerate = (present_counts == 0) | (absent_counts == 0)
    else:
        gain_sums, gain_counts = _merge_gain_accumulate(graph, masks, labels)
        with np.errstate(invalid="ignore", divide="ignore"):
            err = gain_sums / gain_counts
        degenerate = gain_counts == 0

    degenerate_ids = np.flatnonzero(degenerate)
    if degenerate_ids.size:
        err[degenerate_ids] = _forced_absent_err_batch(
            graph, degenerate_ids, masks, labels
        )

    # ERR is provably non-negative; clip residual sampling noise.
    return np.clip(np.nan_to_num(err, nan=0.0), 0.0, None)


def vertex_reliability_relevance(
    graph: UncertainGraph, edge_relevance: np.ndarray
) -> np.ndarray:
    """Aggregate edge relevance to vertices: ``VRR(u) = sum p(e) ERR(e)``."""
    edge_relevance = np.asarray(edge_relevance, dtype=np.float64)
    if edge_relevance.shape != (graph.n_edges,):
        raise EstimationError(
            f"edge_relevance has shape {edge_relevance.shape}, "
            f"expected ({graph.n_edges},)"
        )
    weighted = graph.edge_probabilities * edge_relevance
    vrr = np.zeros(graph.n_nodes, dtype=np.float64)
    np.add.at(vrr, graph.edge_src, weighted)
    np.add.at(vrr, graph.edge_dst, weighted)
    return vrr


def compute_relevance(
    graph: UncertainGraph,
    n_samples: int = 1000,
    seed=None,
    method: str = "merge-gain",
) -> RelevanceResult:
    """One-call edge + vertex relevance computation."""
    err = edge_reliability_relevance(
        graph, n_samples=n_samples, seed=seed, method=method
    )
    vrr = vertex_reliability_relevance(graph, err)
    return RelevanceResult(
        edge_relevance=err,
        vertex_relevance=vrr,
        n_samples=n_samples,
        method=method,
    )
