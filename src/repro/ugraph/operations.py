"""Structural operations on uncertain graphs.

These are utilities the anonymization pipeline and the evaluation harness
need around the core type: induced subgraphs, vertex relabeling, merging
edge sets, and distance between two graphs over the same vertex set.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..exceptions import GraphConstructionError, InvalidProbabilityError
from .graph import UncertainGraph, merge_key_index

__all__ = [
    "induced_subgraph",
    "relabel",
    "overlay",
    "apply_edge_updates",
    "probability_l1_distance",
    "edge_probability_map",
    "align_edge_universe",
]


def induced_subgraph(graph: UncertainGraph, vertices: Iterable[int]) -> UncertainGraph:
    """Subgraph induced by ``vertices`` with vertices renumbered densely.

    Vertex ``i`` of the result corresponds to the ``i``-th vertex of the
    (deduplicated, order-preserving) ``vertices`` sequence.
    """
    keep: list[int] = []
    seen: set[int] = set()
    for v in vertices:
        v = int(v)
        if v in seen:
            continue
        if not 0 <= v < graph.n_nodes:
            raise GraphConstructionError(f"vertex {v} not in graph")
        seen.add(v)
        keep.append(v)
    position = {v: i for i, v in enumerate(keep)}
    triples = [
        (position[u], position[v], p)
        for u, v, p in (e.as_tuple() for e in graph.edges())
        if u in position and v in position
    ]
    labels = graph.labels
    sub_labels = [labels[v] for v in keep] if labels else None
    return UncertainGraph(len(keep), triples, labels=sub_labels)


def relabel(graph: UncertainGraph, permutation: Sequence[int]) -> UncertainGraph:
    """Apply a vertex permutation: vertex ``v`` becomes ``permutation[v]``.

    Used to publish anonymized graphs without positional correlation to the
    original vertex ordering.
    """
    perm = np.asarray(permutation, dtype=np.int64)
    if perm.shape != (graph.n_nodes,) or sorted(perm.tolist()) != list(
        range(graph.n_nodes)
    ):
        raise GraphConstructionError("permutation must be a bijection on 0..n-1")
    triples = [
        (int(perm[u]), int(perm[v]), p)
        for u, v, p in (e.as_tuple() for e in graph.edges())
    ]
    labels = graph.labels
    new_labels = None
    if labels:
        new_labels = [""] * graph.n_nodes
        for v, lab in enumerate(labels):
            new_labels[int(perm[v])] = lab
    return UncertainGraph(graph.n_nodes, triples, labels=new_labels)


def edge_probability_map(graph: UncertainGraph) -> dict[tuple[int, int], float]:
    """Canonical ``(u, v) -> p`` dict over stored edges."""
    return {
        (u, v): p for u, v, p in (e.as_tuple() for e in graph.edges())
    }


def overlay(
    base: UncertainGraph, updates: Iterable[tuple[int, int, float]]
) -> UncertainGraph:
    """New graph where ``updates`` overwrite/add edge probabilities.

    Edges not mentioned keep their probability.  An update with ``p == 0``
    keeps the edge in the universe at probability zero (use
    :meth:`UncertainGraph.dropping_zero_edges` to strip before release).
    """
    merged = edge_probability_map(base)
    for u, v, p in updates:
        key = (u, v) if u < v else (v, u)
        merged[key] = float(p)
    triples = [(u, v, p) for (u, v), p in merged.items()]
    return UncertainGraph(base.n_nodes, triples, labels=base.labels)


def apply_edge_updates(
    base: UncertainGraph,
    us: np.ndarray,
    vs: np.ndarray,
    probabilities: np.ndarray,
) -> UncertainGraph:
    """Array form of :func:`overlay` for delta-described candidates.

    Produces the same graph as ``overlay(base, zip(us, vs,
    probabilities))`` -- identical edge universe, edge ordering (base
    edges in dense order, then new pairs in first-occurrence delta
    order) and probabilities -- but from the base graph's arrays:
    existing edges are overridden through one vectorized id lookup and
    the structure caches are shared when no new pair is introduced.
    Duplicate pairs keep the last probability, matching ``overlay``'s
    dict semantics.  This is the materialization half of the GenObf
    trial path; the incremental (k, epsilon) checker consumes the same
    ``(us, vs, p)`` delta arrays.  A graph with fresh pairs inherits the
    base's sorted pair-key index with the fresh keys merged in, so the
    next :meth:`~UncertainGraph.pair_edge_ids` does not sort every key
    again.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if us.shape != vs.shape or us.shape != probabilities.shape or us.ndim != 1:
        raise GraphConstructionError(
            "endpoint and probability arrays must be 1-D and parallel, got "
            f"shapes {us.shape} / {vs.shape} / {probabilities.shape}"
        )
    n = base.n_nodes
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    if us.size:
        if int(lo.min()) < 0 or int(hi.max()) >= n:
            raise GraphConstructionError(
                f"edge update references a vertex outside 0..{n - 1}"
            )
        if bool((lo == hi).any()):
            loop = int(lo[lo == hi][0])
            raise GraphConstructionError(
                f"self-loop on vertex {loop} is not allowed"
            )
        if (
            not np.all(np.isfinite(probabilities))
            or float(probabilities.min()) < 0.0
            or float(probabilities.max()) > 1.0
        ):
            raise InvalidProbabilityError(
                "updated probabilities must be finite values in [0, 1]"
            )

    ids = base.pair_edge_ids(lo, hi)
    hit = ids >= 0
    prob = base.edge_probabilities.copy()
    prob[ids[hit]] = probabilities[hit]
    miss = ~hit
    if not bool(miss.any()):
        return base.with_probabilities(prob)

    # Fresh pairs: dedupe with overlay's dict semantics (first occurrence
    # fixes the position, last occurrence fixes the probability).
    fresh: dict[tuple[int, int], float] = {}
    for u, v, p in zip(
        lo[miss].tolist(), hi[miss].tolist(), probabilities[miss].tolist()
    ):
        fresh[(u, v)] = p
    k = len(fresh)
    new_src = np.fromiter((u for u, __ in fresh), dtype=np.int64, count=k)
    new_dst = np.fromiter((v for __, v in fresh), dtype=np.int64, count=k)
    new_prob = np.fromiter(fresh.values(), dtype=np.float64, count=k)

    n_before = base.n_edges
    clone = object.__new__(UncertainGraph)
    clone._n = n
    clone._src = np.concatenate([base.edge_src, new_src])
    clone._dst = np.concatenate([base.edge_dst, new_dst])
    clone._prob = np.concatenate([prob, new_prob])
    index = dict(base._index)
    for offset, pair in enumerate(fresh):
        index[pair] = n_before + offset
    clone._index = index
    clone._labels = base._labels
    clone._adjacency_cache = None
    clone._pair_key_cache = merge_key_index(
        *base._pair_key_index(), new_src * np.int64(n) + new_dst, n_before
    )
    return clone


def align_edge_universe(
    a: UncertainGraph, b: UncertainGraph
) -> tuple[UncertainGraph, UncertainGraph]:
    """Rebuild ``a`` and ``b`` over the union of their edge sets.

    Both outputs index edges identically, with probability 0 for edges the
    graph lacked.  Needed when comparing an original graph to an anonymized
    one that introduced new probabilistic edges.
    """
    if a.n_nodes != b.n_nodes:
        raise GraphConstructionError(
            f"vertex sets differ: {a.n_nodes} vs {b.n_nodes}"
        )
    map_a = edge_probability_map(a)
    map_b = edge_probability_map(b)
    universe = sorted(set(map_a) | set(map_b))
    triples_a = [(u, v, map_a.get((u, v), 0.0)) for u, v in universe]
    triples_b = [(u, v, map_b.get((u, v), 0.0)) for u, v in universe]
    return (
        UncertainGraph(a.n_nodes, triples_a, labels=a.labels),
        UncertainGraph(b.n_nodes, triples_b, labels=b.labels),
    )


def probability_l1_distance(a: UncertainGraph, b: UncertainGraph) -> float:
    """Total absolute probability change between two graphs.

    This is the "amount of noise" measure: the L1 distance between the two
    edge-probability functions over the union of edge universes.
    """
    aligned_a, aligned_b = align_edge_universe(a, b)
    return float(
        np.abs(aligned_a.edge_probabilities - aligned_b.edge_probabilities).sum()
    )
