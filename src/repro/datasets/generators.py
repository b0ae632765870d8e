"""Synthetic graph-topology generators.

The paper's datasets (DBLP, Brightkite, PPI) all exhibit heavy-tailed
degree distributions -- the property that drives anonymization difficulty
(Figure 3(b): many "unique" high-degree vertices).  The primary generator
is the **Chung-Lu expected-degree model** seeded with power-law weights,
which reproduces exactly that shape at laptop scale; Erdos-Renyi and
Barabasi-Albert topologies are included for controlled experiments.
"""

from __future__ import annotations

import numpy as np

from .._rng import as_generator
from ..exceptions import GraphConstructionError

__all__ = [
    "power_law_weights",
    "chung_lu_edges",
    "erdos_renyi_edges",
    "barabasi_albert_edges",
]


def power_law_weights(
    n_nodes: int,
    exponent: float = 2.5,
    min_weight: float = 2.0,
    max_weight: float | None = None,
    seed=None,
) -> np.ndarray:
    """Heavy-tailed expected-degree weights via inverse-CDF sampling.

    Draws from a Pareto-type density ``P(w) ~ w^-exponent`` on
    ``[min_weight, max_weight]``; the default cap ``sqrt(n) * min_weight``
    keeps the Chung-Lu edge probabilities below 1.
    """
    if exponent <= 1.0:
        raise GraphConstructionError(f"exponent must be > 1, got {exponent}")
    rng = as_generator(seed)
    if max_weight is None:
        max_weight = min_weight * np.sqrt(n_nodes)
    u = rng.random(n_nodes)
    a = 1.0 - exponent
    low, high = min_weight**a, max_weight**a
    return (low + u * (high - low)) ** (1.0 / a)


def chung_lu_edges(
    weights: np.ndarray, seed=None
) -> list[tuple[int, int]]:
    """Sample an edge set from the Chung-Lu model.

    Pair ``(u, v)`` is an edge independently with probability
    ``min(1, w_u w_v / sum w)``.  Vectorized over row blocks; suitable for
    up to a few thousand vertices.
    """
    rng = as_generator(seed)
    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    total = w.sum()
    if total <= 0:
        return []
    edges: list[tuple[int, int]] = []
    block = 256
    for start in range(0, n, block):
        stop = min(start + block, n)
        rows = np.arange(start, stop)
        # Upper-triangle probabilities for this row block.
        probs = np.minimum(1.0, np.outer(w[rows], w) / total)
        draws = rng.random(probs.shape)
        hit_rows, hit_cols = np.nonzero(draws < probs)
        for i, j in zip(hit_rows.tolist(), hit_cols.tolist()):
            u = start + i
            if u < j:
                edges.append((u, j))
    return edges


def erdos_renyi_edges(
    n_nodes: int, probability: float, seed=None
) -> list[tuple[int, int]]:
    """G(n, p) edge set."""
    if not 0.0 <= probability <= 1.0:
        raise GraphConstructionError(f"probability must be in [0,1], got {probability}")
    rng = as_generator(seed)
    edges: list[tuple[int, int]] = []
    for u in range(n_nodes):
        count = n_nodes - u - 1
        if count <= 0:
            continue
        draws = rng.random(count)
        hits = np.flatnonzero(draws < probability)
        edges.extend((u, u + 1 + int(j)) for j in hits)
    return edges


def barabasi_albert_edges(
    n_nodes: int, attachments: int, seed=None
) -> list[tuple[int, int]]:
    """Barabasi-Albert preferential-attachment edge set (via networkx)."""
    import networkx as nx

    rng = as_generator(seed)
    graph = nx.barabasi_albert_graph(
        n_nodes, attachments, seed=int(rng.integers(0, 2**31 - 1))
    )
    return [(min(u, v), max(u, v)) for u, v in graph.edges()]

