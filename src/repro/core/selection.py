"""Uncertainty-aware edge selection (Algorithm 3, lines 1-16).

GenObf perturbs a *candidate* edge set ``E_C`` drawn around vertices
sampled by weight ``Q``:

* ``Q`` is large where the vertex is *unique* (needs anonymization) and,
  under reliability-sensitive selection, small where the vertex is
  structurally *relevant* (perturbation would hurt utility) -- the
  "unifying uniqueness and relevance" step.
* An exclusion set ``H`` of the ``ceil(eps/2 * |V|)`` most hopeless
  vertices (largest ``U * VRR``: both extremely unique and extremely
  load-bearing) is left alone entirely, exploiting the epsilon tolerance.
* Candidate edges are then resampled: starting from ``E_C = E``, repeatedly
  pick a vertex pair by ``Q``; an existing edge is dropped from the
  candidate set with probability ``p(e)`` (certain edges resist
  deselection), a non-edge joins it as a fresh perturbation site, until
  ``|E_C| = c |E|``.
"""

from __future__ import annotations

import numpy as np

from .._rng import as_generator
from ..exceptions import ObfuscationError
from ..ugraph.graph import UncertainGraph

__all__ = [
    "exclusion_set",
    "selection_weights",
    "select_candidate_edges",
]

_BATCH = 2048


def exclusion_set(
    uniqueness: np.ndarray, vertex_relevance: np.ndarray, epsilon: float
) -> np.ndarray:
    """The set ``H``: vertices exempted from obfuscation effort.

    Picks the ``ceil(eps/2 * n)`` vertices with the largest combined
    ``uniqueness * relevance`` score (Algorithm 3, line 4).  Returns a
    sorted index array (possibly empty).
    """
    uniqueness = np.asarray(uniqueness, dtype=np.float64)
    vertex_relevance = np.asarray(vertex_relevance, dtype=np.float64)
    n = uniqueness.shape[0]
    budget = int(np.ceil(epsilon / 2.0 * n))
    if budget <= 0:
        return np.empty(0, dtype=np.int64)
    combined = uniqueness * vertex_relevance
    order = np.argsort(combined, kind="stable")[::-1]
    return np.sort(order[:budget])


def selection_weights(
    uniqueness: np.ndarray,
    normalized_relevance: np.ndarray | None = None,
    excluded: np.ndarray | None = None,
) -> np.ndarray:
    """Vertex sampling distribution ``Q`` (Algorithm 3, lines 5-6).

    ``Q_v`` is proportional to uniqueness, damped by ``(1 - VRR_hat)``
    when a normalized relevance vector is given, and zeroed on the
    exclusion set.  The result sums to 1.
    """
    q = np.asarray(uniqueness, dtype=np.float64).copy()
    if np.any(q < 0):
        raise ObfuscationError("uniqueness scores must be non-negative")
    if normalized_relevance is not None:
        damp = 1.0 - np.asarray(normalized_relevance, dtype=np.float64)
        q *= np.clip(damp, 0.0, 1.0)
    if excluded is not None and len(excluded) > 0:
        q[np.asarray(excluded, dtype=np.int64)] = 0.0
    total = q.sum()
    if total <= 0.0:
        # Degenerate weighting (e.g. relevance saturates every vertex):
        # fall back to uniform over the non-excluded vertices.
        q = np.ones_like(q)
        if excluded is not None and len(excluded) > 0:
            q[np.asarray(excluded, dtype=np.int64)] = 0.0
        total = q.sum()
        if total <= 0.0:
            raise ObfuscationError(
                "every vertex is excluded; epsilon is too large for this graph"
            )
    return q / total


def select_candidate_edges(
    graph: UncertainGraph,
    weights: np.ndarray,
    size_multiplier: float,
    seed=None,
    max_rounds: int | None = None,
) -> np.ndarray:
    """Sample the candidate edge set ``E_C`` (Algorithm 3, lines 9-16).

    Returns an ``(m, 2)`` int64 array of canonical ``(u, v)`` pairs
    (``u < v``) in ascending ``(u, v)`` order: the surviving original
    edges plus the newly proposed ones, ``round(c * |E|)`` in total.

    The walk draws vertex pairs by ``Q`` in batches of ``_BATCH``: a
    still-selected original edge is dropped when its draw falls below
    ``p(e)``, a non-edge joins, and the walk stops at the first draw that
    brings ``|E_C|`` to the target.  Each pair's state is monotone -- a
    dropped edge never returns and an added non-edge stays -- so a whole
    batch resolves at once: only the first effective draw of each pair
    changes ``|E_C|`` (by -1 or +1), and a cumulative sum over those
    events in draw order finds the stopping draw.

    ``max_rounds`` caps the walk (default ``200 * target``) and is
    checked between batches; if the cap is hit -- possible only for
    pathological weight vectors -- the current candidate set is
    returned as-is.
    """
    rng = as_generator(seed)
    n = graph.n_nodes
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise ObfuscationError(
            f"weights has shape {weights.shape}, expected ({n},)"
        )
    if size_multiplier < 1.0:
        # The Algorithm-3 sampling walk adds non-edges far more often than
        # it removes edges, so a target below |E| is never reached.
        raise ObfuscationError(
            f"size_multiplier must be >= 1 (got {size_multiplier}); the "
            "candidate-selection walk only converges to targets >= |E|"
        )
    target = int(round(size_multiplier * graph.n_edges))
    if target < 1:
        raise ObfuscationError(
            f"candidate budget c*|E| = {target} is not positive"
        )
    max_pairs = n * (n - 1) // 2
    if target > max_pairs:
        raise ObfuscationError(
            f"candidate budget {target} exceeds the {max_pairs} possible edges"
        )
    if max_rounds is None:
        max_rounds = 200 * max(target, 1)

    probabilities = graph.edge_probabilities
    dropped = np.zeros(graph.n_edges, dtype=bool)
    added = np.empty(0, dtype=np.int64)
    size = graph.n_edges
    rounds = 0
    # With c = 1 the original edge set already meets the target; without
    # this entry check the walk drifts away from the target (adds dominate
    # removals on sparse graphs) and only stops at the round cap.
    while size != target and rounds < max_rounds:
        us = rng.choice(n, size=_BATCH, p=weights)
        vs = rng.choice(n, size=_BATCH, p=weights)
        removal_draws = rng.random(_BATCH)
        rounds += _BATCH
        ids = graph.pair_edge_ids(us, vs)
        # Original edge: deselect with probability p(e) -- near-certain
        # edges resist being dropped from consideration.
        drop_at = np.flatnonzero(ids >= 0)
        drop_at = drop_at[
            removal_draws[drop_at] < probabilities[ids[drop_at]]
        ]
        drop_at = drop_at[~dropped[ids[drop_at]]]
        drop_at = drop_at[np.unique(ids[drop_at], return_index=True)[1]]
        add_at = np.flatnonzero((ids < 0) & (us != vs))
        keys = (
            np.minimum(us[add_at], vs[add_at]) * n
            + np.maximum(us[add_at], vs[add_at])
        )
        fresh = ~np.isin(keys, added)
        keys, add_at = keys[fresh], add_at[fresh]
        first = np.unique(keys, return_index=True)[1]
        keys, add_at = keys[first], add_at[first]

        step = np.zeros(_BATCH, dtype=np.int64)
        step[drop_at] = -1
        step[add_at] = 1
        sizes = size + np.cumsum(step)
        hit = np.flatnonzero(sizes == target)
        stop = hit[0] if hit.size else _BATCH - 1
        dropped[ids[drop_at[drop_at <= stop]]] = True
        added = np.concatenate((added, keys[add_at <= stop]))
        size = int(sizes[stop])

    kept = graph.edge_src[~dropped] * np.int64(n) + graph.edge_dst[~dropped]
    chosen = np.sort(np.concatenate((kept, added)))
    return np.stack((chosen // n, chosen % n), axis=1)
