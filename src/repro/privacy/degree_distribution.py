"""Degree distributions of uncertain-graph vertices.

Under independent-edge semantics the degree of a vertex is a
**Poisson-binomial** random variable -- the sum of independent Bernoulli
trials, one per incident edge.  The exact probability mass function is
computed by the standard ``O(d^2)`` dynamic program (a sequence of
convolutions with ``[1-p, p]``), which at the degrees this library
operates on is both exact and fast.

The per-vertex pmfs assemble into the **degree-uncertainty matrix**
``M[u, w] = Pr[deg(u) = w]`` -- the object whose column entropies define
(k, epsilon)-obfuscation and whose row entropies drive the max-entropy
perturbation heuristic (Lemmas 4-6).
"""

from __future__ import annotations

import numpy as np

from ..ugraph.graph import UncertainGraph
from .entropy import shannon_entropy

__all__ = [
    "poisson_binomial_pmf",
    "poisson_binomial_moments",
    "incident_probability_lists",
    "degree_uncertainty_matrix",
    "degree_entropy_per_vertex",
    "expected_degree_knowledge",
]


def poisson_binomial_pmf(probabilities: np.ndarray) -> np.ndarray:
    """Exact pmf of a sum of independent Bernoulli(p_i) variables.

    Returns an array of length ``len(probabilities) + 1``; entry ``d`` is
    ``Pr[sum == d]``.  An empty input yields the point mass at 0.

    Each DP step convolves with the two-tap kernel ``[1 - p_i, p_i]``.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"probabilities must be 1-D, got shape {p.shape}")
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    pmf = np.ones(1, dtype=np.float64)
    for pi in p:
        pmf = np.convolve(pmf, (1.0 - pi, pi))
    return pmf


def poisson_binomial_moments(probabilities: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the Poisson-binomial (Lemma 6's CLT inputs).

    ``mu = sum p_i`` and ``var = sum p_i (1 - p_i)``.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    return float(p.sum()), float((p * (1.0 - p)).sum())


def incident_probability_lists(graph: UncertainGraph) -> list[np.ndarray]:
    """Per-vertex arrays of incident-edge probabilities (zeros dropped).

    Zero-probability candidate edges contribute nothing to the degree
    distribution and are filtered for speed.
    """
    buckets: list[list[float]] = [[] for __ in range(graph.n_nodes)]
    src = graph.edge_src.tolist()
    dst = graph.edge_dst.tolist()
    prob = graph.edge_probabilities.tolist()
    for u, v, p in zip(src, dst, prob):
        if p > 0.0:
            buckets[u].append(p)
            buckets[v].append(p)
    return [np.asarray(b, dtype=np.float64) for b in buckets]


def degree_uncertainty_matrix(
    graph: UncertainGraph, max_degree: int | None = None
) -> np.ndarray:
    """The ``(n, D+1)`` matrix ``M[u, w] = Pr[deg(u) = w]``.

    ``D`` defaults to the largest possible degree (the maximum number of
    positive-probability incident edges over all vertices).  Rows whose
    support exceeds an explicit ``max_degree`` fold the tail mass
    ``Pr[deg(u) >= max_degree]`` into the last bucket, so every row stays
    a distribution (sums to 1) no matter how tight the cap -- callers cap
    the matrix *width*, never the probability mass.  The tail is summed
    with ``np.sum``'s pairwise order.
    """
    incident = incident_probability_lists(graph)
    widest = max((len(b) for b in incident), default=0)
    width = widest + 1 if max_degree is None else int(max_degree) + 1
    matrix = np.zeros((graph.n_nodes, width), dtype=np.float64)
    for u, probabilities in enumerate(incident):
        pmf = poisson_binomial_pmf(probabilities)
        if pmf.shape[0] > width:
            matrix[u, : width - 1] = pmf[: width - 1]
            matrix[u, width - 1] = pmf[width - 1:].sum()
        else:
            matrix[u, : pmf.shape[0]] = pmf
    return matrix


def degree_entropy_per_vertex(graph: UncertainGraph) -> np.ndarray:
    """Shannon entropy (bits) of each vertex's degree distribution.

    This is the ``H(d_v)`` of Lemma 5 -- the per-row disorder of the
    degree-uncertainty matrix that the max-entropy perturbation increases.
    """
    incident = incident_probability_lists(graph)
    return np.asarray(
        [shannon_entropy(poisson_binomial_pmf(b)) for b in incident],
        dtype=np.float64,
    )


def expected_degree_knowledge(graph: UncertainGraph) -> np.ndarray:
    """Adversary degree knowledge ``P(v)`` extracted from a graph.

    The paper's attack model assumes the adversary knows each target's
    degree.  For an *uncertain* original graph we take the most natural
    reading -- the expected degree, rounded to the nearest integer; for a
    deterministic graph this is exactly the true degree.
    """
    return np.rint(graph.expected_degrees()).astype(np.int64)
