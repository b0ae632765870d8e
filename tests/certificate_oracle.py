"""Definition 3 by exhaustive world enumeration: the certificate's oracle.

The production (k, epsilon) checkers -- :func:`repro.privacy.check_obfuscation`
and :class:`repro.privacy.DegreeUncertaintyCache` -- build the degree-
uncertainty matrix with a Poisson-binomial DP and take column entropies
from cached ``m ln m`` terms.  This module reaches the same verdict from
the definitions alone (Xiao et al., Def. 3; Boldi et al., arXiv
1208.4145), without importing :mod:`repro.privacy`:

1. enumerate all ``2**m`` possible worlds of the ``m`` stored edges and
   tabulate ``Pr[deg(u) = w]`` for every vertex ``u`` and degree ``w``;
2. for the adversary's value ``w = P(v)``, normalize column ``w`` over the
   vertices into ``Y_w`` and take its entropy in bits (``+inf`` when no
   vertex can have degree ``w``: the candidate set is empty);
3. ``v`` is k-obfuscated when that entropy is at least ``log2 k``; the
   graph is (k, epsilon)-obf when the fraction of vertices that are not
   is at most epsilon.

Graphs are plain ``(n_nodes, edges)`` pairs with ``edges`` an iterable
of ``(u, v, p)``.  Enumeration is exponential in ``m``: keep ``m`` to a
dozen or so.
"""

from __future__ import annotations

import math

import numpy as np


def degree_table(n_nodes: int, edges) -> np.ndarray:
    """The ``(n, n)`` matrix ``Pr[deg(u) = w]`` over all possible worlds.

    Column ``w`` runs to ``n - 1``, the largest degree a simple graph on
    ``n`` vertices allows; columns no vertex reaches are all zero.
    """
    edges = list(edges)
    m = len(edges)
    table = np.zeros((n_nodes, max(n_nodes, 1)), dtype=np.float64)
    if n_nodes == 0:
        return table
    worlds = (np.arange(2**m)[:, None] >> np.arange(m)) & 1 == 1
    weight = np.ones(2**m, dtype=np.float64)
    degrees = np.zeros((2**m, n_nodes), dtype=np.int64)
    for j, (u, v, p) in enumerate(edges):
        weight *= np.where(worlds[:, j], p, 1.0 - p)
        degrees[:, u] += worlds[:, j]
        degrees[:, v] += worlds[:, j]
    for u in range(n_nodes):
        np.add.at(table[u], degrees[:, u], weight)
    return table


def fold_tail(table: np.ndarray, max_degree: int) -> np.ndarray:
    """Columns ``0..max_degree`` with ``Pr[deg(u) >= max_degree]`` last."""
    width = max_degree + 1
    folded = np.zeros((table.shape[0], width), dtype=np.float64)
    head = min(width - 1, table.shape[1])
    folded[:, :head] = table[:, :head]
    folded[:, width - 1] = table[:, width - 1:].sum(axis=1)
    return folded


def column_entropy(column: np.ndarray) -> float:
    """Entropy in bits of ``column`` normalized into ``Y_w``; ``+inf`` for
    a column no vertex reaches."""
    mass = float(column.sum())
    if mass <= 0.0:
        return math.inf
    y = column[column > 0] / mass
    return float(-(y * np.log2(y)).sum())


def entropy_profile(n_nodes: int, edges, max_degree=None) -> np.ndarray:
    """``H(Y_w)`` for every degree ``w`` (tail folded at ``max_degree``)."""
    table = degree_table(n_nodes, edges)
    if max_degree is not None:
        table = fold_tail(table, max_degree)
    return np.array([column_entropy(c) for c in table.T], dtype=np.float64)


def certificate(n_nodes: int, edges, knowledge, k: int, epsilon: float):
    """Definition 3 for a published graph and the adversary's degrees.

    Returns ``(entropies, obfuscated, epsilon_hat, satisfied)``: per-vertex
    ``H(Y_{P(v)})`` in bits, the ``H >= log2 k`` flags, the fraction of
    vertices not obfuscated and whether it is at most ``epsilon``.
    """
    profile = entropy_profile(n_nodes, edges)
    entropies = np.array(
        [profile[w] if w < profile.size else math.inf for w in knowledge],
        dtype=np.float64,
    )
    obfuscated = entropies >= math.log2(k)
    epsilon_hat = (n_nodes - int(obfuscated.sum())) / n_nodes if n_nodes \
        else 0.0
    return entropies, obfuscated, epsilon_hat, epsilon_hat <= epsilon
