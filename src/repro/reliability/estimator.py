"""Monte-Carlo estimation of reliability quantities (Definitions 1 and 2).

The central object is :class:`ReliabilityEstimator`: it samples ``N``
possible worlds of one uncertain graph once, labels their connected
components once, and then answers any number of reliability queries
(two-terminal, per-pair batches, expected connected pairs) from the cached
labels.  This sharing is what makes the paper's evaluation loop and
Algorithm 2 tractable.

The estimator is a view of one
:class:`repro.reliability.worldstore.WorldStore`, which answers every
query: the uniforms behind its worlds persist, so candidate graphs
described as probability deltas can be evaluated incrementally via
:meth:`ReliabilityEstimator.derive` -- only the worlds where a changed
edge actually flipped are relabeled.  The store consumes the generator
exactly like ``sample_edge_masks``, so its worlds are those masks.

:func:`reliability_discrepancy` estimates the utility-loss metric
``Delta`` of Definition 2 between an original and an anonymized graph.
For large graphs the exact sum over all ``n(n-1)/2`` pairs is replaced by
a uniform sample of vertex pairs, reported as the *average* discrepancy
per pair (the quantity Figure 4 of the paper plots), optionally rescaled
to the full-sum estimate.  It evaluates the anonymized graph as a delta
against one world store of the original, so both graphs are read from
the same sampled worlds (common random numbers).
"""

from __future__ import annotations

import numpy as np

from .._rng import as_generator
from ..exceptions import EstimationError
from ..ugraph.graph import UncertainGraph
from .worldstore import (
    DerivedWorlds,
    WorldStore,
    graph_delta,
    sample_vertex_pairs,
)

__all__ = [
    "ReliabilityEstimator",
    "reliability_discrepancy",
    "sample_vertex_pairs",
]

DEFAULT_SAMPLES = 1000


class ReliabilityEstimator:
    """Shared-sample reliability estimator for one uncertain graph.

    Parameters
    ----------
    graph:
        The uncertain graph to analyze.
    n_samples:
        Number of possible worlds; the paper uses 1000 as the accuracy
        sweet spot (citing Potamias et al.).
    seed:
        Reproducibility seed / generator.
    antithetic:
        Sample worlds in antithetic (negatively correlated) pairs --
        unbiased, lower variance for monotone statistics; requires an
        even ``n_samples``.
    memory_budget:
        Byte cap on the world store's per-chunk temporaries (see
        :class:`WorldStore`); results are unchanged.

    Sampling and labeling (one batched connected-components pass over
    every world, :mod:`repro.reliability.connectivity`) happen lazily on
    first query and are then reused by every method.  Every query is
    answered by the backing :class:`WorldStore` (exposed via
    :attr:`store`), chunk by chunk, and :meth:`derive` evaluates
    candidate graphs incrementally as probability deltas.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        n_samples: int = DEFAULT_SAMPLES,
        seed=None,
        antithetic: bool = False,
        memory_budget: int | None = None,
    ):
        self._graph = graph
        self._store = WorldStore(
            graph, n_samples, seed=seed, antithetic=antithetic,
            memory_budget=memory_budget,
        )

    # -- cached world machinery ---------------------------------------- #

    @property
    def graph(self) -> UncertainGraph:
        return self._graph

    @property
    def n_samples(self) -> int:
        return self._store.n_samples

    @property
    def store(self) -> WorldStore:
        """The persistent CRN world store backing this estimator."""
        return self._store

    @property
    def masks(self) -> np.ndarray:
        """Boolean ``(N, |E|)`` world matrix (sampled once, cached)."""
        return self._store.base_masks[:, : self._graph.n_edges]

    @property
    def labels(self) -> np.ndarray:
        """Int ``(N, n)`` component labels per world (cached)."""
        return self._store.base_labels

    @property
    def pair_counts(self) -> np.ndarray:
        """Connected-pair count per sampled world (cached)."""
        return self._store.base_pair_counts

    def derive(self, delta) -> DerivedWorlds:
        """Incremental view of a candidate described as a delta.

        ``delta`` lists ``(u, v, p_old, p_new)``; see
        :meth:`WorldStore.derive`.  Only worlds where a changed edge's
        realization flipped are relabeled.
        """
        return self._store.derive(delta)

    # -- queries --------------------------------------------------------- #

    def two_terminal(self, u: int, v: int) -> float:
        """Estimate of ``R_{u,v}`` (Definition 1)."""
        n = self._graph.n_nodes
        if not (0 <= u < n and 0 <= v < n):
            raise EstimationError(f"vertex pair ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            return 1.0
        return float(self._store.base_reliability_of_pairs([[u, v]])[0])

    def reliability_of_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Vectorized ``R_{u,v}`` for an ``(M, 2)`` array of vertex pairs."""
        return self._store.base_reliability_of_pairs(pairs)

    def expected_connected_pairs(self) -> float:
        """Estimate of the expected number of connected vertex pairs."""
        return float(self.pair_counts.mean())

    def average_all_pairs_reliability(self) -> float:
        """Expected connected pairs normalized by ``n(n-1)/2``."""
        n = self._graph.n_nodes
        total_pairs = n * (n - 1) / 2
        if total_pairs == 0:
            return 0.0
        return self.expected_connected_pairs() / total_pairs

    def pairwise_reliability(self) -> np.ndarray:
        """Full ``n x n`` reliability matrix estimate (small graphs only).

        Memory/time grow as ``N * n^2``; graphs above 1500 vertices must
        use :meth:`reliability_of_pairs` on a pair sample instead.  The
        matrix is cached inside the store; callers get a copy.
        """
        return self._store.base_pairwise_reliability().copy()


def reliability_discrepancy(
    original: UncertainGraph,
    anonymized: UncertainGraph,
    n_samples: int = DEFAULT_SAMPLES,
    n_pairs: int | None = None,
    seed=None,
    per_pair: bool = True,
    antithetic: bool = False,
    memory_budget: int | None = None,
) -> float:
    """Estimate the reliability discrepancy ``Delta`` (Definition 2).

    Parameters
    ----------
    original, anonymized:
        Graphs over the same vertex set (edge sets may differ).
    n_samples:
        Sampled possible worlds.
    n_pairs:
        If ``None``, all unordered pairs are evaluated when the graph is
        small enough, otherwise 20,000 pairs are sampled.  An explicit int
        forces pair sampling with that many pairs.
    per_pair:
        If True (default) return the *average* discrepancy per evaluated
        pair -- the scale-free quantity the paper's figures report.  If
        False, return the (estimated) total sum over all pairs.
    antithetic:
        Sample worlds in antithetic pairs (requires an even
        ``n_samples``).
    memory_budget:
        Byte cap on the world store's per-chunk temporaries (see
        :class:`WorldStore`); results are unchanged.

    One :class:`WorldStore` samples the original's worlds and the
    anonymized graph is derived from it as a delta: each world reuses
    the original's uniforms, so shared edges realize identically,
    ``Delta(G, G)`` is exactly 0, and only the worlds where a changed
    edge flipped are relabeled.  The same pair set is applied to both
    graphs, so the comparison is paired, which greatly reduces the
    estimator's variance.
    """
    if original.n_nodes != anonymized.n_nodes:
        raise EstimationError("graphs must share the vertex set")
    rng = as_generator(seed)
    store = WorldStore(
        original, n_samples, seed=int(rng.integers(0, 2**63 - 1)),
        antithetic=antithetic, memory_budget=memory_budget,
    )
    view = store.derive(graph_delta(original, anonymized))
    return store.discrepancy(view, n_pairs=n_pairs, seed=rng, per_pair=per_pair)
