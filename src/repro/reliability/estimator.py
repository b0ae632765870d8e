"""Monte-Carlo estimation of reliability quantities (Definitions 1 and 2).

The central object is :class:`ReliabilityEstimator`: it samples ``N``
possible worlds of one uncertain graph once, labels their connected
components once, and then answers any number of reliability queries
(two-terminal, per-pair batches, expected connected pairs) from the cached
labels.  This sharing is what makes the paper's evaluation loop and
Algorithm 2 tractable.

Since PR 4 the estimator is backed by a
:class:`repro.reliability.worldstore.WorldStore`: the uniforms behind its
worlds persist, so candidate graphs described as probability deltas can
be evaluated incrementally via :meth:`ReliabilityEstimator.derive` --
only the worlds where a changed edge actually flipped are relabeled.
Sampling is bit-compatible with the previous direct path (the store
consumes the generator exactly like ``sample_edge_masks``).

:func:`reliability_discrepancy` estimates the utility-loss metric
``Delta`` of Definition 2 between an original and an anonymized graph.
For large graphs the exact sum over all ``n(n-1)/2`` pairs is replaced by
a uniform sample of vertex pairs, reported as the *average* discrepancy
per pair (the quantity Figure 4 of the paper plots), optionally rescaled
to the full-sum estimate.  Its default ``engine="store"`` evaluates the
anonymized graph as a delta against the original's world store; the
``"fresh"`` engine (two independently built estimators over common
random numbers) is kept as the oracle path.
"""

from __future__ import annotations

import numpy as np

from .._rng import as_generator
from ..exceptions import EstimationError
from ..ugraph.graph import UncertainGraph
from .worldstore import (
    DEFAULT_PAIR_SAMPLE,
    FULL_MATRIX_LIMIT,
    PAIRWISE_BLOCK_ELEMENTS,
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
# Backward-compatible aliases (the limits now live in worldstore).
_FULL_MATRIX_LIMIT = FULL_MATRIX_LIMIT
_PAIRWISE_BLOCK_ELEMENTS = PAIRWISE_BLOCK_ELEMENTS

#: Engines accepted by :func:`reliability_discrepancy`.
DISCREPANCY_ENGINES = ("store", "fresh")


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
    first query and are then reused by every method.  The backing
    :class:`WorldStore` is exposed via :attr:`store`, and :meth:`derive`
    evaluates candidate graphs incrementally as probability deltas.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        n_samples: int = DEFAULT_SAMPLES,
        seed=None,
        antithetic: bool = False,
        memory_budget: int | None = None,
    ):
        if n_samples <= 0:
            raise EstimationError(f"n_samples must be positive, got {n_samples}")
        if antithetic and n_samples % 2 != 0:
            raise EstimationError(
                f"antithetic sampling needs an even n_samples, got {n_samples}"
            )
        self._graph = graph
        self._n_samples = int(n_samples)
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
        return self._n_samples

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
        labels = self.labels
        return float(np.mean(labels[:, u] == labels[:, v]))

    def reliability_of_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Vectorized ``R_{u,v}`` for an ``(M, 2)`` array of vertex pairs."""
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise EstimationError(f"pairs must be (M, 2), got {pairs.shape}")
        labels = self.labels
        equal = labels[:, pairs[:, 0]] == labels[:, pairs[:, 1]]
        return equal.mean(axis=0)

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
    engine: str = "store",
    antithetic: bool = False,
    memory_budget: int | None = None,
) -> float:
    """Estimate the reliability discrepancy ``Delta`` (Definition 2).

    Parameters
    ----------
    original, anonymized:
        Graphs over the same vertex set (edge sets may differ).
    n_samples:
        Worlds sampled from *each* graph.
    n_pairs:
        If ``None``, all unordered pairs are evaluated when the graph is
        small enough, otherwise 20,000 pairs are sampled.  An explicit int
        forces pair sampling with that many pairs.
    per_pair:
        If True (default) return the *average* discrepancy per evaluated
        pair -- the scale-free quantity the paper's figures report.  If
        False, return the (estimated) total sum over all pairs.
    engine:
        ``"store"`` (default) samples one :class:`WorldStore` from the
        original and derives the anonymized graph as a delta -- the
        common random numbers become structural, so ``Delta(G, G)`` is
        exactly 0 and only flipped worlds are relabeled.  ``"fresh"``
        builds two independent estimators over the same seed (the
        pre-store oracle path).  When the anonymized graph reuses the
        original's edge universe (the GenObf case), both engines are
        bit-identical.
    antithetic:
        Sample worlds in antithetic pairs (both engines).
    memory_budget:
        Byte cap on the world store's per-chunk temporaries (see
        :class:`WorldStore`); results are unchanged.

    The same sampled pair set is applied to both graphs so the comparison
    is paired, which dramatically reduces estimator variance.
    """
    if original.n_nodes != anonymized.n_nodes:
        raise EstimationError("graphs must share the vertex set")
    if engine not in DISCREPANCY_ENGINES:
        raise EstimationError(
            f"unknown discrepancy engine {engine!r}, "
            f"expected one of {DISCREPANCY_ENGINES}"
        )
    n = original.n_nodes
    rng = as_generator(seed)
    # Common random numbers: both graphs sample worlds from the SAME seed,
    # so shared edges realize identically.  This pairs the comparison
    # (large variance reduction) and makes Delta(G, G) exactly zero.
    shared_seed = int(rng.integers(0, 2**63 - 1))

    if engine == "store":
        store = WorldStore(
            original, n_samples, seed=shared_seed, antithetic=antithetic,
            memory_budget=memory_budget,
        )
        view = store.derive(graph_delta(original, anonymized))
        return store.discrepancy(
            view, n_pairs=n_pairs, seed=rng, per_pair=per_pair
        )

    est_a = ReliabilityEstimator(
        original, n_samples, seed=shared_seed, antithetic=antithetic,
        memory_budget=memory_budget,
    )
    est_b = ReliabilityEstimator(
        anonymized, n_samples, seed=shared_seed, antithetic=antithetic,
        memory_budget=memory_budget,
    )

    total_pairs = n * (n - 1) / 2
    use_all = n_pairs is None and n <= FULL_MATRIX_LIMIT
    if use_all:
        diff = np.abs(est_a.pairwise_reliability() - est_b.pairwise_reliability())
        total = float(np.triu(diff, k=1).sum())
        evaluated = total_pairs
    else:
        m = int(n_pairs) if n_pairs is not None else DEFAULT_PAIR_SAMPLE
        pairs = sample_vertex_pairs(n, m, seed=rng)
        diff = np.abs(
            est_a.reliability_of_pairs(pairs) - est_b.reliability_of_pairs(pairs)
        )
        total = float(diff.sum())
        evaluated = m

    if per_pair:
        return total / evaluated
    if use_all:
        return total
    return total / evaluated * total_pairs
