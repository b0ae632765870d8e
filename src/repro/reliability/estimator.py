"""Monte-Carlo estimation of the reliability discrepancy (Definition 2).

:func:`reliability_discrepancy` estimates the utility-loss metric
``Delta`` of Definition 2 between an original and an anonymized graph.
For large graphs the exact sum over all ``n(n-1)/2`` pairs is replaced by
a uniform sample of vertex pairs, reported as the *average* discrepancy
per pair (the quantity Figure 4 of the paper plots), optionally rescaled
to the full-sum estimate.  It evaluates the anonymized graph as a delta
against one world store of the original, so both graphs are read from
the same sampled worlds (common random numbers).

Every other reliability query (``R_{u,v}`` of Definition 1, pair
batches, expected connected pairs, the full matrix) is a method of a
:class:`repro.reliability.worldstore.DerivedWorlds` view:
``WorldStore(graph, N, seed=...).base_view()`` answers them for the
graph itself, ``store.derive(delta)`` for a candidate.
"""

from __future__ import annotations

from .._rng import as_generator
from ..exceptions import EstimationError
from ..ugraph.graph import UncertainGraph
from .worldstore import WorldStore, graph_delta

__all__ = ["reliability_discrepancy"]

DEFAULT_SAMPLES = 1000


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
