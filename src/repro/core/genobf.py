"""The GenObf search step (Algorithm 3).

``GenObf`` looks for a (k, epsilon)-obfuscation of the input uncertain
graph at a *fixed* noise level ``sigma``.  It runs ``t`` randomized
trials; each trial

1. samples a candidate edge set ``E_C`` around unique / low-relevance
   vertices (:mod:`repro.core.selection`),
2. splits the noise budget across the candidates proportionally to their
   endpoints' combined score ``Q^e = (Q^u + Q^v) / 2``, so that the mean
   per-edge scale equals ``sigma``,
3. perturbs the candidate probabilities (:mod:`repro.core.noise`), and
4. checks the (k, epsilon)-obfuscation criterion against the adversary
   knowledge extracted from the *original* graph -- by default through
   the incremental :class:`repro.privacy.DegreeUncertaintyCache`, which
   recomputes degree pmfs only for the perturbed edges' endpoints.

The best (lowest achieved epsilon) satisfying candidate over the trials
is returned; the sentinel ``epsilon_achieved = 1`` reports total failure,
which the sigma search in :mod:`repro.core.chameleon` interprets as "more
noise needed".  The trial loop itself lives in
:mod:`repro.core.parallel`: each trial runs on its own
``SeedSequence``-keyed stream, so the serial path here and the
multi-process backend produce bit-identical results.

The expensive per-graph invariants -- uniqueness scores, reliability
relevance, exclusion set, sampling weights -- do not depend on ``sigma``,
so they are computed once per anonymization run and passed in via
:class:`SelectionContext`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._rng import as_generator
from ..privacy.incremental import DegreeUncertaintyCache
from ..privacy.uniqueness import degree_uniqueness
from ..reliability.relevance import compute_relevance
from ..ugraph.graph import UncertainGraph
from .config import ChameleonConfig
from .parallel import SerialTrialEngine, _edge_noise_scales  # noqa: F401
from .result import GenObfOutcome
from .selection import exclusion_set, selection_weights

__all__ = ["SelectionContext", "build_selection_context", "gen_obf"]


@dataclass(frozen=True)
class SelectionContext:
    """Sigma-independent invariants shared across all GenObf calls.

    Attributes
    ----------
    uniqueness:
        Per-vertex uniqueness scores ``U^v`` (Definition 4).
    vertex_relevance:
        Per-vertex reliability relevance ``VRR^v`` (zeros for variants
        that ignore utility during selection).
    excluded:
        The exclusion set ``H`` (sorted vertex indices).
    weights:
        The normalized sampling distribution ``Q`` over vertices.
    knowledge:
        Adversary degree knowledge ``P(v)`` from the original graph.
    """

    uniqueness: np.ndarray
    vertex_relevance: np.ndarray
    excluded: np.ndarray
    weights: np.ndarray
    knowledge: np.ndarray


def build_selection_context(
    graph: UncertainGraph,
    config: ChameleonConfig,
    knowledge: np.ndarray,
    seed=None,
) -> SelectionContext:
    """Compute uniqueness, relevance, exclusion and weights for a run."""
    rng = as_generator(seed)
    uniqueness = degree_uniqueness(graph, theta=config.uniqueness_bandwidth)

    if config.reliability_oriented:
        relevance = compute_relevance(
            graph,
            n_samples=config.relevance_samples,
            seed=rng,
            method=config.relevance_method,
        )
        vrr = relevance.vertex_relevance
    else:
        vrr = np.zeros(graph.n_nodes, dtype=np.float64)

    # Exclusion always keys on U * VRR; without relevance information it
    # degrades to pure uniqueness ranking.
    ranking = vrr if config.reliability_oriented else np.ones_like(uniqueness)
    excluded = exclusion_set(uniqueness, ranking, config.epsilon)

    if config.reliability_oriented:
        # Algorithm 3 line 5: normalize VRR over V \ H only, so an
        # extreme excluded vertex does not compress everyone else's
        # damping factor.
        remaining = np.ones(graph.n_nodes, dtype=bool)
        if excluded.size:
            remaining[excluded] = False
        top = vrr[remaining].max(initial=0.0) if remaining.any() else 0.0
        vrr_normalized = (
            np.clip(vrr / top, 0.0, 1.0) if top > 0.0
            else np.zeros_like(vrr)
        )
    else:
        vrr_normalized = None

    weights = selection_weights(
        uniqueness,
        normalized_relevance=vrr_normalized,
        excluded=excluded,
    )
    return SelectionContext(
        uniqueness=uniqueness,
        vertex_relevance=vrr,
        excluded=excluded,
        weights=weights,
        knowledge=np.asarray(knowledge, dtype=np.int64),
    )


def gen_obf(
    graph: UncertainGraph,
    config: ChameleonConfig,
    sigma: float,
    context: SelectionContext,
    seed=None,
    cache: DegreeUncertaintyCache | None = None,
    probe_index: int = 0,
) -> GenObfOutcome:
    """One GenObf call: ``t`` trials at noise level ``sigma``.

    Returns the best satisfying candidate or the failure sentinel
    (``epsilon_achieved == 1``).

    ``seed`` (consumed once, to draw the run entropy) roots the per-trial
    :class:`~numpy.random.SeedSequence` streams keyed by
    ``(probe_index, trial_index)`` -- see
    :func:`repro.core.parallel.trial_generator` -- so trials are
    independent of execution order and this function is the serial
    reference for the parallel backends.  Each trial describes its
    candidate as delta arrays that feed a :class:`DegreeUncertaintyCache`
    (only perturbed endpoints recompute their degree pmfs), and only the
    winning trial is materialized into a graph.  Pass ``cache`` (built
    once per anonymization run by
    :meth:`repro.core.chameleon.Chameleon.anonymize`) to reuse the base
    pmfs across every sigma probe; otherwise one is built per call.
    """
    rng = as_generator(seed)
    entropy = int(rng.integers(0, 2**63 - 1))
    engine = SerialTrialEngine(
        graph, config, context, cache=cache, entropy=entropy
    )
    return engine.run_probe(probe_index, sigma)
