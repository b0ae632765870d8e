"""Ablation: reliability-sensitive vs uniqueness-only edge selection.

The selection axis of the 2x2 variant grid (the RS half of RSME): with
the perturbation rule fixed, does steering noise AWAY from high-VRR
vertices preserve reliability better at the same noise level?

The controlled comparison holds sigma and everything else fixed and
measures the reliability discrepancy of candidates produced under the
two selection weightings.

Measured outcome (recorded in EXPERIMENTS.md): at this miniature scale
the two weightings land within ~20% of each other, with
reliability-sensitive selection slightly WORSE at fixed sigma -- the
(1 - VRR) damping concentrates the noise budget onto fewer edges, and a
few large perturbations cost more reliability than relevance-avoidance
saves.  The full pipeline comparison (Figure 8) still shows all
uncertainty-aware variants far below Rep-An; the RS axis is simply not
the load-bearing ingredient at this scale, while the ME axis clearly is
(see bench_ablation_perturbation).
"""

from __future__ import annotations

import numpy as np

from _harness import EPSILONS, SEED, dataset, emit, format_table
from repro.core import ChameleonConfig, build_selection_context
from repro.core.genobf import _edge_noise_scales
from repro.core.noise import perturb_probabilities
from repro.core.selection import select_candidate_edges
from repro.privacy import expected_degree_knowledge
from repro.reliability import reliability_discrepancy
from repro.ugraph.operations import apply_edge_updates

_SIGMAS = (0.1, 0.2, 0.4)
_DATASET = "brightkite"
_TRIALS = 3


def _loss_under(graph, known, selection_mode: str, sigma: float,
                relevance_samples: int, n_samples: int, n_pairs: int) -> float:
    config = ChameleonConfig(
        k=10, epsilon=EPSILONS[_DATASET], n_trials=1,
        relevance_samples=relevance_samples, size_multiplier=2.0,
        selection_mode=selection_mode,
    )
    context = build_selection_context(graph, config, known, seed=SEED)
    losses = []
    for trial in range(_TRIALS):
        pairs = select_candidate_edges(
            graph, context.weights, 2.0, seed=SEED + trial
        )
        us, vs = pairs.T
        current = graph.pair_probabilities(us, vs)
        scales = _edge_noise_scales(us, vs, context.weights, sigma)
        perturbed = perturb_probabilities(
            current, scales, mode="max-entropy", white_noise=0.01,
            seed=SEED + trial,
        )
        candidate = apply_edge_updates(graph, us, vs, perturbed)
        losses.append(reliability_discrepancy(
            graph, candidate, n_samples=n_samples, n_pairs=n_pairs, seed=SEED,
        ))
    return float(np.mean(losses))


def build_rows(graph=None, sigmas=_SIGMAS, relevance_samples=300,
               n_samples=250, n_pairs=15_000):
    """One row per sigma: reliability loss under both weightings.

    ``graph`` defaults to the recorded ``brightkite`` stand-in; the
    tier-1 smoke test passes a tiny graph and small sample counts.
    """
    if graph is None:
        graph = dataset(_DATASET)
    known = expected_degree_knowledge(graph)
    rows = []
    for sigma in sigmas:
        sensitive, uniform = (
            _loss_under(graph, known, mode, sigma, relevance_samples,
                        n_samples, n_pairs)
            for mode in ("reliability-sensitive", "uniqueness-only")
        )
        rows.append([sigma, sensitive, uniform,
                     uniform / max(sensitive, 1e-9)])
    return rows


def test_ablation_selection_strategy(benchmark):
    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    emit(
        "ablation_selection",
        format_table(
            ["sigma", "rel.loss (RS selection)", "rel.loss (uniq-only)",
             "ratio"],
            rows,
        ),
    )
    # The two weightings stay within a modest band of each other at every
    # sigma -- selection is a second-order effect at this scale (see the
    # module docstring for the interpretation).
    for sigma, sensitive, uniform, ratio in rows:
        assert 0.5 <= ratio <= 2.0, sigma
