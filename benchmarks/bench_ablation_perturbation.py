"""Ablation: max-entropy (guided) vs naive (un-guided) perturbation.

Section V-F claims the anonymity-oriented rule ``p + (1 - 2p) r``
achieves more anonymity per unit of injected noise than random-direction
injection.  This bench fixes everything else (selection context, noise
scales, dataset) and sweeps sigma, reporting for each rule:

* the mean per-vertex degree entropy gain (the quantity Lemma 5 says to
  maximize), and
* the achieved non-obfuscation fraction eps-hat at k = 10.

Shape expectation: at every sigma, max-entropy >= naive on entropy and
<= naive on eps-hat.
"""

from __future__ import annotations

import numpy as np

from _harness import EPSILONS, SEED, dataset, emit, format_table
from repro.core import ChameleonConfig, build_selection_context
from repro.core.genobf import _edge_noise_scales
from repro.core.noise import perturb_probabilities
from repro.core.selection import select_candidate_edges
from repro.privacy import (
    check_obfuscation,
    degree_entropy_per_vertex,
    expected_degree_knowledge,
)
from repro.ugraph.operations import apply_edge_updates

_SIGMAS = (0.05, 0.1, 0.2, 0.4)
_K = 10
_DATASET = "ppi"


def _evaluate(graph, known, mode: str, sigma: float,
              relevance_samples: int) -> tuple[float, float]:
    epsilon = EPSILONS[_DATASET]
    config = ChameleonConfig(
        k=_K, epsilon=epsilon, n_trials=1,
        relevance_samples=relevance_samples, size_multiplier=2.0,
        perturbation_mode=mode,
    )
    context = build_selection_context(graph, config, known, seed=SEED)
    pairs = select_candidate_edges(graph, context.weights, 2.0, seed=SEED)
    us, vs = pairs.T
    current = graph.pair_probabilities(us, vs)
    scales = _edge_noise_scales(us, vs, context.weights, sigma)
    perturbed = perturb_probabilities(current, scales, mode=mode,
                                      white_noise=0.01, seed=SEED)
    candidate = apply_edge_updates(graph, us, vs, perturbed)
    entropy = float(degree_entropy_per_vertex(candidate).mean())
    report = check_obfuscation(candidate, _K, epsilon, knowledge=known)
    return entropy, report.epsilon_achieved


def build_rows(graph=None, sigmas=_SIGMAS, relevance_samples=200):
    """One row per sigma: entropy gains and eps-hat under both rules.

    ``graph`` defaults to the recorded ``ppi`` stand-in; the tier-1
    smoke test passes a tiny graph.
    """
    if graph is None:
        graph = dataset(_DATASET)
    known = expected_degree_knowledge(graph)
    base_entropy = float(degree_entropy_per_vertex(graph).mean())
    rows = []
    for sigma in sigmas:
        guided_entropy, guided_eps = _evaluate(
            graph, known, "max-entropy", sigma, relevance_samples
        )
        naive_entropy, naive_eps = _evaluate(
            graph, known, "naive", sigma, relevance_samples
        )
        rows.append([
            sigma,
            guided_entropy - base_entropy,
            naive_entropy - base_entropy,
            guided_eps,
            naive_eps,
        ])
    return rows


def test_ablation_max_entropy_vs_naive(benchmark):
    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    emit(
        "ablation_perturbation",
        format_table(
            ["sigma", "dH (guided)", "dH (naive)",
             "eps_hat (guided)", "eps_hat (naive)"],
            rows,
        ),
    )
    # Guided perturbation gains at least as much entropy at every sigma.
    for sigma, dh_guided, dh_naive, eps_guided, eps_naive in rows:
        assert dh_guided >= dh_naive - 1e-6, sigma
    # And achieves no worse anonymity overall.
    assert np.mean([r[3] for r in rows]) <= np.mean([r[4] for r in rows]) + 1e-9
