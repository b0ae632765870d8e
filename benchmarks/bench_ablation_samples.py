"""Ablation: Monte-Carlo sample-count sensitivity.

The paper fixes N = 1000 samples "since it has been shown that 1000
usually suffices to achieve accuracy converge" (citing Potamias et al.).
This bench traces the convergence of the two estimators everything rests
on -- expected connected pairs and the reliability discrepancy -- as N
grows, reporting the relative deviation from a high-N reference.

Shape expectation: monotone-ish convergence; by N = 1000 the deviation
is within ~1-2%.
"""

from __future__ import annotations

import numpy as np

from _harness import SEED, dataset, emit, format_table
from repro.reliability import WorldStore, reliability_discrepancy

_N_GRID = (50, 100, 200, 500, 1000)
_REFERENCE_N = 4000


def _build_rows():
    graph = dataset("ppi")
    # A fixed perturbed partner for the discrepancy trace.
    perturbed = graph.with_probabilities(
        np.clip(graph.edge_probabilities * 0.8 + 0.05, 0, 1)
    )

    reference_cc = WorldStore(
        graph, _REFERENCE_N, seed=SEED
    ).base_view().expected_connected_pairs()
    reference_delta = reliability_discrepancy(
        graph, perturbed, n_samples=_REFERENCE_N, n_pairs=20_000, seed=SEED
    )

    rows = []
    for n in _N_GRID:
        cc = WorldStore(
            graph, n, seed=SEED + n
        ).base_view().expected_connected_pairs()
        delta = reliability_discrepancy(
            graph, perturbed, n_samples=n, n_pairs=20_000, seed=SEED + n
        )
        rows.append([
            n,
            abs(cc - reference_cc) / reference_cc,
            abs(delta - reference_delta) / reference_delta,
        ])
    return rows


def test_ablation_sample_count_convergence(benchmark):
    rows = benchmark.pedantic(_build_rows, rounds=1, iterations=1)
    emit(
        "ablation_samples",
        format_table(
            ["N", "rel.dev E[conn pairs]", "rel.dev discrepancy"], rows
        ),
    )
    by_n = {r[0]: r for r in rows}
    # 1000 samples: both estimators are within a few percent of reference.
    assert by_n[1000][1] < 0.03
    assert by_n[1000][2] < 0.10
    # Convergence trend: N=1000 beats N=50 on both traces.
    assert by_n[1000][1] <= by_n[50][1] + 1e-9
