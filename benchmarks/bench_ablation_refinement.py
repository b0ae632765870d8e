"""Ablation: value of the post-anonymization refinement pass.

The refinement post-processor (repro.core.refine) reverts perturbations
the accepted GenObf solution does not actually need.  This bench
quantifies, per dataset at the top privacy level of the sweep:

* noise (L1 probability change) before vs after refinement,
* reliability discrepancy before vs after,
* that the privacy guarantee still holds after.
"""

from __future__ import annotations

from _harness import (
    DATASETS,
    EPSILONS,
    K_VALUES,
    SEED,
    anonymized,
    dataset,
    emit,
    format_table,
    knowledge,
    reliability_loss,
)
from repro.core import refine_anonymization
from repro.core.result import AnonymizationResult
from repro.privacy import check_obfuscation
from repro.ugraph import probability_l1_distance


def _rebuild_result(name: str, k: int, cell: dict) -> AnonymizationResult:
    return AnonymizationResult(
        graph=cell["graph"],
        method="rsme",
        k=k,
        epsilon=EPSILONS[name],
        sigma=cell["sigma"],
        epsilon_achieved=0.0,
        report=None,
        n_genobf_calls=0,
    )


def _build_rows():
    k = max(K_VALUES)
    rows = []
    for name in DATASETS:
        cell = anonymized(name, "rsme", k)
        if not cell["success"]:
            rows.append([name, k, float("nan")] * 2)
            continue
        graph = dataset(name)
        result = _rebuild_result(name, k, cell)
        refined, stats = refine_anonymization(
            graph, result, knowledge=knowledge(name), seed=SEED,
        )
        still_private = check_obfuscation(
            refined.graph, k, EPSILONS[name], knowledge=knowledge(name)
        ).satisfied
        rows.append([
            name,
            k,
            probability_l1_distance(graph, result.graph),
            probability_l1_distance(graph, refined.graph),
            reliability_loss(name, result.graph),
            reliability_loss(name, refined.graph),
            "yes" if still_private else "NO",
        ])
    return rows


def test_ablation_refinement_value(benchmark):
    rows = benchmark.pedantic(_build_rows, rounds=1, iterations=1)
    emit(
        "ablation_refinement",
        format_table(
            ["graph", "k", "noise before", "noise after",
             "rel.loss before", "rel.loss after", "private"],
            rows,
            precision=3,
        ),
    )
    for row in rows:
        name, k, nb, na, lb, la, private = row
        assert private == "yes", name
        assert na <= nb + 1e-9, name
        # Reliability loss never grows (tolerance for MC noise).
        assert la <= lb + 0.01, name
