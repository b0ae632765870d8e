"""Ablation: shared-context k-sweeps vs independent runs.

Uniqueness scores and reliability relevance do not depend on k, so a
parameter sweep that recomputes them per run wastes time.  This bench
measures the wall-clock of anonymizing one dataset at every sweep k with
:func:`repro.core.sweep_anonymize` (context computed once) against
independent :func:`repro.anonymize` calls, and verifies the outputs
satisfy the same guarantees.
"""

from __future__ import annotations

import time

import repro
from _harness import EPSILONS, K_VALUES, RUN_KWARGS, SEED, dataset, emit, format_table
from repro.core import sweep_anonymize
from repro.privacy import check_obfuscation, expected_degree_knowledge

_DATASET = "brightkite"


def _build_rows():
    graph = dataset(_DATASET)
    epsilon = EPSILONS[_DATASET]
    ks = list(K_VALUES)

    start = time.perf_counter()
    shared = sweep_anonymize(graph, ks, epsilon, seed=SEED, **RUN_KWARGS)
    shared_seconds = time.perf_counter() - start

    start = time.perf_counter()
    independent = {
        k: repro.anonymize(graph, k, epsilon, seed=SEED, **RUN_KWARGS)
        for k in ks
    }
    independent_seconds = time.perf_counter() - start

    knowledge = expected_degree_knowledge(graph)
    rows = []
    for k in ks:
        s, i = shared[k], independent[k]
        s_private = (
            s.success
            and check_obfuscation(s.graph, k, epsilon,
                                  knowledge=knowledge).satisfied
        )
        rows.append([k, "yes" if s_private else "NO",
                     s.sigma, i.sigma])
    return rows, shared_seconds, independent_seconds


def test_sweep_context_sharing(benchmark):
    rows, shared_seconds, independent_seconds = benchmark.pedantic(
        _build_rows, rounds=1, iterations=1
    )
    table = format_table(
        ["k", "private (shared)", "sigma (shared)", "sigma (indep)"], rows
    )
    text = "\n".join([
        table,
        "",
        f"shared-context sweep : {shared_seconds:.2f}s",
        f"independent runs     : {independent_seconds:.2f}s",
        f"speedup              : {independent_seconds / shared_seconds:.2f}x",
    ])
    emit("sweep_sharing", text)

    # Every shared-sweep output is genuinely private.
    assert all(r[1] == "yes" for r in rows)
    # Sharing never loses time overall (amortizes the relevance pass).
    assert shared_seconds < independent_seconds * 1.2
