"""Ablation: reused-sampling ERR (Algorithm 2) vs per-edge re-sampling.

Lemma 2 vs Lemma 3: the naive estimator re-samples N worlds *per edge*
(O(|E| * N * alpha * |E|)); Algorithm 2 shares one batch of N worlds
across all edges (O(N * alpha * |E|)).  This bench measures both the
speedup and the agreement of the estimates (on a subset of edges for the
naive side -- running it on every edge is precisely what is infeasible).

Also compares the two shared-sample variants ("grouped" as published vs
the Rao-Blackwellized "merge-gain") against the exact oracle on a small
graph.
"""

from __future__ import annotations

import time

import numpy as np

from _harness import SEED, dataset, emit, format_table
from repro.reliability import (
    WorldStore,
    edge_reliability_relevance,
    exact_edge_reliability_relevance,
)
from repro.ugraph import UncertainGraph

_N_SAMPLES = 300
_NAIVE_EDGES = 12


def _naive_err(graph, edges, n_samples: int, seed: int) -> np.ndarray:
    """Per-edge ERR by dedicated forced-present/absent re-sampling."""
    out = np.empty(len(edges))
    for i, e in enumerate(edges):
        values = {}
        for forced, label in ((1.0, "present"), (0.0, "absent")):
            p = graph.edge_probabilities.copy()
            p[e] = forced
            view = WorldStore(
                graph.with_probabilities(p), n_samples, seed=seed + i,
            ).base_view()
            values[label] = view.expected_connected_pairs()
        out[i] = values["present"] - values["absent"]
    return out


def _build_rows():
    graph = dataset("brightkite")
    rng = np.random.default_rng(SEED)
    probe = rng.choice(graph.n_edges, size=_NAIVE_EDGES, replace=False)

    t0 = time.perf_counter()
    shared = edge_reliability_relevance(
        graph, n_samples=_N_SAMPLES, seed=SEED, method="merge-gain"
    )
    shared_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    naive = _naive_err(graph, probe.tolist(), _N_SAMPLES, SEED)
    naive_subset_seconds = time.perf_counter() - t0
    naive_projected = naive_subset_seconds / _NAIVE_EDGES * graph.n_edges

    corr = float(np.corrcoef(shared[probe], naive)[0, 1])
    return {
        "edges": graph.n_edges,
        "shared_seconds": shared_seconds,
        "naive_projected_seconds": naive_projected,
        "speedup": naive_projected / shared_seconds,
        "correlation": corr,
    }


def _oracle_rows():
    """grouped vs merge-gain RMSE against the exact oracle."""
    rng = np.random.default_rng(SEED)
    n = 8
    triples = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                triples.append((u, v, float(rng.uniform(0.1, 0.9))))
    small = UncertainGraph(n, triples[:16])
    exact = exact_edge_reliability_relevance(small)
    rows = []
    for method in ("grouped", "merge-gain"):
        errors = []
        for trial in range(10):
            est = edge_reliability_relevance(
                small, n_samples=400, seed=trial, method=method
            )
            errors.append(np.sqrt(np.mean((est - exact) ** 2)))
        rows.append([method, float(np.mean(errors))])
    return rows


def test_ablation_reused_sampling_speedup(benchmark):
    stats = benchmark.pedantic(_build_rows, rounds=1, iterations=1)
    oracle = _oracle_rows()
    text = "\n".join([
        f"edges                  : {stats['edges']}",
        f"Algorithm 2 (shared)   : {stats['shared_seconds']:.2f}s for all edges",
        f"naive (projected)      : {stats['naive_projected_seconds']:.1f}s",
        f"speedup                : {stats['speedup']:.0f}x",
        f"estimate correlation   : {stats['correlation']:.3f}",
        "",
        format_table(["estimator", "RMSE vs exact"], oracle),
    ])
    emit("ablation_relevance", text)

    assert stats["speedup"] > 10
    assert stats["correlation"] > 0.8
    rmse = dict((r[0], r[1]) for r in oracle)
    # The Rao-Blackwellized variant is no worse than the published one.
    assert rmse["merge-gain"] <= rmse["grouped"] * 1.25
