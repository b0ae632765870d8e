"""Connectivity benchmark: the batched kernel against a per-world loop.

Times :func:`repro.reliability.batch_component_labels` -- every world of
the batch stacked into one block-diagonal adjacency and labeled by one
``connected_components`` call -- against the straightforward reference
it replaced: one sparse adjacency and one ``connected_components`` call
per world, the loop the tests use as their oracle
(``tests/connectivity_oracle.py``).  Both run on the same
Brightkite-like world batch, and the bench verifies they produce
identical component *partitions* and connected-pair counts (the
partition is what every estimator consumes).

Scaling knobs (environment variables):

* ``REPRO_BENCH_CONN_SCALE``   -- profile size multiplier (default 1.0)
* ``REPRO_BENCH_CONN_SAMPLES`` -- Monte-Carlo worlds (default 1000)

The module is also importable at tiny scale as the tier-1
``benchmark_smoke`` test (see ``tests/test_benchmark_smoke.py``), so the
perf-path code is exercised -- not timed -- in every test run.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.datasets import load_profile
from repro.reliability import batch_component_labels, pair_counts_from_labels
from repro.ugraph import sample_edge_masks
from tests.connectivity_oracle import oracle_component_labels

CONN_SCALE = float(os.environ.get("REPRO_BENCH_CONN_SCALE", "1.0"))
CONN_SAMPLES = int(os.environ.get("REPRO_BENCH_CONN_SAMPLES", "1000"))
CONN_SEED = 2018


def canonical_partition(labels: np.ndarray) -> np.ndarray:
    """Relabel every row by order of first appearance.

    Two labelings describe the same per-world partitions iff their
    canonical forms are identical, regardless of which concrete label
    each labeler assigned to a component.
    """
    out = np.empty_like(labels)
    for i, row in enumerate(labels):
        uniq, first, inverse = np.unique(
            row, return_index=True, return_inverse=True
        )
        rank = np.empty(uniq.size, dtype=labels.dtype)
        rank[np.argsort(first, kind="stable")] = np.arange(
            uniq.size, dtype=labels.dtype
        )
        out[i] = rank[inverse]
    return out


def per_world_labels(graph, masks: np.ndarray) -> np.ndarray:
    """Reference labeling: one adjacency and one scipy call per world."""
    return oracle_component_labels(
        graph.n_nodes, graph.edge_src, graph.edge_dst, masks
    )


#: The timed labelers, reference first.
LABELERS = (
    ("per-world", per_world_labels),
    ("batched", batch_component_labels),
)


def run_backend_comparison(
    n_samples: int = CONN_SAMPLES,
    scale: float = CONN_SCALE,
    seed: int = CONN_SEED,
    repeats: int = 3,
) -> dict:
    """Time both labelers on one shared world batch; verify partitions.

    Returns ``{"rows": [[labeler, seconds, speedup_vs_per_world,
    n_components, partitions_match], ...], "graph": (n_nodes, n_edges),
    "n_samples": N}``.  ``seconds`` is the best of ``repeats`` timed runs
    after one untimed warm-up call per labeler.
    """
    graph = load_profile("brightkite", scale=scale, seed=seed)
    masks = sample_edge_masks(graph, n_samples, seed=seed)

    timings: dict[str, float] = {}
    labelings: dict[str, np.ndarray] = {}
    for name, label in LABELERS:
        label(graph, masks[: min(16, n_samples)])  # warm-up: allocator
        best = float("inf")
        for __ in range(repeats):
            started = time.perf_counter()
            labels = label(graph, masks)
            best = min(best, time.perf_counter() - started)
        timings[name] = best
        labelings[name] = labels

    reference_name = LABELERS[0][0]
    reference = canonical_partition(labelings[reference_name])
    reference_counts = pair_counts_from_labels(labelings[reference_name])
    rows = []
    for name, __ in LABELERS:
        matches = bool(
            np.array_equal(reference, canonical_partition(labelings[name]))
            and np.array_equal(
                reference_counts, pair_counts_from_labels(labelings[name])
            )
        )
        rows.append([
            name,
            timings[name],
            timings[reference_name] / timings[name],
            int(labelings[name].max(initial=-1) + 1),
            matches,
        ])
    return {
        "rows": rows,
        "graph": (graph.n_nodes, graph.n_edges),
        "n_samples": n_samples,
    }


def test_bench_connectivity_backends():
    """Full-scale labeling comparison (the recorded benchmark)."""
    import _harness

    result = run_backend_comparison()
    n_nodes, n_edges = result["graph"]
    table = _harness.format_table(
        ["labeler", "seconds", "speedup", "max components/world",
         "partition ok"],
        result["rows"],
    )
    header = (
        f"brightkite-like profile: n={n_nodes} |E|={n_edges} "
        f"N={result['n_samples']} worlds\n"
    )
    _harness.emit("bench_connectivity_backends", header + table)
    assert all(row[4] for row in result["rows"]), "labeler partitions diverged"
