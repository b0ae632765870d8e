"""Efficiency: runtime scaling of the Chameleon building blocks.

The paper claims Chameleon is efficient thanks to the near-linear reused-
sampling estimators (Lemma 3).  This bench measures wall-clock scaling of
the three dominant kernels as the graph grows:

* reliability-relevance evaluation (Algorithm 2),
* the (k, epsilon)-obfuscation check (Poisson-binomial DP + entropies),
* one full GenObf trial.

Shape expectation: all three grow roughly linearly in |E| -- the ratio
time/|E| stays within a small band across sizes (no quadratic blow-up).

``test_large_world_budget`` (marked ``large_scale``) is the memory-budget
acceptance run: a synthetic 10^5-node / >=10^6-edge graph anonymized
end-to-end with a world-store budget well below the full
``N_worlds x |E|`` uniform matrix, so the store works in several
chunks.  The budget bounds per-chunk temporaries, not the process;
peak RSS is recorded in the results file so that is auditable.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _harness import SEED, emit, format_table, table_data
from repro.core import ChameleonConfig, build_selection_context, gen_obf
from repro.datasets import load_profile
from repro.privacy import check_obfuscation, expected_degree_knowledge
from repro.reliability import edge_reliability_relevance

_SCALES = (0.25, 0.5, 1.0, 2.0)
_SAMPLES = 200


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _build_rows():
    rows = []
    for scale in _SCALES:
        graph = load_profile("brightkite", scale=scale, seed=SEED)
        know = expected_degree_knowledge(graph)

        t_err = _time(lambda: edge_reliability_relevance(
            graph, n_samples=_SAMPLES, seed=SEED
        ))
        t_check = _time(lambda: check_obfuscation(
            graph, 10, 0.05, knowledge=know
        ))
        config = ChameleonConfig(
            k=10, epsilon=0.05, n_trials=1, relevance_samples=_SAMPLES,
            size_multiplier=2.0,
        )
        context = build_selection_context(graph, config, know, seed=SEED)
        t_genobf = _time(lambda: gen_obf(
            graph, config, 0.05, context, seed=SEED
        ))
        rows.append([
            graph.n_nodes, graph.n_edges,
            t_err, t_check, t_genobf,
            t_err / graph.n_edges * 1e3,
        ])
    return rows


def test_scaling_runtime(benchmark):
    rows = benchmark.pedantic(_build_rows, rounds=1, iterations=1)
    headers = ["nodes", "edges", "ERR (s)", "obf check (s)", "GenObf (s)",
               "ERR ms/edge"]
    emit(
        "scaling_runtime",
        format_table(headers, rows, precision=3),
        data=table_data(headers, rows),
    )
    # Near-linear: per-edge cost of the largest graph is within 8x of the
    # smallest (a quadratic kernel would be ~64x here).
    per_edge = [r[5] for r in rows]
    assert max(per_edge) < 8 * min(per_edge)
    # Absolute sanity: the biggest graph's ERR pass stays interactive.
    assert rows[-1][2] < 30.0


# --------------------------------------------------------------------- #
# Memory-budget acceptance: 10^5 nodes, >=10^6 edges, capped world state
# --------------------------------------------------------------------- #

_LARGE_NODES = 100_000
_LARGE_EDGES = 1_050_000
_LARGE_WORLDS = 48
_LARGE_BUDGET = 192 * 1024 * 1024  # world-state cap, bytes


def _synthetic_uncertain_graph(n_nodes: int, n_edges: int, seed: int):
    """A random uncertain graph built directly from arrays.

    The dataset profiles top out far below publication scale, so the
    large-scale bench draws its own edge universe: canonical (u < v)
    pairs deduplicated by encoded key, probabilities in [0.05, 0.95].
    """
    from repro.ugraph import UncertainGraph

    rng = np.random.default_rng(seed)
    want = n_edges
    draw = int(want * 1.3)
    pairs = rng.integers(0, n_nodes, size=(draw, 2), dtype=np.int64)
    u = np.minimum(pairs[:, 0], pairs[:, 1])
    v = np.maximum(pairs[:, 0], pairs[:, 1])
    keep = u != v
    u, v = u[keep], v[keep]
    _, first = np.unique(u * n_nodes + v, return_index=True)
    u, v = u[first], v[first]
    if u.shape[0] < want:
        raise AssertionError(
            f"synthetic draw produced only {u.shape[0]} unique edges"
        )
    u, v = u[:want], v[:want]
    prob = rng.uniform(0.05, 0.95, size=want)
    return UncertainGraph(n_nodes, zip(u.tolist(), v.tolist(), prob.tolist()))


@pytest.mark.large_scale
def test_large_world_budget(benchmark, monkeypatch):
    """Anonymize 10^5 nodes / >=10^6 edges under a chunked world budget.

    The full ``N_worlds x |E|`` uniform matrix would need ~400 MiB; the
    run sets a 192 MiB world budget, forcing the store into multiple
    chunks, and must still complete end-to-end.
    """
    import repro
    from repro.reliability import WorldStore

    monkeypatch.delenv("REPRO_WORLD_CHUNK", raising=False)

    build_start = time.perf_counter()
    graph = _synthetic_uncertain_graph(_LARGE_NODES, _LARGE_EDGES, SEED)
    build_seconds = time.perf_counter() - build_start

    full_matrix_bytes = _LARGE_WORLDS * graph.n_edges * 8
    assert _LARGE_BUDGET < full_matrix_bytes

    # Chunk geometry audit: construction is lazy, so probing the layout
    # costs nothing.
    probe = WorldStore(
        graph, _LARGE_WORLDS, seed=SEED, memory_budget=_LARGE_BUDGET
    )
    n_chunks = probe.n_chunks
    assert n_chunks > 1, "budget did not force multiple chunks"

    def run():
        return repro.anonymize(
            graph, 10, 0.2, method="me", seed=SEED,
            n_trials=1, sigma_tolerance=0.1, size_multiplier=1.0,
            utility_samples=_LARGE_WORLDS,
            world_memory_budget=_LARGE_BUDGET,
        )

    start = time.perf_counter()
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    seconds = time.perf_counter() - start

    headers = ["nodes", "edges", "worlds", "chunks", "budget MiB",
               "full matrix MiB", "anonymize (s)", "success"]
    rows = [[
        graph.n_nodes, graph.n_edges, _LARGE_WORLDS, n_chunks,
        _LARGE_BUDGET / 1024**2, full_matrix_bytes / 1024**2,
        seconds, result.success,
    ]]
    data = table_data(headers, rows)
    data["sigma"] = result.sigma
    data["graph_build_seconds"] = build_seconds
    emit(
        "scaling_large_world",
        format_table(headers, rows, precision=2),
        data=data,
    )
    assert result.graph is not None or not result.success
