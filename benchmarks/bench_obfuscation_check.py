"""Obfuscation-checker benchmark: full rebuild vs incremental delta cache.

Times the (k, epsilon)-obfuscation check of many candidate graphs, each
described as a delta against one base graph, under the production
checker and the full recompute it is tested against:

* ``full``        -- materialize the candidate
                     (:func:`repro.ugraph.apply_edge_updates`) and rebuild
                     the whole degree-uncertainty matrix
                     (:func:`repro.privacy.check_obfuscation`);
* ``incremental`` -- :meth:`repro.privacy.DegreeUncertaintyCache.check_edge_arrays`,
                     recomputing the touched endpoints' degree pmfs with
                     the batched DP and re-deriving column entropies.

Two delta shapes are timed:

* ``40-entry``  -- random 40-entry deltas (three quarters existing-edge
                   tweaks, the rest fresh pairs), touching ~80 rows;
* ``genobf``    -- what a GenObf trial actually checks: the whole
                   candidate set ``E_C`` from ``select_candidate_edges``
                   at the default ``size_multiplier`` (1.3), perturbed at
                   sigma levels the search probes.  About ``1.3 |E|``
                   entries touching nearly every vertex.

Every timed delta is also cross-checked for bit-identical reports, so the
benchmark doubles as an end-to-end equivalence audit at realistic scale.

Scaling knobs (environment variables):

* ``REPRO_BENCH_OBF_SCALE``  -- profile size multiplier (default 2.0,
                                i.e. n=1200 / |E| ~ 4200)
* ``REPRO_BENCH_OBF_DELTAS`` -- candidate checks timed per shape
                                (default 60)
* ``REPRO_BENCH_OBF_EDGES``  -- entries per random delta (default 40)

The module is also importable at tiny scale as the tier-1
``benchmark_smoke`` test (see ``tests/test_benchmark_smoke.py``), so both
checker paths are exercised -- not timed -- in every test run.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.config import ChameleonConfig
from repro.core.genobf import build_selection_context
from repro.core.noise import perturb_probabilities
from repro.core.parallel import _edge_noise_scales
from repro.core.selection import select_candidate_edges
from repro.datasets import load_profile
from repro.privacy import DegreeUncertaintyCache, check_obfuscation
from repro.ugraph import apply_edge_updates

OBF_SCALE = float(os.environ.get("REPRO_BENCH_OBF_SCALE", "2.0"))
OBF_DELTAS = int(os.environ.get("REPRO_BENCH_OBF_DELTAS", "60"))
OBF_EDGES = int(os.environ.get("REPRO_BENCH_OBF_EDGES", "40"))
OBF_SEED = 2018
OBF_K = 10
OBF_EPSILON = 0.05

#: Noise levels the GenObf deltas cycle through: the sigma search's first
#: probe and bisection steps down to its accepted range.
GENOBF_SIGMAS = (1.0, 0.5, 0.25, 0.12, 0.06)

HEADERS = ["delta", "checker", "entries", "rows", "seconds", "ms/check",
           "speedup"]


def _sample_delta(graph, n_edges: int, rng):
    """One random delta of ``n_edges`` entries against ``graph``.

    Mixes tweaks of existing edges with a few brand-new pairs.
    """
    n = graph.n_nodes
    seen: set[tuple[int, int]] = set()
    delta: list[tuple[int, int, float, float]] = []

    n_existing = min(graph.n_edges, max(1, (3 * n_edges) // 4))
    for e in rng.choice(graph.n_edges, size=n_existing, replace=False):
        u = int(graph.edge_src[e])
        v = int(graph.edge_dst[e])
        seen.add((u, v))
        delta.append((u, v, float(graph.edge_probabilities[e]),
                      float(rng.uniform())))

    while len(delta) < n_edges:
        u, v = rng.integers(0, n, size=2)
        u, v = int(min(u, v)), int(max(u, v))
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        delta.append((u, v, float(graph.probability(u, v)),
                      float(rng.uniform())))
    us, vs, p_old, p_new = (np.array(column) for column in zip(*delta))
    return us, vs, p_old, p_new


def _genobf_delta(graph, weights, config, sigma: float, rng):
    """One GenObf trial's delta: the perturbed candidate set ``E_C``."""
    pairs = select_candidate_edges(
        graph, weights, config.size_multiplier, seed=rng
    )
    us = np.array([u for u, __ in pairs], dtype=np.int64)
    vs = np.array([v for __, v in pairs], dtype=np.int64)
    current = graph.pair_probabilities(us, vs)
    perturbed = perturb_probabilities(
        current,
        _edge_noise_scales(us, vs, weights, sigma),
        mode=config.perturbation_mode,
        white_noise=config.white_noise,
        seed=rng,
    )
    return us, vs, current, perturbed


def _time_checkers(graph, cache, deltas, k, epsilon):
    """``(full_s, incremental_s, identical)`` over one delta stream."""
    knowledge = cache.knowledge

    def full(delta):
        us, vs, __, p_new = delta
        return check_obfuscation(
            apply_edge_updates(graph, us, vs, p_new), k, epsilon,
            knowledge=knowledge,
        )

    def incremental(delta):
        return cache.check_edge_arrays(
            *delta, k, epsilon, knowledge=knowledge
        )

    # Warm-up both paths (imports, allocator) on the first delta.
    full(deltas[0])
    incremental(deltas[0])

    started = time.perf_counter()
    full_reports = [full(delta) for delta in deltas]
    full_seconds = time.perf_counter() - started

    started = time.perf_counter()
    incremental_reports = [incremental(delta) for delta in deltas]
    incremental_seconds = time.perf_counter() - started

    identical = all(
        f.entropies.tobytes() == i.entropies.tobytes()
        and np.array_equal(f.obfuscated, i.obfuscated)
        and f.epsilon_achieved == i.epsilon_achieved
        and f.satisfied == i.satisfied
        for f, i in zip(full_reports, incremental_reports)
    )
    return full_seconds, incremental_seconds, identical


def run_check_comparison(
    scale: float = OBF_SCALE,
    n_deltas: int = OBF_DELTAS,
    delta_edges: int = OBF_EDGES,
    seed: int = OBF_SEED,
    k: int = OBF_K,
    epsilon: float = OBF_EPSILON,
) -> dict:
    """Time both checkers over both delta shapes; verify bit-equality.

    Returns ``{"rows": [[delta, checker, entries, rows, seconds,
    ms/check, speedup], ...], "graph": (n_nodes, n_edges), "n_deltas": D,
    "delta_edges": B, "identical": bool, "speedup": {delta: x}}``, where
    ``entries`` and ``rows`` are the mean delta length and the mean
    number of distinct endpoints of changed entries.  Checker timings
    cover the *steady state* of the trial loop (cache construction is
    one-off per anonymization run and excluded, exactly as in
    :meth:`Chameleon.anonymize`).
    """
    graph = load_profile("brightkite", scale=scale, seed=seed)
    rng = np.random.default_rng(seed)
    cache = DegreeUncertaintyCache(graph)
    config = ChameleonConfig(k=k, epsilon=epsilon)
    weights = build_selection_context(
        graph, config, cache.knowledge, seed=rng
    ).weights
    shapes = {
        f"{delta_edges}-entry": [
            _sample_delta(graph, delta_edges, rng) for __ in range(n_deltas)
        ],
        "genobf": [
            _genobf_delta(
                graph, weights, config,
                GENOBF_SIGMAS[i % len(GENOBF_SIGMAS)], rng,
            )
            for i in range(n_deltas)
        ],
    }

    rows, speedup, identical = [], {}, True
    for name, deltas in shapes.items():
        entries = float(np.mean([d[0].size for d in deltas]))
        touched = float(np.mean([
            np.unique(np.concatenate([us, vs])[np.tile(p_old != p_new, 2)])
            .size
            for us, vs, p_old, p_new in deltas
        ]))
        full_s, incremental_s, same = _time_checkers(
            graph, cache, deltas, k, epsilon
        )
        identical = identical and same
        speedup[name] = full_s / incremental_s
        rows += [
            [name, "full", entries, touched, full_s,
             1000.0 * full_s / n_deltas, 1.0],
            [name, "incremental", entries, touched, incremental_s,
             1000.0 * incremental_s / n_deltas, speedup[name]],
        ]
    return {
        "rows": rows,
        "graph": (graph.n_nodes, graph.n_edges),
        "n_deltas": n_deltas,
        "delta_edges": delta_edges,
        "identical": identical,
        "speedup": speedup,
    }


def test_bench_obfuscation_check():
    """Full-scale checker comparison (the recorded benchmark)."""
    import _harness

    result = run_check_comparison()
    n_nodes, n_edges = result["graph"]
    table = _harness.format_table(HEADERS, result["rows"])
    header = (
        f"brightkite-like profile: n={n_nodes} |E|={n_edges} "
        f"D={result['n_deltas']} candidate checks per delta shape "
        f"(k={OBF_K}, eps={OBF_EPSILON}); entries = delta length, "
        "rows = distinct endpoints of changed entries (mean per check)\n"
        f"reports bit-identical: {result['identical']}\n"
    )
    _harness.emit(
        "bench_obfuscation_check",
        header + table,
        data={
            "graph": {"n_nodes": n_nodes, "n_edges": n_edges},
            "n_deltas": result["n_deltas"],
            "delta_edges": result["delta_edges"],
            "k": OBF_K,
            "epsilon": OBF_EPSILON,
            "identical": bool(result["identical"]),
            "speedup": result["speedup"],
            **_harness.table_data(HEADERS, result["rows"]),
        },
    )
    assert result["identical"], "incremental and full reports diverged"
    for name, floor in ((f"{OBF_EDGES}-entry", 5.0), ("genobf", 3.0)):
        speedup = result["speedup"][name]
        assert speedup >= floor, (
            f"expected >= {floor}x speedup on {name} deltas, "
            f"got {speedup:.2f}x"
        )
