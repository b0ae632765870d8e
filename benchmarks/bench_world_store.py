"""World-store benchmark: incremental candidate re-evaluation vs fresh.

Times the reliability side of the sigma search for a GenObf-shaped
workload -- many candidate graphs, each differing from the base graph on
a small sigma-perturbed edge set -- under two evaluation strategies:

* ``fresh`` -- what a store-less evaluator does per candidate given the
  same CRN uniforms: re-threshold the full mask matrix, relabel all N
  base worlds AND all N candidate worlds, recount every query pair on
  both sides, then difference the reliabilities;
* ``store`` -- one persistent :class:`repro.reliability.WorldStore`:
  the base side is labeled/counted once, each candidate is a
  :meth:`WorldStore.derive` delta that re-thresholds only the changed
  columns and relabels only the dirty worlds.

Because both paths consume the *same* uniforms, every timed query is
audited for bit-equality: candidate labels, per-pair connected-world
counts, and the final discrepancy float must match exactly.  The store
row's total includes its one-off construction (base sampling, labeling,
pair counting), so the speedup is end-to-end for a D-candidate search.

A second table times the all-pairs path (``pairs=None``, ``n <=
FULL_MATRIX_LIMIT``) that utility scoring in the sigma search runs:
every candidate's full ``n x n`` reliability matrix comes from the
pairwise equality accumulator.  The accumulator is timed against the
broadcast compare it replaced (kept as the oracle in
``tests/test_worldstore.py``), once through ``WorldStore.discrepancy``
on derived candidates of the profile graph and once on an adversarial
label matrix: equal-size components of ``ceil(n / D) - 1`` vertices
(``D = worldstore.PAIRWISE_DENSE_DIVISOR``), the largest that still
take the sparse path.  Both must agree bit for bit.

Scaling knobs (environment variables):

* ``REPRO_BENCH_WS_SCALE``   -- profile size multiplier (default 2.0,
                                i.e. n=1200 / |E| ~ 4200)
* ``REPRO_BENCH_WS_SAMPLES`` -- Monte-Carlo worlds N (default 1000)
* ``REPRO_BENCH_WS_DELTAS``  -- candidate re-evaluations timed (default 30)
* ``REPRO_BENCH_WS_EDGES``   -- perturbed edges per candidate (default 40)

The module is also importable at tiny scale as the tier-1
``benchmark_smoke`` test (see ``tests/test_benchmark_smoke.py``).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.datasets import load_profile
from repro.reliability import (
    WorldStore,
    component_labels_for_edges,
    sample_vertex_pairs,
)
from repro.reliability import worldstore
from repro.reliability.worldstore import _pair_equal_counts
from tests.test_worldstore import broadcast_pairwise_acc, canonical_labels

WS_SCALE = float(os.environ.get("REPRO_BENCH_WS_SCALE", "2.0"))
WS_SAMPLES = int(os.environ.get("REPRO_BENCH_WS_SAMPLES", "1000"))
WS_DELTAS = int(os.environ.get("REPRO_BENCH_WS_DELTAS", "30"))
WS_EDGES = int(os.environ.get("REPRO_BENCH_WS_EDGES", "40"))
WS_SEED = 2018
WS_PAIRS = 20_000

#: Per-candidate noise scales, log-spaced over the band a converging
#: sigma bisection actually probes (early coarse sigmas down to the
#: tolerance floor).  The dirty-world fraction -- and hence the store's
#: advantage -- is governed by these magnitudes.
SIGMA_HI = 0.08
SIGMA_LO = 0.005


def _sample_sigma_delta(graph, n_edges, sigma, rng):
    """One GenObf-like candidate delta: sigma-noise on ``n_edges`` pairs.

    Mirrors the perturbation step's shape: ~3/4 tweaks of realized edges
    (``p_new = clip(p_old + N(0, sigma))``), the rest new pairs injected
    at small probability ``|N(0, sigma)|``.
    """
    n = graph.n_nodes
    seen = set()
    delta = []
    n_existing = min(graph.n_edges, max(1, (3 * n_edges) // 4))
    for e in rng.choice(graph.n_edges, size=n_existing, replace=False):
        u = int(graph.edge_src[e])
        v = int(graph.edge_dst[e])
        seen.add((u, v))
        p_old = float(graph.edge_probabilities[e])
        p_new = float(np.clip(p_old + rng.normal(0.0, sigma), 0.0, 1.0))
        delta.append((u, v, p_old, p_new))
    while len(delta) < n_edges:
        u, v = rng.integers(0, n, size=2)
        u, v = int(min(u, v)), int(max(u, v))
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        p_old = float(graph.probability(u, v))
        p_new = float(min(1.0, abs(rng.normal(0.0, sigma))))
        delta.append((u, v, p_old, p_new))
    return delta


def _fresh_eval(store, delta, pairs, seed):
    """Full CRN recompute of one candidate: the store-less oracle.

    Redraws the base uniforms (as a fresh estimator does on every call),
    re-thresholds every column, relabels all base and candidate worlds,
    and recounts every pair on both sides.  The redraw consumes the
    generator identically to the store's first block, so the result
    stays bit-comparable to the store path; grown (new-pair) columns
    reuse the store's growth blocks.
    """
    n = store.graph.n_nodes
    n_samples = store.n_samples
    n_base = store.graph.n_edges
    uniforms = store.uniforms
    drawn = np.random.default_rng(seed).random((n_samples, n_base))
    masks = np.empty(uniforms.shape, dtype=bool)
    masks[:, :n_base] = drawn < store._prob[:n_base]
    masks[:, n_base:] = uniforms[:, n_base:] < store._prob[n_base:]
    base_labels = component_labels_for_edges(
        n, store._src, store._dst, masks
    )
    base_counts = _pair_equal_counts(base_labels, pairs)
    rows = np.asarray(delta, dtype=np.float64)
    cols = store._column_ids(rows[:, 0].astype(np.int64),
                             rows[:, 1].astype(np.int64))
    p_new = rows[:, 3]
    masks[:, cols] = uniforms[:, cols] < p_new
    cand_labels = component_labels_for_edges(
        n, store._src, store._dst, masks
    )
    cand_counts = _pair_equal_counts(cand_labels, pairs)
    base_r = base_counts / n_samples
    diff = np.abs(base_r - cand_counts / n_samples)
    disc = float(diff.sum()) / pairs.shape[0]
    return disc, cand_labels, cand_counts


def run_store_comparison(
    scale: float = WS_SCALE,
    n_samples: int = WS_SAMPLES,
    n_deltas: int = WS_DELTAS,
    delta_edges: int = WS_EDGES,
    seed: int = WS_SEED,
    n_pairs: int = WS_PAIRS,
) -> dict:
    """Time both strategies over the same candidate stream.

    Returns ``{"rows": [[strategy, seconds, per_candidate_ms, speedup],
    ...], "graph": (n_nodes, n_edges), "n_deltas": D, "delta_edges": B,
    "n_samples": N, "identical": bool, "dirty_fraction": mean,
    "speedup": float}``.
    """
    graph = load_profile("brightkite", scale=scale, seed=seed)
    rng = np.random.default_rng(seed)
    sigmas = np.geomspace(SIGMA_HI, SIGMA_LO, num=n_deltas)
    deltas = [
        _sample_sigma_delta(graph, delta_edges, sigma, rng)
        for sigma in sigmas
    ]
    pairs = sample_vertex_pairs(graph.n_nodes, n_pairs, seed=seed)

    # Warm-up store (allocator, imports); discarded before timing.
    warm = WorldStore(graph, n_samples=min(n_samples, 32), seed=seed)
    warm.derive(deltas[0]).pair_counts

    # --- store path: one persistent store, construction included ----- #
    # The first discrepancy counts the base worlds on ``pairs``; the
    # store keeps those counts for the rest of the stream.
    started = time.perf_counter()
    store = WorldStore(graph, n_samples=n_samples, seed=seed)
    views = []
    store_discs = []
    for delta in deltas:
        view = store.derive(delta)
        store_discs.append(store.discrepancy(view, pairs=pairs))
        views.append(view)
    store_seconds = time.perf_counter() - started
    dirty_fraction = float(
        np.mean([view.n_dirty / n_samples for view in views])
    )

    # --- fresh path: full recompute per candidate, same uniforms ----- #
    started = time.perf_counter()
    fresh = [_fresh_eval(store, delta, pairs, seed) for delta in deltas]
    fresh_seconds = time.perf_counter() - started

    identical = all(
        disc == store_discs[i]
        and np.array_equal(cand_labels, views[i].labels)
        and np.array_equal(
            cand_counts, _pair_equal_counts(views[i].labels, pairs)
        )
        for i, (disc, cand_labels, cand_counts) in enumerate(fresh)
    )
    rows = [
        ["fresh", fresh_seconds, 1000.0 * fresh_seconds / n_deltas, 1.0],
        ["store", store_seconds, 1000.0 * store_seconds / n_deltas,
         fresh_seconds / store_seconds],
    ]
    return {
        "rows": rows,
        "graph": (graph.n_nodes, graph.n_edges),
        "n_deltas": n_deltas,
        "delta_edges": delta_edges,
        "n_samples": n_samples,
        "identical": identical,
        "dirty_fraction": dirty_fraction,
        "speedup": fresh_seconds / store_seconds,
    }


def run_pairwise_comparison(
    scale: float = WS_SCALE,
    n_samples: int = WS_SAMPLES,
    n_deltas: int = 5,
    delta_edges: int = WS_EDGES,
    seed: int = WS_SEED,
) -> dict:
    """All-pairs discrepancy: size-split accumulator vs broadcast compare.

    Returns ``{"rows": [[case, kernel, seconds, speedup, identical],
    ...], "graph": (n_nodes, n_edges), "n_samples": N, "n_deltas": D,
    "component_size": s, "identical": bool}``.  The profile case times
    ``D`` all-pairs :meth:`WorldStore.discrepancy` calls (base
    accumulator cached, as in the sigma search) with each kernel swapped
    in; the adversarial case times one accumulator over ``N`` worlds of
    equal-size components.
    """
    graph = load_profile("brightkite", scale=scale, seed=seed)
    n = graph.n_nodes
    if n > worldstore.FULL_MATRIX_LIMIT:
        raise ValueError(f"n={n} exceeds FULL_MATRIX_LIMIT")
    rng = np.random.default_rng(seed)
    sigmas = np.geomspace(SIGMA_HI, SIGMA_LO, num=n_deltas)
    deltas = [
        _sample_sigma_delta(graph, delta_edges, sigma, rng)
        for sigma in sigmas
    ]
    store = WorldStore(graph, n_samples=n_samples, seed=seed)
    views = [store.derive(delta) for delta in deltas]
    production = worldstore._pairwise_equal_acc

    def discrepancies(kernel):
        worldstore._pairwise_equal_acc = kernel
        try:
            started = time.perf_counter()
            values = [store.discrepancy(view) for view in views]
            return time.perf_counter() - started, values
        finally:
            worldstore._pairwise_equal_acc = production

    base_identical = np.array_equal(
        store.base_pair_acc, broadcast_pairwise_acc(store.base_labels, n)
    )
    store.base_pairwise_reliability()
    oracle_seconds, oracle_values = discrepancies(broadcast_pairwise_acc)
    fast_seconds, fast_values = discrepancies(production)
    profile_identical = base_identical and oracle_values == fast_values

    size = max(1, -(-n // worldstore.PAIRWISE_DENSE_DIVISOR) - 1)
    groups = np.stack([rng.permutation(n) // size for __ in range(n_samples)])
    labels = canonical_labels(groups)
    started = time.perf_counter()
    expected = broadcast_pairwise_acc(labels, n)
    oracle_kernel = time.perf_counter() - started
    started = time.perf_counter()
    acc = production(labels, n)
    fast_kernel = time.perf_counter() - started
    partition_identical = np.array_equal(acc, expected)

    rows = [
        ["profile", "broadcast", oracle_seconds, 1.0, profile_identical],
        ["profile", "accumulator", fast_seconds,
         oracle_seconds / fast_seconds, profile_identical],
        ["equal-size", "broadcast", oracle_kernel, 1.0, partition_identical],
        ["equal-size", "accumulator", fast_kernel,
         oracle_kernel / fast_kernel, partition_identical],
    ]
    return {
        "rows": rows,
        "graph": (n, graph.n_edges),
        "n_samples": n_samples,
        "n_deltas": n_deltas,
        "component_size": size,
        "identical": bool(profile_identical and partition_identical),
    }


def test_bench_world_store():
    """Full-scale store comparison (the recorded benchmark)."""
    import _harness

    result = run_store_comparison()
    n_nodes, n_edges = result["graph"]
    table = _harness.format_table(
        ["strategy", "seconds", "ms/candidate", "speedup"],
        result["rows"],
    )
    header = (
        f"brightkite-like profile: n={n_nodes} |E|={n_edges} "
        f"N={result['n_samples']} worlds, D={result['n_deltas']} "
        f"candidate re-evaluations x {result['delta_edges']} perturbed "
        f"edges (sigma {SIGMA_HI} -> {SIGMA_LO}), {WS_PAIRS} query pairs\n"
        f"queries bit-identical to fresh oracle: {result['identical']}\n"
        f"mean dirty-world fraction: {result['dirty_fraction']:.3f}\n"
    )
    pairwise = run_pairwise_comparison()
    pairwise_headers = ["case", "kernel", "seconds", "speedup", "identical"]
    pairwise_table = _harness.format_table(pairwise_headers, pairwise["rows"])
    _harness.emit(
        "bench_world_store",
        header + table
        + f"\n\nall-pairs discrepancy path (pairs=None, n={n_nodes}, "
          f"N={pairwise['n_samples']} worlds): pairwise accumulator vs "
          f"broadcast compare over {pairwise['n_deltas']} profile "
          "discrepancies, then one accumulator over equal-size "
          f"components of {pairwise['component_size']} vertices\n"
        + pairwise_table,
        data={
            "graph": {"n_nodes": n_nodes, "n_edges": n_edges},
            "n_samples": result["n_samples"],
            "n_deltas": result["n_deltas"],
            "delta_edges": result["delta_edges"],
            "identical": bool(result["identical"] and pairwise["identical"]),
            "speedup": result["speedup"],
            "dirty_fraction": result["dirty_fraction"],
            **_harness.table_data(
                ["strategy", "seconds", "ms/candidate", "speedup"],
                result["rows"],
            ),
            "pairwise": _harness.table_data(
                pairwise_headers, pairwise["rows"]
            ),
        },
    )
    assert result["identical"], "store and fresh-oracle queries diverged"
    assert pairwise["identical"], "accumulator and broadcast oracle diverged"
    assert all(row[3] >= 1.0 for row in pairwise["rows"]), (
        "accumulator slower than the broadcast compare"
    )
    assert result["speedup"] >= 3.0, (
        f"expected >= 3x speedup, got {result['speedup']:.2f}x"
    )
