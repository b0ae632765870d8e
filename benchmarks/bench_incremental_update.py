"""Incremental re-certification benchmark: patch-and-repair vs full re-run.

The streaming scenario from ``repro.stream``: a published anonymized
graph receives small batches of edge-probability updates (<= 1% of the
edge set each) and must be re-certified after every batch.  Two ways to
get the fresh ``(k, epsilon)`` certificate -- and, when the deployment
keeps a Monte-Carlo world store resident, fresh reliability state:

* ``full``        -- what today's pipeline would do: rebuild the
                     :class:`~repro.privacy.DegreeUncertaintyCache`
                     from the patched graph and re-check; for the
                     end-to-end variant, also sample and warm a brand
                     new :class:`~repro.reliability.worldstore.WorldStore`;
* ``incremental`` -- :meth:`IncrementalRecertifier.apply`: patch only
                     the touched degree-pmf rows, re-read the entropy
                     profile, and (end-to-end) ``rebase`` the existing
                     store's changed columns against its own uniforms.

A store rebase is write-back: it marks the worlds a batch flipped stale
and the store's next label read relabels them once.  The end-to-end table
therefore times two things per batch: ``rebase ms`` is the apply alone,
and ``rebase + read ms`` adds a timed store read (the reliability query
the audit below needs) every ``read every`` batches.  Reading after every
batch relabels every batch's flipped worlds, the case deferral cannot
help; the speedup and its regression floor use ``rebase + read``.

Every batch is audited: the incremental certificate (verdict, achieved
epsilon, per-vertex entropy columns) must be bit-identical to the
full-rebuild one, and every store read must be bit-identical to a
pristine store's derived view of the cumulative delta -- so the
speedup table doubles as an equivalence audit at
realistic scale.  The store comparison is honest about semantics: a
rebased store continues the *same* uniforms (a CRN continuation), which
is exactly what the incremental pipeline promises; it is not claimed to
reproduce a freshly-seeded store's draw.

Scaling knobs (environment variables):

* ``REPRO_BENCH_UPD_SCALE``   -- profile size multiplier (default 2.0,
                                 i.e. n=1200 / |E| ~ 4200)
* ``REPRO_BENCH_UPD_BATCHES`` -- update batches per delta size (default 5)
* ``REPRO_BENCH_UPD_SAMPLES`` -- worlds in the resident store (default 120)

The module is also importable at tiny scale as the tier-1
``benchmark_smoke`` test (see ``tests/test_benchmark_smoke.py``), so the
update pipeline is exercised -- not timed -- in every test run.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.datasets import load_profile
from repro.privacy import DegreeUncertaintyCache
from repro.reliability.worldstore import WorldStore, graph_delta
from repro.stream import IncrementalRecertifier, UpdateBatch

UPD_SCALE = float(os.environ.get("REPRO_BENCH_UPD_SCALE", "2.0"))
UPD_BATCHES = int(os.environ.get("REPRO_BENCH_UPD_BATCHES", "5"))
UPD_SAMPLES = int(os.environ.get("REPRO_BENCH_UPD_SAMPLES", "120"))
UPD_SEED = 2018
UPD_K = 10
UPD_EPSILON = 0.05

#: Update-batch sizes as fractions of |E| (the ISSUE's regime: <= 1%).
UPD_FRACTIONS = (0.0025, 0.005, 0.01)


def _sample_batch(graph, n_edges: int, rng) -> UpdateBatch:
    """One realistic update batch: mostly drift on existing edges, the
    occasional appearing pair (a new observed interaction)."""
    n = graph.n_nodes
    seen: set[tuple[int, int]] = set()
    deltas: list[tuple[int, int, float, float]] = []

    n_existing = min(graph.n_edges, max(1, (3 * n_edges) // 4))
    for e in rng.choice(graph.n_edges, size=n_existing, replace=False):
        u = int(graph.edge_src[e])
        v = int(graph.edge_dst[e])
        if (u, v) in seen:
            continue
        seen.add((u, v))
        old = float(graph.edge_probabilities[e])
        deltas.append(
            (u, v, old, float(np.clip(old + rng.normal(0.0, 0.15), 0.0, 1.0)))
        )
    while len(deltas) < n_edges:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        u, v = min(u, v), max(u, v)
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        deltas.append((u, v, float(graph.probability(u, v)),
                       float(rng.uniform(0.05, 0.5))))
    return UpdateBatch.from_deltas(deltas)


def run_update_comparison(
    scale: float = UPD_SCALE,
    n_batches: int = UPD_BATCHES,
    fractions: tuple[float, ...] = UPD_FRACTIONS,
    n_samples: int = UPD_SAMPLES,
    seed: int = UPD_SEED,
    k: int = UPD_K,
    epsilon: float = UPD_EPSILON,
    with_store: bool = True,
    read_every: int = 1,
) -> dict:
    """Chained update batches: incremental pipeline vs full re-run.

    For each delta fraction, ``n_batches`` batches are applied in
    sequence (each built against the state the previous one left).  Per
    batch the full path rebuilds the degree cache from the patched
    graph and re-checks; with ``with_store`` it also samples and warms
    a fresh world store, while the incremental path rebases the
    resident one and reads it (timed) after every ``read_every``-th
    batch and the last.  Returns table rows
    ``[pct, edges/batch, incremental ms, full ms, speedup]`` -- with a
    store ``[pct, edges/batch, read every, rebase ms, rebase + read ms,
    full ms, speedup]``, the speedup taken over ``rebase + read`` --
    plus the bit-equality audit verdicts.
    """
    published = load_profile("brightkite", scale=scale, seed=seed)
    rows = []
    identical = True
    store_identical = True
    for fraction in fractions:
        batch_edges = max(1, int(round(fraction * published.n_edges)))
        rng = np.random.default_rng(seed + int(fraction * 1_000_000))

        store = pristine = None
        if with_store:
            store = WorldStore(published, n_samples=n_samples, seed=seed)
            store.warm()
            pristine = store.clone()
        recertifier = IncrementalRecertifier(
            published, k, epsilon, store=store
        )
        # Warm-up outside the timed region: allocator + import costs.
        DegreeUncertaintyCache(published).check_base(
            k, epsilon, knowledge=recertifier.cache.knowledge
        )

        inc_seconds = 0.0
        read_seconds = 0.0
        full_seconds = 0.0
        for i in range(n_batches):
            batch = _sample_batch(recertifier.graph, batch_edges, rng)

            started = time.perf_counter()
            outcome = recertifier.apply(batch)
            inc_seconds += time.perf_counter() - started
            read = with_store and (
                (i + 1) % read_every == 0 or i == n_batches - 1
            )
            if read:
                qpairs = list(outcome.graph.endpoint_pairs())[:50]
                started = time.perf_counter()
                rebased = store.base_view().reliability_of_pairs(qpairs)
                read_seconds += time.perf_counter() - started

            started = time.perf_counter()
            fresh_cache = DegreeUncertaintyCache(
                outcome.graph, knowledge=recertifier.cache.knowledge
            )
            full_report = fresh_cache.check_base(
                k, epsilon, knowledge=recertifier.cache.knowledge
            )
            if with_store:
                fresh_store = WorldStore(
                    outcome.graph, n_samples=n_samples, seed=seed
                )
                fresh_store.warm()
            full_seconds += time.perf_counter() - started

            identical = identical and (
                outcome.report.satisfied == full_report.satisfied
                and outcome.report.epsilon_achieved
                == full_report.epsilon_achieved
                and np.array_equal(
                    outcome.report.entropies, full_report.entropies
                )
                and np.array_equal(
                    outcome.report.obfuscated, full_report.obfuscated
                )
            )
            if read:
                view = pristine.derive(
                    graph_delta(published, outcome.graph)
                )
                store_identical = store_identical and np.array_equal(
                    rebased, view.reliability_of_pairs(qpairs),
                )

        inc_ms = 1000.0 * inc_seconds / n_batches
        full_ms = 1000.0 * full_seconds / n_batches
        if with_store:
            total_ms = inc_ms + 1000.0 * read_seconds / n_batches
            rows.append([100.0 * fraction, batch_edges, read_every, inc_ms,
                         total_ms, full_ms, full_ms / total_ms])
        else:
            rows.append([100.0 * fraction, batch_edges, inc_ms, full_ms,
                         full_ms / inc_ms])
    return {
        "rows": rows,
        "graph": (published.n_nodes, published.n_edges),
        "n_batches": n_batches,
        "n_samples": n_samples if with_store else 0,
        "with_store": with_store,
        "identical": identical,
        "store_identical": store_identical,
        "min_speedup": min(row[-1] for row in rows),
    }


def test_bench_incremental_update():
    """Full-scale update comparison (the recorded benchmark)."""
    import _harness

    headers = ["delta %|E|", "edges/batch", "incremental ms",
               "full re-run ms", "speedup"]
    store_headers = ["delta %|E|", "edges/batch", "read every", "rebase ms",
                     "rebase + read ms", "full re-run ms", "speedup"]
    end_to_end = run_update_comparison(with_store=True)
    sparse_reads = run_update_comparison(
        with_store=True, fractions=(0.005,), read_every=5
    )
    cert_only = run_update_comparison(with_store=False)
    n_nodes, n_edges = end_to_end["graph"]
    store_rows = end_to_end["rows"] + sparse_reads["rows"]
    store_identical = (
        end_to_end["store_identical"] and sparse_reads["store_identical"]
    )
    min_store_speedup = min(row[-1] for row in store_rows)

    header = (
        f"brightkite-like profile: n={n_nodes} |E|={n_edges}, "
        f"{end_to_end['n_batches']} chained batches per row "
        f"(k={UPD_K}, eps={UPD_EPSILON})\n"
        f"certificates bit-identical: {end_to_end['identical']} / "
        f"{cert_only['identical']}; rebased store == pristine derive: "
        f"{store_identical}\n"
    )
    table_e2e = _harness.format_table(store_headers, store_rows)
    table_cert = _harness.format_table(headers, cert_only["rows"])
    text = (
        header
        + "\ncertificate re-check (the default `chameleon update` path: "
        "degree-pmf row patch vs cache rebuild):\n" + table_cert
        + f"\n\nwith resident {end_to_end['n_samples']}-world store "
        "(CRN rebase vs fresh sample + warm). The rebase only marks "
        "flipped worlds stale; a store read relabels them once. "
        "'rebase + read' reads every 'read every' batches, and the "
        "speedup is taken over it:\n" + table_e2e
    )
    _harness.emit(
        "bench_incremental_update",
        text,
        data={
            "k": UPD_K,
            "epsilon": UPD_EPSILON,
            "graph": {"n_nodes": n_nodes, "n_edges": n_edges},
            "identical": bool(
                end_to_end["identical"]
                and sparse_reads["identical"]
                and cert_only["identical"]
                and store_identical
            ),
            "min_speedup": cert_only["min_speedup"],
            "min_speedup_with_store": min_store_speedup,
            "certificate_only": _harness.table_data(
                headers, cert_only["rows"]
            ),
            "end_to_end": _harness.table_data(store_headers, store_rows),
            "cases": (
                _harness.table_data(headers, cert_only["rows"])["cases"]
                + _harness.table_data(store_headers, store_rows)["cases"]
            ),
        },
    )
    assert end_to_end["identical"], "incremental certificate diverged"
    assert sparse_reads["identical"], "incremental certificate diverged"
    assert cert_only["identical"], "incremental certificate diverged"
    assert store_identical, "rebased store diverged"
    assert cert_only["min_speedup"] >= 10.0, (
        f"expected >= 10x re-certification speedup on <= 1% batches, got "
        f"{cert_only['min_speedup']:.2f}x"
    )
    assert min_store_speedup >= 1.5, (
        f"store-resident update (rebase + read) fell below the regression "
        f"floor: {min_store_speedup:.2f}x"
    )


if __name__ == "__main__":
    test_bench_incremental_update()
