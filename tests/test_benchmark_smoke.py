"""Tier-1 smoke runs of the perf benchmarks (tiny scale).

Executes the comparison routines of
``benchmarks/bench_connectivity_backends.py`` and
``benchmarks/bench_obfuscation_check.py`` at sizes where timing is
meaningless but every labeler / checker code path -- including the
incremental delta cache -- is exercised on each test run.  Marked
``benchmark_smoke`` so they can be selected or skipped with ``-m``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import repro

BENCHMARKS_DIR = str(Path(__file__).resolve().parent.parent / "benchmarks")
if BENCHMARKS_DIR not in sys.path:
    sys.path.insert(0, BENCHMARKS_DIR)

import bench_ablation_perturbation as bench_abl_pert  # noqa: E402
import bench_ablation_selection as bench_abl_sel  # noqa: E402
import bench_connectivity_backends as bench  # noqa: E402
import bench_incremental_update as bench_upd  # noqa: E402
import bench_obfuscation_check as bench_obf  # noqa: E402
import bench_world_store as bench_ws  # noqa: E402


@pytest.mark.benchmark_smoke
def test_backend_comparison_smoke():
    result = bench.run_backend_comparison(n_samples=12, scale=0.15, repeats=1)
    assert result["n_samples"] == 12
    labelers = [row[0] for row in result["rows"]]
    assert labelers == ["per-world", "batched"]
    assert all(row[4] for row in result["rows"]), "labeler partitions diverged"
    assert all(row[1] >= 0.0 for row in result["rows"])


@pytest.mark.benchmark_smoke
def test_obfuscation_check_comparison_smoke():
    """Both checker paths at tiny scale; reports must stay bit-identical."""
    result = bench_obf.run_check_comparison(
        scale=0.15, n_deltas=4, delta_edges=6
    )
    assert result["n_deltas"] == 4
    assert result["identical"], "incremental and full reports diverged"
    cases = [(row[0], row[1]) for row in result["rows"]]
    assert cases == [
        ("6-entry", "full"), ("6-entry", "incremental"),
        ("genobf", "full"), ("genobf", "incremental"),
    ]
    assert all(row[4] >= 0.0 for row in result["rows"])


@pytest.mark.benchmark_smoke
def test_incremental_update_comparison_smoke():
    """The streaming update pipeline at tiny scale: chained batches,
    certificate and store equivalence audits -- speedup not asserted
    (timing is meaningless here)."""
    result = bench_upd.run_update_comparison(
        scale=0.15, n_batches=2, fractions=(0.01, 0.05),
        n_samples=16,
    )
    assert result["identical"], "incremental certificate diverged"
    assert result["store_identical"], "rebased store diverged"
    assert len(result["rows"]) == 2
    assert all(row[2] >= 0.0 and row[3] >= 0.0 for row in result["rows"])
    # rebase + read includes the rebase; the speedup is taken over it.
    for row in result["rows"]:
        assert row[2] == 1 and row[4] >= row[3] > 0.0
        assert row[6] == pytest.approx(row[5] / row[4])

    sparse = bench_upd.run_update_comparison(
        scale=0.15, n_batches=3, fractions=(0.05,), n_samples=16,
        read_every=2,
    )
    assert sparse["identical"] and sparse["store_identical"]
    assert [row[2] for row in sparse["rows"]] == [2]


@pytest.mark.benchmark_smoke
def test_world_store_comparison_smoke():
    """Both evaluation strategies at tiny scale; bit-identity must hold."""
    result = bench_ws.run_store_comparison(
        scale=0.15, n_samples=16, n_deltas=3, delta_edges=6, n_pairs=200
    )
    assert result["n_deltas"] == 3
    assert result["identical"], "store and fresh-oracle queries diverged"
    strategies = [row[0] for row in result["rows"]]
    assert strategies == ["fresh", "store"]
    assert all(row[1] >= 0.0 for row in result["rows"])
    assert 0.0 <= result["dirty_fraction"] <= 1.0


@pytest.mark.benchmark_smoke
def test_world_store_engine_smoke():
    """Public reliability_discrepancy entry point under both engines."""
    result = bench_ws.run_engine_comparison(
        scale=0.15, n_samples=16, n_pairs=200, repeats=1
    )
    engines = [row[0] for row in result["rows"]]
    assert engines == ["fresh", "store"]
    # Different candidate streams: agreement is statistical, both finite.
    assert all(np.isfinite(row[2]) for row in result["rows"])


@pytest.mark.benchmark_smoke
def test_world_store_pairwise_smoke():
    """All-pairs accumulator vs the broadcast oracle at tiny scale."""
    result = bench_ws.run_pairwise_comparison(
        scale=0.15, n_samples=16, n_deltas=2, delta_edges=6
    )
    assert result["identical"], "accumulator and broadcast oracle diverged"
    cases = [(row[0], row[1]) for row in result["rows"]]
    assert cases == [
        ("profile", "broadcast"), ("profile", "accumulator"),
        ("equal-size", "broadcast"), ("equal-size", "accumulator"),
    ]
    assert all(row[2] >= 0.0 and row[4] for row in result["rows"])


@pytest.mark.benchmark_smoke
def test_ablation_perturbation_smoke():
    """The perturbation ablation end to end on a tiny graph."""
    graph = repro.load_dataset("ppi", scale=0.1, seed=3)
    rows = bench_abl_pert.build_rows(
        graph, sigmas=(0.1,), relevance_samples=20
    )
    assert len(rows) == 1 and len(rows[0]) == 5
    assert all(np.isfinite(value) for value in rows[0])


@pytest.mark.benchmark_smoke
def test_ablation_selection_smoke():
    """The selection ablation end to end on a tiny graph."""
    graph = repro.load_dataset("brightkite", scale=0.1, seed=3)
    rows = bench_abl_sel.build_rows(
        graph, sigmas=(0.1,), relevance_samples=20, n_samples=16,
        n_pairs=200,
    )
    assert len(rows) == 1 and len(rows[0]) == 4
    assert all(np.isfinite(value) for value in rows[0])


@pytest.mark.benchmark_smoke
def test_canonical_partition_invariant_to_renaming():
    import numpy as np

    labels = np.array([[0, 0, 1, 2], [1, 0, 0, 1]], dtype=np.int32)
    renamed = np.array([[2, 2, 0, 1], [0, 1, 1, 0]], dtype=np.int32)
    np.testing.assert_array_equal(
        bench.canonical_partition(labels), bench.canonical_partition(renamed)
    )


@pytest.mark.benchmark_smoke
def test_sweep_cache_recomputes_unreadable_entry(tmp_path, monkeypatch):
    """A corrupt sweep-cache entry is a miss: recomputed and rewritten."""
    import pickle

    import _harness

    tiny = repro.load_profile("ppi", scale=0.1, seed=3)
    monkeypatch.setattr(_harness, "_CACHE_DIR", tmp_path)
    monkeypatch.setattr(_harness, "dataset", lambda name: tiny)
    monkeypatch.setattr(_harness, "RUN_KWARGS", dict(
        n_trials=1, relevance_samples=20, sigma_tolerance=0.1,
        size_multiplier=2.0,
    ))
    path = _harness._cache_path("anon", dataset="ppi", method="rs", k=3)
    path.write_bytes(b"\x04 not a pickle")

    cell = _harness.anonymized("ppi", "rs", 3)
    assert cell["success"] and cell["graph"].n_nodes == tiny.n_nodes
    with path.open("rb") as fh:
        assert pickle.load(fh)["sigma"] == cell["sigma"]
    assert _harness.anonymized("ppi", "rs", 3)["seconds"] == cell["seconds"]


def test_sweep_cache_keyed_by_source_not_version(monkeypatch):
    import _harness

    key = _harness._cache_path("anon", dataset="dblp", method="rs", k=3)
    monkeypatch.setattr(repro, "__version__", "0.0.0-other")
    assert _harness._cache_path("anon", dataset="dblp", method="rs",
                                k=3) == key
    monkeypatch.setattr(_harness, "source_digest", lambda: "0" * 64)
    assert _harness._cache_path("anon", dataset="dblp", method="rs",
                                k=3) != key
