"""Chunked world store == monolithic world store, bit for bit.

The chunked :class:`repro.reliability.WorldStore` partitions its world
axis into heap-array chunks, but the partitioning is pure storage
layout: every observable -- uniforms, masks, labels, pair counts,
pair-equality counts, every ``derive`` view query, and a full
``anonymize`` run -- must equal the single-chunk store bit for bit at
*any* chunk size and trial backend.  These tests enforce that contract
at chunk sizes {1, 7, N}, under budget-derived chunking, under the
``REPRO_WORLD_CHUNK`` override, under the ``_MAX_CHUNKS`` cap, for
antithetic draws, and across copy-on-write clones.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import anonymize
from repro.reliability import WorldStore, graph_delta, sample_vertex_pairs
from repro.ugraph import UncertainGraph

from tests.test_worldstore import graphs_and_deltas

N_SAMPLES = 16
CHUNKS = (1, 7, N_SAMPLES)


def monolithic(graph, n_samples=N_SAMPLES, seed=3, **kwargs):
    """The single-chunk reference store (env-proof: an explicit
    ``chunk_worlds`` beats ``REPRO_WORLD_CHUNK``, so the reference stays
    monolithic even on the CI leg that forces tiny chunks)."""
    return WorldStore(graph, n_samples=n_samples, seed=seed,
                      chunk_worlds=n_samples, **kwargs)


def assert_store_equal(mono, sharded, delta, pairs):
    """Every observable of ``sharded`` equals ``mono`` bit for bit."""
    np.testing.assert_array_equal(sharded.base_masks, mono.base_masks)
    np.testing.assert_array_equal(sharded.base_labels, mono.base_labels)
    np.testing.assert_array_equal(
        sharded.base_pair_counts, mono.base_pair_counts
    )
    np.testing.assert_array_equal(
        sharded.base_pair_equal_counts(pairs),
        mono.base_pair_equal_counts(pairs),
    )
    view_m, view_s = mono.derive(delta), sharded.derive(delta)
    np.testing.assert_array_equal(view_s.dirty_worlds, view_m.dirty_worlds)
    np.testing.assert_array_equal(view_s.dirty_labels, view_m.dirty_labels)
    np.testing.assert_array_equal(view_s.labels, view_m.labels)
    np.testing.assert_array_equal(view_s.pair_counts, view_m.pair_counts)
    np.testing.assert_array_equal(view_s.materialize(), view_m.materialize())
    np.testing.assert_array_equal(
        view_s.reliability_of_pairs(pairs), view_m.reliability_of_pairs(pairs)
    )


class TestChunkedBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(case=graphs_and_deltas(), seed=st.integers(0, 2**31 - 1))
    def test_all_chunk_sizes_match_monolithic(self, case, seed):
        graph, delta = case
        pairs = sample_vertex_pairs(graph.n_nodes, 30, seed=5)
        for chunk in CHUNKS:
            # Fresh reference per chunk size: an insertion delta grows
            # the store's columns, so a reused one would drift.
            mono = monolithic(graph, seed=seed)
            sharded = WorldStore(
                graph, n_samples=N_SAMPLES, seed=seed, chunk_worlds=chunk,
            )
            assert sharded.n_chunks == -(-N_SAMPLES // chunk)
            assert_store_equal(mono, sharded, delta, pairs)

    def test_budget_derived_chunking(self, small_profile_graph):
        graph = small_profile_graph
        # Budget that holds only a few worlds: forces multiple chunks.
        budget = 4 * (9 * graph.n_edges + 4 * graph.n_nodes)
        sharded = WorldStore(
            graph, n_samples=N_SAMPLES, seed=7, memory_budget=budget,
        )
        mono = monolithic(graph, seed=7)
        delta = [(int(graph.edge_src[0]), int(graph.edge_dst[0]),
                  float(graph.edge_probabilities[0]), 0.0)]
        pairs = sample_vertex_pairs(graph.n_nodes, 50, seed=2)
        assert sharded.n_chunks > 1
        assert sharded.memory_budget == budget
        assert_store_equal(mono, sharded, delta, pairs)

    def test_env_overrides_pick_layout(self, triangle, monkeypatch):
        monkeypatch.setenv("REPRO_WORLD_CHUNK", "3")
        sharded = WorldStore(triangle, n_samples=8, seed=1)
        mono = WorldStore(triangle, n_samples=8, seed=1, chunk_worlds=8)
        assert sharded.n_chunks == 3
        np.testing.assert_array_equal(sharded.base_labels, mono.base_labels)

    def test_bad_store_backend_rejected(self, triangle):
        """Heap arrays are the only block storage: the old
        ``store_backend=`` keyword is gone, for any value."""
        for backend in ("ram", "memmap"):
            with pytest.raises(TypeError, match="store_backend"):
                WorldStore(triangle, n_samples=4, store_backend=backend)

    def test_chunk_count_is_capped(self, triangle):
        """A tiny chunk on a huge store must not mean tens of thousands of
        chunks, each paying a loop step and a kernel call: the store
        raises the chunk size until at most ``_MAX_CHUNKS`` remain."""
        from repro.reliability.worldstore import _MAX_CHUNKS

        store = WorldStore(triangle, n_samples=100_000, chunk_worlds=1)
        assert store.n_chunks <= _MAX_CHUNKS
        # Small stores keep their requested fine-grained layout.
        small = WorldStore(triangle, n_samples=16, chunk_worlds=3)
        assert small.n_chunks == 6

    @pytest.mark.parametrize("n_samples", [2, 30, 128, 130, 300, 1000])
    def test_antithetic_chunk_count_is_capped(self, triangle, n_samples):
        """An antithetic store rounds an odd chunk up to even, never
        down, so it keeps both promises: at most ``_MAX_CHUNKS`` chunks,
        and every chunk holds whole antithetic pairs."""
        from repro.reliability.worldstore import _MAX_CHUNKS

        for chunk in sorted({1, 2, 3, 5, 7, n_samples - 1, n_samples}):
            store = WorldStore(triangle, n_samples=n_samples,
                               antithetic=True, chunk_worlds=max(1, chunk))
            assert store.n_chunks <= _MAX_CHUNKS, (n_samples, chunk)
            bounds = store.chunk_bounds
            assert bounds[0][0] == 0 and bounds[-1][1] == n_samples
            assert all((stop - start) % 2 == 0 for start, stop in bounds)

    def test_capped_store_is_exact(self, small_profile_graph, monkeypatch):
        """A store driven into the ``_MAX_CHUNKS`` cap by a tiny
        ``REPRO_WORLD_CHUNK`` stays bit-identical to the monolithic
        reference."""
        from repro.reliability.worldstore import _MAX_CHUNKS

        graph = small_profile_graph
        n_samples = 2 * _MAX_CHUNKS + 2  # chunk=1 would need 130 chunks
        monkeypatch.setenv("REPRO_WORLD_CHUNK", "1")
        store = WorldStore(graph, n_samples=n_samples, seed=11)
        mono = monolithic(graph, n_samples=n_samples, seed=11)
        delta = [(int(graph.edge_src[0]), int(graph.edge_dst[0]),
                  float(graph.edge_probabilities[0]), 0.0)]
        pairs = sample_vertex_pairs(graph.n_nodes, 30, seed=4)
        # The cap kicked in: the requested 1-world chunks were
        # coalesced until at most _MAX_CHUNKS remain.
        assert store.n_chunks <= _MAX_CHUNKS
        assert store.n_chunks < n_samples
        assert_store_equal(mono, store, delta, pairs)

    def test_antithetic_chunks_match_monolithic(self, small_profile_graph):
        graph = small_profile_graph
        mono = WorldStore(graph, n_samples=N_SAMPLES, seed=13,
                          antithetic=True, chunk_worlds=N_SAMPLES)
        # Odd chunk request: the store must round up to even so the
        # antithetic world pairs (2j, 2j+1) never straddle a chunk seam.
        sharded = WorldStore(graph, n_samples=N_SAMPLES, seed=13,
                             antithetic=True, chunk_worlds=7)
        assert all(
            (stop - start) % 2 == 0
            for start, stop in sharded.chunk_bounds[:-1]
        )
        np.testing.assert_array_equal(sharded.base_masks, mono.base_masks)
        np.testing.assert_array_equal(sharded.base_labels, mono.base_labels)


class TestCloneCopyOnWrite:
    def test_clone_shares_chunks_and_diverges_on_growth(
            self, small_profile_graph):
        """A clone shares chunk storage until a derive adds columns; the
        parent's state must be byte-identical before and after."""
        graph = small_profile_graph
        parent = WorldStore(graph, n_samples=N_SAMPLES, seed=21,
                            chunk_worlds=7)
        before_masks = np.array(parent.base_masks, copy=True)
        before_labels = np.array(parent.base_labels, copy=True)
        clone = parent.clone()
        # Storage stays the parent's until the clone writes.
        assert all(c is p for c, p in zip(clone._m_blocks, parent._m_blocks))
        assert all(c is p for c, p in zip(clone._l_blocks, parent._l_blocks))

        # Insert a brand-new edge through the clone: column growth.
        present = {tuple(p) for p in
                   zip(graph.edge_src.tolist(), graph.edge_dst.tolist())}
        u, v = next(
            (u, v) for u in range(graph.n_nodes)
            for v in range(u + 1, graph.n_nodes)
            if (u, v) not in present
        )
        view = clone.derive([(u, v, 0.0, 0.8)])
        assert view.materialize().shape[1] == graph.n_edges + 1

        np.testing.assert_array_equal(parent.base_masks, before_masks)
        np.testing.assert_array_equal(parent.base_labels, before_labels)

        # The clone's answer equals a fresh store fed the same ops.
        fresh = WorldStore(graph, n_samples=N_SAMPLES, seed=21,
                           chunk_worlds=7)
        fresh_view = fresh.derive([(u, v, 0.0, 0.8)])
        np.testing.assert_array_equal(view.labels, fresh_view.labels)


def _absent_pairs(graph, count):
    present = {tuple(p) for p in
               zip(graph.edge_src.tolist(), graph.edge_dst.tolist())}
    pairs = [(u, v) for u in range(graph.n_nodes)
             for v in range(u + 1, graph.n_nodes) if (u, v) not in present]
    return pairs[:count]


class TestCapacityCopyOnWrite:
    """Mask blocks carry spare columns, so growth within capacity writes
    no mask; a rebase must then copy, never patch, blocks another store
    or caller still reads."""

    @pytest.mark.parametrize("chunk", [None, 5])
    def test_parent_rebase_after_clone_leaves_clone_intact(
            self, small_profile_graph, chunk):
        graph = small_profile_graph
        first, second = _absent_pairs(graph, 2)
        parent = WorldStore(graph, n_samples=N_SAMPLES, seed=21,
                            chunk_worlds=chunk)
        parent.rebase([(*first, 0.0, 0.5)])  # re-allocates, spare kept
        parent.warm()
        assert parent._capacity > parent.n_columns
        clone = parent.clone()
        masks = np.array(clone.base_masks, copy=True)
        labels = np.array(clone.base_labels, copy=True)
        reference = np.array(clone.uniforms, copy=True)

        # Growth that fits the spare capacity, plus a base column the
        # clone reads flipping in every world where it was absent.
        u, v = int(graph.edge_src[0]), int(graph.edge_dst[0])
        p = float(graph.edge_probabilities[0])
        stats = parent.rebase([(*second, 0.0, 0.6), (u, v, p, 1.0)])
        assert stats["n_new_columns"] == 1 and stats["n_dirty_worlds"] > 0
        assert parent.base_masks[:, 0].all()

        np.testing.assert_array_equal(clone.base_masks, masks)
        np.testing.assert_array_equal(clone.base_labels, labels)
        np.testing.assert_array_equal(clone.uniforms, reference)
        # The clone grows its own columns without seeing the parent's.
        view = clone.derive([(*second, 0.0, 0.6)])
        fresh = WorldStore(graph, n_samples=N_SAMPLES, seed=21,
                           chunk_worlds=chunk)
        fresh.rebase([(*first, 0.0, 0.5)])
        np.testing.assert_array_equal(
            view.labels, fresh.derive([(*second, 0.0, 0.6)]).labels
        )

    def test_rebase_within_capacity_keeps_handed_out_masks(
            self, small_profile_graph):
        graph = small_profile_graph
        first, second = _absent_pairs(graph, 2)
        store = WorldStore(graph, n_samples=N_SAMPLES, seed=8)
        store.rebase([(*first, 0.0, 0.5)])
        handed_out = store.base_masks
        before = np.array(handed_out, copy=True)
        u, v = int(graph.edge_src[0]), int(graph.edge_dst[0])
        p = float(graph.edge_probabilities[0])
        store.rebase([(*second, 0.0, 0.6), (u, v, p, 1.0)])
        np.testing.assert_array_equal(handed_out, before)
        assert store.base_masks[:, 0].all()


class TestGraphDeltaRoundtrip:
    def test_anonymize_result_chunk_invariant(self, small_profile_graph,
                                              monkeypatch):
        """Full AnonymizationResult equality: monolithic store vs a
        one-world-per-chunk store."""
        graph = small_profile_graph
        kwargs = dict(method="rs", seed=17, n_trials=1,
                      relevance_samples=40, sigma_tolerance=0.1,
                      utility_samples=10, world_memory_budget=None)
        monkeypatch.delenv("REPRO_WORLD_CHUNK", raising=False)
        mono = anonymize(graph, 4, 0.3, **kwargs)
        monkeypatch.setenv("REPRO_WORLD_CHUNK", "1")
        sharded = anonymize(graph, 4, 0.3, **kwargs)

        assert sharded.success == mono.success
        assert sharded.sigma == mono.sigma
        assert sharded.epsilon_achieved == mono.epsilon_achieved
        np.testing.assert_array_equal(
            sharded.graph.edge_probabilities, mono.graph.edge_probabilities
        )

    def test_graph_delta_on_chunked_store_edges(self, triangle):
        other = UncertainGraph(
            3, [(0, 1, 0.9), (0, 2, float(triangle.probability(0, 2)))]
        )
        delta = graph_delta(triangle, other)
        changed = {(u, v) for u, v, _, _ in delta}
        assert (0, 1) in changed
