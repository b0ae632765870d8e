"""Sharded world store == monolithic world store, bit for bit (PR 9).

The chunked :class:`repro.reliability.WorldStore` partitions its world
axis into memmap- or RAM-backed chunks, but the partitioning is pure
storage layout: every observable -- uniforms, masks, labels, pair
counts, pair-equality counts, every ``derive`` view query, and a full
``anonymize`` run -- must equal the single-chunk in-RAM store bit for
bit at *any* chunk size, store backend, and trial backend.  These tests
enforce that contract at chunk sizes {1, 7, N}, under budget-derived
chunking, under the ``REPRO_WORLD_*`` env overrides, for antithetic
draws, for masks-only stores, and across copy-on-write clones.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import anonymize
from repro.exceptions import EstimationError
from repro.reliability import WorldStore, graph_delta, sample_vertex_pairs
from repro.ugraph import UncertainGraph

from tests.test_worldstore import graphs_and_deltas

N_SAMPLES = 16
CHUNKS = (1, 7, N_SAMPLES)
BACKENDS = ("ram", "memmap")


def monolithic(graph, n_samples=N_SAMPLES, seed=3, **kwargs):
    """The single-chunk in-RAM reference store (env-proof: explicit
    arguments beat ``REPRO_WORLD_*``, so the reference stays monolithic
    even on the CI leg that forces tiny chunks)."""
    return WorldStore(graph, n_samples=n_samples, seed=seed,
                      chunk_worlds=n_samples, store_backend="ram", **kwargs)


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
    @pytest.mark.parametrize("store_backend", BACKENDS)
    def test_all_chunk_sizes_match_monolithic(self, case, seed,
                                              store_backend):
        graph, delta = case
        pairs = sample_vertex_pairs(graph.n_nodes, 30, seed=5)
        for chunk in CHUNKS:
            # Fresh reference per chunk size: an insertion delta grows
            # the store's columns, so a reused one would drift.
            mono = monolithic(graph, seed=seed)
            sharded = WorldStore(
                graph, n_samples=N_SAMPLES, seed=seed, chunk_worlds=chunk,
                store_backend=store_backend,
            )
            try:
                assert sharded.n_chunks == -(-N_SAMPLES // chunk)
                assert_store_equal(mono, sharded, delta, pairs)
            finally:
                sharded.close()

    @pytest.mark.parametrize("store_backend", BACKENDS)
    def test_budget_derived_chunking(self, small_profile_graph,
                                     store_backend):
        graph = small_profile_graph
        # Budget that holds only a few worlds: forces multiple chunks.
        budget = 4 * (9 * graph.n_edges + 4 * graph.n_nodes)
        sharded = WorldStore(
            graph, n_samples=N_SAMPLES, seed=7, memory_budget=budget,
            store_backend=store_backend,
        )
        mono = monolithic(graph, seed=7)
        delta = [(int(graph.edge_src[0]), int(graph.edge_dst[0]),
                  float(graph.edge_probabilities[0]), 0.0)]
        pairs = sample_vertex_pairs(graph.n_nodes, 50, seed=2)
        try:
            assert sharded.n_chunks > 1
            assert sharded.memory_budget == budget
            assert_store_equal(mono, sharded, delta, pairs)
        finally:
            sharded.close()

    def test_env_overrides_pick_layout(self, triangle, monkeypatch,
                                       tmp_path):
        monkeypatch.setenv("REPRO_WORLD_BACKEND", "memmap")
        monkeypatch.setenv("REPRO_WORLD_CHUNK", "3")
        monkeypatch.setenv("REPRO_SEGMENT_DIR", str(tmp_path))
        sharded = WorldStore(triangle, n_samples=8, seed=1)
        mono = WorldStore(triangle, n_samples=8, seed=1,
                          chunk_worlds=8, store_backend="ram")
        try:
            assert sharded.store_backend == "memmap"
            assert sharded.n_chunks == 3
            np.testing.assert_array_equal(
                sharded.base_labels, mono.base_labels
            )
            # Allocation is lazy: segments exist only now, in the
            # configured directory, with the kind-encoding suffix.
            assert sharded.segment_names(), "memmap store owns no segments"
            assert all(n.endswith(".mm") for n in sharded.segment_names())
            assert list(tmp_path.glob("*.mm"))
        finally:
            sharded.close()

    def test_bad_store_backend_rejected(self, triangle):
        with pytest.raises(EstimationError, match="store backend"):
            WorldStore(triangle, n_samples=4, store_backend="tape")

    def test_chunk_count_is_fd_bounded(self, triangle):
        """A tiny chunk on a huge store must not mean tens of thousands of
        chunks: each memmap chunk block pins an fd, so the store raises the
        chunk size until at most ``_MAX_CHUNKS`` chunks remain."""
        from repro.reliability.worldstore import _MAX_CHUNKS

        store = WorldStore(triangle, n_samples=100_000, chunk_worlds=1,
                           store_backend="ram")
        assert store.n_chunks <= _MAX_CHUNKS
        # Small stores keep their requested fine-grained layout.
        small = WorldStore(triangle, n_samples=16, chunk_worlds=3,
                           store_backend="ram")
        assert small.n_chunks == 6

    def test_fd_capped_memmap_store_is_exact_and_leak_free(
            self, small_profile_graph, monkeypatch, tmp_path):
        """A memmap store driven into the ``_MAX_CHUNKS`` cap by a tiny
        ``REPRO_WORLD_CHUNK`` stays bit-identical to the monolithic
        reference and releases every fd and segment file on close."""
        import gc
        import os

        from repro.reliability.worldstore import _MAX_CHUNKS

        graph = small_profile_graph
        n_samples = 2 * _MAX_CHUNKS + 2  # chunk=1 would need 130 chunks
        monkeypatch.setenv("REPRO_WORLD_BACKEND", "memmap")
        monkeypatch.setenv("REPRO_WORLD_CHUNK", "1")
        monkeypatch.setenv("REPRO_SEGMENT_DIR", str(tmp_path))

        fds_before = len(os.listdir("/proc/self/fd"))
        store = WorldStore(graph, n_samples=n_samples, seed=11)
        mono = monolithic(graph, n_samples=n_samples, seed=11)
        delta = [(int(graph.edge_src[0]), int(graph.edge_dst[0]),
                  float(graph.edge_probabilities[0]), 0.0)]
        pairs = sample_vertex_pairs(graph.n_nodes, 30, seed=4)
        try:
            # The cap kicked in: the requested 1-world chunks were
            # coalesced until at most _MAX_CHUNKS remain.
            assert store.n_chunks <= _MAX_CHUNKS
            assert store.n_chunks < n_samples
            assert store.store_backend == "memmap"
            assert_store_equal(mono, store, delta, pairs)
            assert store.segment_names(), "memmap store owns no segments"
        finally:
            store.close()
        # Zero segment leaks: close() disowns and unlinks every backing
        # file immediately (live mappings stay readable until the last
        # numpy view dies, so the blocks above remain valid).
        assert store.segment_names() == ()
        assert list(tmp_path.iterdir()) == []
        # Zero fd leaks: each chunk block pins one mmap fd only as long
        # as the store (and hence its views) is alive.
        del store
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) <= fds_before

    def test_antithetic_chunks_match_monolithic(self, small_profile_graph):
        graph = small_profile_graph
        mono = WorldStore(graph, n_samples=N_SAMPLES, seed=13,
                          antithetic=True, chunk_worlds=N_SAMPLES,
                          store_backend="ram")
        # Odd chunk request: the store must round down to even so the
        # antithetic world pairs (2j, 2j+1) never straddle a chunk seam.
        sharded = WorldStore(graph, n_samples=N_SAMPLES, seed=13,
                             antithetic=True, chunk_worlds=7,
                             store_backend="memmap")
        try:
            assert all(
                (stop - start) % 2 == 0
                for start, stop in sharded.chunk_bounds[:-1]
            )
            np.testing.assert_array_equal(
                sharded.base_masks, mono.base_masks
            )
            np.testing.assert_array_equal(
                sharded.base_labels, mono.base_labels
            )
        finally:
            sharded.close()

    def test_masks_only_store_chunks(self, triangle):
        rng = np.random.default_rng(0)
        masks = rng.random((12, triangle.n_edges)) < 0.5
        mono = WorldStore.from_masks(triangle, masks)
        sharded = WorldStore.from_masks(triangle, masks)
        sharded._chunks = ((0, 5), (5, 12))
        sharded._m_blocks = [masks[0:5], masks[5:12]]
        sharded._l_blocks = None
        delta = [(0, 1, float(triangle.probability(0, 1)), 1.0)]
        pairs = np.array([[0, 1], [0, 2], [1, 2]])
        assert_store_equal(mono, sharded, delta, pairs)


class TestCloneCopyOnWrite:
    def test_clone_shares_chunks_and_diverges_on_growth(
            self, small_profile_graph):
        """A clone shares chunk storage until a derive adds columns; the
        parent's state must be byte-identical before and after."""
        graph = small_profile_graph
        parent = WorldStore(graph, n_samples=N_SAMPLES, seed=21,
                            chunk_worlds=7, store_backend="memmap")
        try:
            before_masks = np.array(parent.base_masks, copy=True)
            before_labels = np.array(parent.base_labels, copy=True)
            clone = parent.clone()
            assert clone.segment_names() == ()  # storage stays parent's

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
                               chunk_worlds=7, store_backend="memmap")
            fresh_view = fresh.derive([(u, v, 0.0, 0.8)])
            np.testing.assert_array_equal(view.labels, fresh_view.labels)
            fresh.close()
        finally:
            parent.close()

    def test_clone_survives_parent_close(self, triangle, monkeypatch,
                                         tmp_path):
        """POSIX unlink semantics: releasing the parent's file segments
        must not invalidate a live clone's views."""
        monkeypatch.setenv("REPRO_SEGMENT_DIR", str(tmp_path))
        parent = WorldStore(triangle, n_samples=8, seed=2, chunk_worlds=3,
                            store_backend="memmap")
        expected = np.array(parent.base_labels, copy=True)
        clone = parent.clone()
        parent.close()
        assert not list(tmp_path.glob("*.mm"))  # files unlinked eagerly
        np.testing.assert_array_equal(clone.base_labels, expected)


class TestTrialBackendIdentity:
    FAST = dict(
        method="rsme", seed=31, n_trials=2, relevance_samples=40,
        sigma_tolerance=0.1, utility_samples=12,
    )

    def _run(self, graph, **overrides):
        return anonymize(graph, 4, 0.3, **{**self.FAST, **overrides})

    @pytest.mark.parametrize("trial_backend", ["serial", "process"])
    def test_backends_identical_under_chunked_memmap_store(
            self, small_profile_graph, monkeypatch, tmp_path, trial_backend):
        graph = small_profile_graph
        reference = self._run(graph, trial_backend="serial")

        monkeypatch.setenv("REPRO_WORLD_BACKEND", "memmap")
        monkeypatch.setenv("REPRO_WORLD_CHUNK", "5")
        monkeypatch.setenv("REPRO_SEGMENT_DIR", str(tmp_path))
        result = self._run(
            graph, trial_backend=trial_backend,
            n_workers=2 if trial_backend != "serial" else None,
        )

        assert result.success == reference.success
        assert result.sigma == reference.sigma
        assert result.n_genobf_calls == reference.n_genobf_calls
        np.testing.assert_array_equal(
            result.graph.edge_src, reference.graph.edge_src
        )
        np.testing.assert_array_equal(
            result.graph.edge_dst, reference.graph.edge_dst
        )
        np.testing.assert_array_equal(
            result.graph.edge_probabilities,
            reference.graph.edge_probabilities,
        )
        assert not list(tmp_path.glob("*.mm"))  # run left no segments


class TestGraphDeltaRoundtrip:
    def test_anonymize_result_chunk_invariant(self, small_profile_graph):
        """Full AnonymizationResult equality: monolithic RAM store vs a
        one-world-per-chunk memmap store."""
        graph = small_profile_graph
        kwargs = dict(method="rs", seed=17, n_trials=1,
                      relevance_samples=40, sigma_tolerance=0.1,
                      utility_samples=10, world_memory_budget=None)
        mono = anonymize(graph, 4, 0.3, **kwargs)

        import os
        old_chunk = os.environ.get("REPRO_WORLD_CHUNK")
        old_backend = os.environ.get("REPRO_WORLD_BACKEND")
        os.environ["REPRO_WORLD_CHUNK"] = "1"
        os.environ["REPRO_WORLD_BACKEND"] = "memmap"
        try:
            sharded = anonymize(graph, 4, 0.3, **kwargs)
        finally:
            for key, old in (("REPRO_WORLD_CHUNK", old_chunk),
                             ("REPRO_WORLD_BACKEND", old_backend)):
                if old is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = old

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
