"""Property tests for the persistent CRN world store (PR 4).

The contract under test is **bit-identity**: every query answered by a
delta-derived :class:`DerivedWorlds` view (labels, pair counts, pair
reliabilities, the pairwise matrix) equals a fresh per-world relabeling
of the view's materialized masks bit for bit, across edge tweaks,
p -> 0 removals, brand-new edge insertions, and the empty delta.  When
the candidate shares the base graph's edge universe, the store path is
additionally bit-identical to the base view of a fresh store of the
candidate built with the same CRN seed (``tests/discrepancy_oracle.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ChameleonConfig, anonymize
from repro.exceptions import EstimationError
from repro.metrics import compare_graphs
from repro.reliability import (
    DerivedWorlds,
    WorldStore,
    graph_delta,
    pair_counts_from_labels,
    reliability_discrepancy,
    sample_vertex_pairs,
)
from repro.reliability import worldstore
from repro.reliability.worldstore import graph_delta_rows
from repro.ugraph import UncertainGraph, WorldSampler, overlay, sample_edge_masks
from tests.connectivity_oracle import oracle_component_labels
from tests.discrepancy_oracle import two_estimator_discrepancy
from tests.growth_oracle import growth_uniform_column
from tests.search_oracle import oracle_anonymize


def oracle_labels(store: WorldStore, view: DerivedWorlds) -> np.ndarray:
    """Fresh per-world relabeling of the view's materialized mask matrix."""
    return oracle_component_labels(
        store.graph.n_nodes, store._src, store._dst, view.materialize()
    )


def broadcast_pairwise_acc(labels: np.ndarray, n: int) -> np.ndarray:
    """Int64 ``n x n`` count of worlds in which each vertex pair shares a
    label, by a per-world broadcast compare: the oracle for
    ``worldstore._pairwise_equal_acc``."""
    acc = np.zeros((n, n), dtype=np.int64)
    for start in range(0, labels.shape[0], 37):
        chunk = labels[start:start + 37]
        acc += (chunk[:, :, None] == chunk[:, None, :]).sum(axis=0)
    return acc


def oracle_pairwise(labels: np.ndarray, n: int) -> np.ndarray:
    result = broadcast_pairwise_acc(labels, n) / labels.shape[0]
    np.fill_diagonal(result, 1.0)
    return result


def canonical_labels(groups: np.ndarray) -> np.ndarray:
    """Renumber each row's group ids in first-appearance order."""
    labels = np.empty(groups.shape, dtype=np.int32)
    for row, group in enumerate(groups):
        __, first, inverse = np.unique(
            group, return_index=True, return_inverse=True
        )
        rank = np.empty(first.size, dtype=np.int32)
        rank[np.argsort(first)] = np.arange(first.size, dtype=np.int32)
        labels[row] = rank[inverse]
    return labels


@st.composite
def label_matrices(draw):
    """Canonical ``(N, n)`` label matrices: random partitions, all
    singletons, one component, and equal-size partitions on both sides
    of the accumulator's ``ceil(n / PAIRWISE_DENSE_DIVISOR)`` dense/sparse
    split (``n`` reaches past ``4 * PAIRWISE_DENSE_DIVISOR``, so the
    split also falls above its floor of 2)."""
    n = draw(st.integers(
        min_value=1, max_value=5 * worldstore.PAIRWISE_DENSE_DIVISOR
    ))
    n_worlds = draw(st.integers(min_value=0, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(
        ["random", "singletons", "one-component", "equal-size"]
    ))
    if kind == "random":
        groups = rng.integers(0, draw(st.integers(1, n)), size=(n_worlds, n))
    elif kind == "singletons":
        groups = np.tile(np.arange(n), (n_worlds, 1))
    elif kind == "one-component":
        groups = np.zeros((n_worlds, n), dtype=np.int64)
    else:
        tau = max(2, -(-n // worldstore.PAIRWISE_DENSE_DIVISOR))
        size = draw(st.sampled_from([max(1, tau - 1), tau, tau + 1]))
        groups = np.array(
            [rng.permutation(n) // size for __ in range(n_worlds)],
            dtype=np.int64,
        )
    return canonical_labels(groups.reshape(n_worlds, n)), n


@st.composite
def graphs_and_deltas(draw):
    """A random graph plus a delta mixing tweaks, removals, insertions."""
    n = draw(st.integers(min_value=3, max_value=14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, min_size=1,
                 max_size=len(pairs))
    )
    probs = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=len(chosen), max_size=len(chosen),
        )
    )
    graph = UncertainGraph(n, [(u, v, p) for (u, v), p in zip(chosen, probs)])

    delta = []
    edge_set = set(chosen)
    touched = draw(
        st.lists(st.sampled_from(chosen), unique=True, max_size=len(chosen))
    )
    for u, v in touched:
        kind = draw(st.sampled_from(["tweak", "remove"]))
        p_new = (
            0.0 if kind == "remove"
            else draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        )
        delta.append((u, v, graph.probability(u, v), p_new))
    fresh_pairs = [p for p in pairs if p not in edge_set]
    inserted = draw(
        st.lists(st.sampled_from(fresh_pairs), unique=True, max_size=4)
        if fresh_pairs else st.just([])
    )
    for u, v in inserted:
        p_new = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        delta.append((u, v, 0.0, p_new))
    return graph, delta


class TestPairwiseAccumulator:
    """The size-split accumulator equals the broadcast compare exactly,
    whatever the component sizes and world-block size."""

    @settings(max_examples=150, deadline=None)
    @given(case=label_matrices())
    def test_matches_broadcast_oracle(self, case):
        labels, n = case
        expected = broadcast_pairwise_acc(labels, n)
        acc = worldstore._pairwise_equal_acc(labels, n)
        assert acc.dtype == np.int64
        np.testing.assert_array_equal(acc, expected)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(worldstore, "PAIRWISE_BLOCK_ELEMENTS", 1)
            np.testing.assert_array_equal(
                worldstore._pairwise_equal_acc(labels, n), expected
            )

    def test_no_vertices(self):
        acc = worldstore._pairwise_equal_acc(np.empty((3, 0), np.int32), 0)
        assert acc.shape == (0, 0)

    def test_profile_worlds(self, small_profile_graph):
        labels = WorldStore(
            small_profile_graph, n_samples=60, seed=4
        ).base_labels
        n = small_profile_graph.n_nodes
        np.testing.assert_array_equal(
            worldstore._pairwise_equal_acc(labels, n),
            broadcast_pairwise_acc(labels, n),
        )


class TestBaseReproduction:
    def test_base_masks_match_sampler(self, small_profile_graph):
        store = WorldStore(small_profile_graph, n_samples=64, seed=11)
        np.testing.assert_array_equal(
            store.base_masks, sample_edge_masks(small_profile_graph, 64, seed=11)
        )

    def test_base_masks_match_sampler_antithetic(self, small_profile_graph):
        store = WorldStore(
            small_profile_graph, n_samples=64, seed=11, antithetic=True
        )
        np.testing.assert_array_equal(
            store.base_masks,
            sample_edge_masks(small_profile_graph, 64, seed=11, antithetic=True),
        )

    def test_estimator_is_store_backed(self, small_profile_graph):
        """The base view is a clean view of its store: no dirty rows,
        the store's masks and labels."""
        store = WorldStore(small_profile_graph, n_samples=48, seed=5)
        est = store.base_view()
        assert est.store is store and est.n_samples == 48
        assert est.n_dirty == 0
        np.testing.assert_array_equal(est.materialize(), store.base_masks)
        np.testing.assert_array_equal(est.labels, store.base_labels)

    def test_antithetic_requires_even(self, triangle):
        with pytest.raises(EstimationError, match="even"):
            WorldStore(triangle, n_samples=5, antithetic=True)


def mostly_dirty_case(n_dirty: int, n_samples: int = 24, seed: int = 5):
    """Two paths and a fresh pair joining them whose ``p_new`` flips
    exactly ``n_dirty`` of the ``n_samples`` worlds a store seeded with
    ``seed`` draws (every flip merges two components)."""
    graph = UncertainGraph(
        6, [(0, 1, 0.5), (1, 2, 0.4), (3, 4, 0.6), (4, 5, 0.3)]
    )
    store = WorldStore(graph, n_samples=n_samples, seed=seed)
    uniforms = np.sort(
        growth_uniform_column(store._growth_entropy, 2, 3, n_samples)
    )
    p_new = 1.0 if n_dirty == n_samples else float(
        uniforms[n_dirty - 1:n_dirty + 1].mean()
    )
    assert int((uniforms < p_new).sum()) == n_dirty
    return graph, [(2, 3, 0.0, p_new), (0, 1, 0.5, 0.5)]


class TestPairKeyedGrowthDraws:
    """A growth call's columns are drawn as one batch; each must equal
    the per-pair ``default_rng((entropy, u, v))`` draw bit for bit."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        entropy=st.one_of(
            st.integers(0, 2**32 - 1), st.integers(2**32, 2**63 - 1)
        ),
        pairs=st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
            min_size=1, max_size=6,
        ),
        n_samples=st.integers(1, 41),
        antithetic=st.booleans(),
    )
    @example(entropy=0, pairs=[(0, 0)], n_samples=1, antithetic=False)
    @example(entropy=2**32 - 1, pairs=[(0, 5), (5, 0)], n_samples=2,
             antithetic=True)
    @example(entropy=2**63 - 1, pairs=[(2**32 - 1, 0)], n_samples=9,
             antithetic=False)
    def test_batch_matches_per_pair_generator(
        self, entropy, pairs, n_samples, antithetic
    ):
        if antithetic and n_samples % 2:
            n_samples += 1  # the store only pairs an even world count
        src = np.array([u for u, __ in pairs], dtype=np.int64)
        dst = np.array([v for __, v in pairs], dtype=np.int64)
        got = worldstore._pair_keyed_uniforms(
            entropy, src, dst, n_samples, antithetic
        )
        assert got.shape == (len(pairs), n_samples)
        for row, (u, v) in zip(got, pairs):
            np.testing.assert_array_equal(
                row, growth_uniform_column(entropy, u, v, n_samples,
                                           antithetic)
            )

    def test_vertex_ids_beyond_one_word_raise(self):
        with pytest.raises(EstimationError, match="2\\*\\*32"):
            worldstore._pair_keyed_uniforms(
                7, np.array([2**32]), np.array([1]), 4, False
            )

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**31 - 1),
        sizes=st.lists(st.integers(1, 5), min_size=1, max_size=3),
        n_samples=st.sampled_from([5, 6, 13]),
        chunk=st.sampled_from([None, 1, 2, 4]),
        antithetic=st.booleans(),
    )
    def test_store_columns_match_oracle(
        self, seed, sizes, n_samples, chunk, antithetic
    ):
        """Chained growth calls of 1..5 columns, inside and beyond the
        blocks' spare capacity, on chunked and antithetic stores: every
        grown uniform column is the oracle's draw for its pair."""
        if antithetic and n_samples % 2:
            n_samples += 1
        graph = UncertainGraph(9, [(0, 1, 0.5), (1, 2, 0.4), (3, 4, 0.7)])
        store = WorldStore(graph, n_samples=n_samples, seed=seed,
                           antithetic=antithetic, chunk_worlds=chunk)
        store.warm()
        fresh = [(u, v) for u in range(9) for v in range(u + 1, 9)
                 if not graph.has_edge(u, v)]
        order = np.random.default_rng(seed).permutation(len(fresh))
        grown = [fresh[i] for i in order[:sum(sizes)]]
        start = 0
        for size in sizes:
            batch = grown[start:start + size]
            start += size
            store.derive([(u, v, 0.0, 0.5) for u, v in batch])
        uniforms = store.uniforms
        masks = store.base_masks
        assert uniforms.shape == masks.shape == (
            n_samples, graph.n_edges + len(grown)
        )
        assert not masks[:, graph.n_edges:].any()
        for j, (u, v) in enumerate(grown):
            np.testing.assert_array_equal(
                uniforms[:, graph.n_edges + j],
                growth_uniform_column(store._growth_entropy, u, v,
                                      n_samples, antithetic),
            )


class TestDeriveBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(case=graphs_and_deltas(), seed=st.integers(0, 2**31 - 1))
    @example(case=mostly_dirty_case(13), seed=5)  # just above N / 2
    @example(case=mostly_dirty_case(24), seed=5)  # every world dirty
    def test_derived_queries_match_full_relabel(self, case, seed):
        graph, delta = case
        store = WorldStore(graph, n_samples=24, seed=seed)
        view = store.derive(delta)
        ora = oracle_labels(store, view)
        np.testing.assert_array_equal(view.labels, ora)
        np.testing.assert_array_equal(
            view.pair_counts, pair_counts_from_labels(ora)
        )
        pairs = sample_vertex_pairs(graph.n_nodes, 40, seed=seed)
        np.testing.assert_array_equal(
            view.reliability_of_pairs(pairs),
            (ora[:, pairs[:, 0]] == ora[:, pairs[:, 1]]).mean(axis=0),
        )
        np.testing.assert_array_equal(
            view.pairwise_reliability(),
            oracle_pairwise(ora, graph.n_nodes),
        )

    @settings(max_examples=25, deadline=None)
    @given(case=graphs_and_deltas(), seed=st.integers(0, 2**31 - 1))
    def test_same_universe_delta_matches_fresh_crn_estimator(self, case, seed):
        # When the candidate only re-weights existing columns the store
        # view must match a from-scratch store's base view, same seed.
        graph, delta = case
        delta = [d for d in delta if graph.has_edge(d[0], d[1])]
        overlaid = overlay(graph, [(u, v, p_new) for u, v, __, p_new in delta])
        store = WorldStore(graph, n_samples=24, seed=seed)
        view = store.derive(delta)
        est = WorldStore(overlaid, n_samples=24, seed=seed).base_view()
        np.testing.assert_array_equal(view.labels, est.labels)
        np.testing.assert_array_equal(view.pair_counts, est.pair_counts)
        np.testing.assert_array_equal(
            view.pairwise_reliability(), est.pairwise_reliability()
        )

    def test_empty_delta_is_base(self, bridge_graph):
        store = WorldStore(bridge_graph, n_samples=30, seed=2)
        view = store.derive([])
        assert view.n_dirty == 0
        np.testing.assert_array_equal(view.labels, store.base_labels)
        assert store.discrepancy(view) == 0.0

    def test_removal_to_zero(self, bridge_graph):
        store = WorldStore(bridge_graph, n_samples=40, seed=9)
        view = store.derive([(2, 3, 0.5, 0.0)])
        ora = oracle_labels(store, view)
        np.testing.assert_array_equal(view.labels, ora)
        # Forcing the bridge absent disconnects the clusters in every
        # dirty world -- relabeled rows are exactly those with (2,3) on.
        assert view.n_dirty == int(store.base_masks[:, 6].sum())

    def test_insertion_grows_universe(self, triangle):
        store = WorldStore(triangle, n_samples=20, seed=4)
        assert store.n_columns == 3
        view = store.derive([(0, 1, 0.5, 0.9), (1, 2, 0.8, 0.8)])
        assert store.n_columns == 3  # no growth for existing pairs
        view = store.derive([(0, 1, 0.5, 0.2)])
        ora = oracle_labels(store, view)
        np.testing.assert_array_equal(view.labels, ora)


class TestDeriveValidation:
    def test_p_old_mismatch_rejected(self, triangle):
        store = WorldStore(triangle, n_samples=8, seed=0)
        with pytest.raises(EstimationError, match="base probability"):
            store.derive([(0, 1, 0.9, 0.2)])

    def test_bad_p_new_rejected(self, triangle):
        store = WorldStore(triangle, n_samples=8, seed=0)
        with pytest.raises(EstimationError, match="p_new"):
            store.derive([(0, 1, 0.5, 1.5)])

    def test_self_loop_rejected(self, triangle):
        store = WorldStore(triangle, n_samples=8, seed=0)
        with pytest.raises(EstimationError, match="vertex pair"):
            store.derive([(1, 1, 0.0, 0.5)])

    def test_duplicate_pairs_last_wins(self, triangle):
        store = WorldStore(triangle, n_samples=16, seed=3)
        a = store.derive([(0, 1, 0.5, 0.9), (0, 1, 0.5, 0.1)])
        b = store.derive([(0, 1, 0.5, 0.1)])
        np.testing.assert_array_equal(a.labels, b.labels)


def dict_merge_oracle(store: WorldStore, delta) -> tuple | str:
    """The dict-based canonicalization ``_merge_delta`` replaced: the
    ``(cols, p_new, n_new)`` it returned, or the message it raised."""
    n = store.graph.n_nodes
    index = {
        (int(u), int(v)): i
        for i, (u, v) in enumerate(zip(store._src, store._dst))
    }
    merged: dict[tuple[int, int], tuple[float, float]] = {}
    for u, v, p_old, p_new in delta:
        u, v = int(u), int(v)
        if u == v or not (0 <= u < n and 0 <= v < n):
            return f"delta pair ({u}, {v}) is not a valid vertex pair"
        key = (u, v) if u < v else (v, u)
        merged[key] = (float(p_old), float(p_new))
    missing = [
        key for key, (__, p_new) in merged.items()
        if key not in index and p_new != 0.0
    ]
    for offset, key in enumerate(missing):
        index[key] = store.n_columns + offset
    cols, ps = [], []
    for key, (p_old, p_new) in merged.items():
        col = index.get(key)
        stored = (
            float(store._prob[col])
            if col is not None and col < store.n_columns else 0.0
        )
        if abs(p_old - stored) > 1e-9:
            return (f"delta claims p_old={p_old!r} for pair {key}, but the "
                    f"store's base probability is {stored!r}")
        if not np.isfinite(p_new) or p_new < 0.0 or p_new > 1.0:
            return f"delta pair {key} has p_new={p_new!r}, expected [0, 1]"
        if p_new != stored:
            cols.append(col)
            ps.append(p_new)
    return cols, ps, len(missing)


@st.composite
def messy_deltas(draw):
    """``graphs_and_deltas`` plus reversed duplicates, no-ops on absent
    pairs and, sometimes, one invalid entry at a random position."""
    graph, delta = draw(graphs_and_deltas())
    n = graph.n_nodes
    for u, v, p_old, __ in draw(st.lists(st.sampled_from(delta), max_size=3)
                                if delta else st.just([])):
        delta.append((v, u, p_old, draw(st.floats(0.0, 1.0))))
    absent = [(u, v) for u in range(n) for v in range(u + 1, n)
              if not graph.has_edge(u, v)]
    if absent and draw(st.booleans()):
        u, v = draw(st.sampled_from(absent))
        delta.append((u, v, 0.0, 0.0))
    bad = draw(st.sampled_from(
        [None, "loop", "range", "stale", "p_new_nan", "p_new_big"]
    ))
    if bad is not None:
        u, v = draw(st.sampled_from(
            [(0, 1), (1, 2), (0, n - 1)] + [(d[0], d[1]) for d in delta]
        ))
        p_old = graph.probability(u, v)
        entry = {
            "loop": (u, u, 0.0, 0.5),
            "range": (u, n + 2, 0.0, 0.5),
            "stale": (u, v, p_old + 0.25, 0.5),
            "p_new_nan": (u, v, p_old, float("nan")),
            "p_new_big": (u, v, p_old, 1.5),
        }[bad]
        delta.insert(draw(st.integers(0, len(delta))), entry)
    order = draw(st.permutations(range(len(delta))))
    return graph, [delta[i] for i in order]


class TestMergeDelta:
    """The array-native ``_merge_delta`` returns what the dict-based one
    it replaced returned, raises its first message, and grows nothing
    when it raises."""

    @settings(max_examples=150, deadline=None)
    @given(case=messy_deltas(), as_array=st.booleans())
    def test_matches_dict_oracle(self, case, as_array):
        graph, delta = case
        store = WorldStore(graph, n_samples=4, seed=1)
        expected = dict_merge_oracle(store, delta)
        rows = np.array(delta, dtype=float).reshape(-1, 4) if as_array \
            else delta
        if isinstance(expected, str):
            with pytest.raises(EstimationError) as info:
                store._merge_delta(rows)
            assert str(info.value) == expected
            assert store.n_columns == graph.n_edges
            return
        cols, ps, n_new = store._merge_delta(rows)
        assert cols.tolist() == expected[0]
        assert ps.tolist() == expected[1]
        assert n_new == expected[2]
        assert store.n_columns == graph.n_edges + n_new
        keys = store._src * graph.n_nodes + store._dst
        np.testing.assert_array_equal(store._col_keys, np.sort(keys))
        np.testing.assert_array_equal(store._col_ids, np.argsort(keys))


def test_mask_only_store_is_gone():
    """Every store draws its worlds from uniforms: the mask-only
    constructor and its accessors are gone."""
    for name in ("from_masks", "has_uniforms", "base_mask_column",
                 "base_label_rows"):
        assert not hasattr(WorldStore, name), name


def loop_graph_delta(base: UncertainGraph, other: UncertainGraph) -> list:
    """The per-edge loops ``graph_delta`` replaced."""
    delta = []
    base_p = base.pair_probabilities(other.edge_src, other.edge_dst)
    for u, v, p_new, p_old in zip(
        other.edge_src.tolist(), other.edge_dst.tolist(),
        other.edge_probabilities.tolist(), base_p.tolist(),
    ):
        if p_new != p_old:
            delta.append((u, v, p_old, p_new))
    for u, v, p_old in zip(
        base.edge_src.tolist(), base.edge_dst.tolist(),
        base.edge_probabilities.tolist(),
    ):
        if p_old != 0.0 and not other.has_edge(u, v):
            delta.append((u, v, p_old, 0.0))
    return delta


class TestGraphDelta:
    def test_round_trip(self, bridge_graph):
        probs = bridge_graph.edge_probabilities.copy()
        probs[0] = 0.15
        other = overlay(
            bridge_graph.with_probabilities(probs), [(0, 4, 0.6), (2, 3, 0.0)]
        )
        delta = graph_delta(bridge_graph, other)
        rebuilt = overlay(bridge_graph, [(u, v, p) for u, v, __, p in delta])
        for u in range(bridge_graph.n_nodes):
            for v in range(u + 1, bridge_graph.n_nodes):
                assert rebuilt.probability(u, v) == other.probability(u, v)

    def test_vertex_set_mismatch(self, triangle, path4):
        with pytest.raises(EstimationError, match="vertex set"):
            graph_delta(triangle, path4)

    @settings(max_examples=60, deadline=None)
    @given(case=graphs_and_deltas())
    def test_matches_edge_loop_oracle(self, case):
        """The array lookups return the list the per-edge loops built."""
        base, delta = case
        other = overlay(base, [(u, v, p) for u, v, __, p in delta])
        for a, b in ((base, other), (other, base)):
            got = graph_delta(a, b)
            assert got == loop_graph_delta(a, b)
            assert all(type(x) is int for row in got for x in row[:2])
            rows = graph_delta_rows(a, b)
            assert rows.dtype == np.float64 and rows.shape == (len(got), 4)
            np.testing.assert_array_equal(
                rows, np.array(got, dtype=np.float64).reshape(-1, 4)
            )

    @settings(max_examples=30, deadline=None)
    @given(case=graphs_and_deltas(), seed=st.integers(0, 2**31 - 1))
    def test_rows_derive_like_tuples(self, case, seed):
        """``derive`` answers the same on the array rows as on the list."""
        base, delta = case
        other = overlay(base, [(u, v, p) for u, v, __, p in delta])
        by_list = WorldStore(base, n_samples=12, seed=seed)
        by_rows = WorldStore(base, n_samples=12, seed=seed)
        a = by_list.derive(graph_delta(base, other))
        b = by_rows.derive(graph_delta_rows(base, other))
        np.testing.assert_array_equal(a.dirty_worlds, b.dirty_worlds)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(by_list.uniforms, by_rows.uniforms)


class TestDiscrepancyEngines:
    def test_store_matches_fresh_on_shared_universe(self, small_profile_graph):
        """On one edge universe the store path equals the two-estimator
        oracle bit for bit."""
        g = small_profile_graph
        probs = g.edge_probabilities.copy()
        probs[:25] = np.linspace(0.05, 0.95, 25)
        other = g.with_probabilities(probs)
        for kwargs in ({}, {"n_pairs": 300}, {"per_pair": False}):
            a = reliability_discrepancy(
                g, other, n_samples=40, seed=17, **kwargs,
            )
            b = two_estimator_discrepancy(
                g, other, n_samples=40, seed=17, **kwargs,
            )
            assert a == b

    def test_identity_is_structural_zero(self, small_profile_graph):
        value = reliability_discrepancy(
            small_profile_graph, small_profile_graph, n_samples=30, seed=1
        )
        assert value == 0.0

    def test_unknown_engine_rejected(self, triangle):
        """There is one estimator: ``engine=`` of any value, the former
        ``store`` and ``fresh`` included, is a ``TypeError``."""
        import repro.reliability

        for engine in ("psychic", "store", "fresh"):
            with pytest.raises(TypeError, match="engine"):
                reliability_discrepancy(triangle, triangle, engine=engine)
        assert not hasattr(repro.reliability, "DISCREPANCY_ENGINES")

    def test_antithetic_plumbed(self, small_profile_graph):
        value = reliability_discrepancy(
            small_profile_graph, small_profile_graph, n_samples=40, seed=3,
            antithetic=True,
        )
        assert value == 0.0


class TestWorldSamplerAntithetic:
    def test_masks_antithetic_matches_function(self, bridge_graph):
        sampler = WorldSampler(bridge_graph, seed=13, antithetic=True)
        np.testing.assert_array_equal(
            sampler.masks(20),
            sample_edge_masks(bridge_graph, 20, seed=13, antithetic=True),
        )

    def test_per_call_override(self, bridge_graph):
        sampler = WorldSampler(bridge_graph, seed=13)
        assert not sampler.antithetic
        np.testing.assert_array_equal(
            sampler.masks(20, antithetic=True),
            sample_edge_masks(bridge_graph, 20, seed=13, antithetic=True),
        )

    def test_iter_worlds_antithetic(self, triangle):
        sampler = WorldSampler(triangle, seed=7, antithetic=True)
        worlds = list(sampler.iter_worlds(8))
        assert len(worlds) == 8


class TestSuiteAndSigmaSearchWiring:
    def test_compare_graphs_identity_store(self, bridge_graph):
        result = compare_graphs(
            bridge_graph, bridge_graph, metrics=("reliability",),
            n_samples=24, seed=5,
        )
        assert result["reliability"].relative_error == 0.0
        assert result["reliability"].original == result["reliability"].anonymized

    def test_compare_graphs_rejects_unknown_engine(self, bridge_graph):
        for engine in ("psychic", "store", "fresh"):
            with pytest.raises(TypeError, match="reliability_engine"):
                compare_graphs(
                    bridge_graph, bridge_graph, reliability_engine=engine
                )

    def test_anonymize_scores_utility(self, small_profile_graph):
        kwargs = dict(
            seed=8, n_trials=2, relevance_samples=30, utility_samples=40,
            sigma_tolerance=0.5,
        )
        result = anonymize(small_profile_graph, k=3, epsilon=0.3, **kwargs)
        assert result.success
        assert result.utility_discrepancy is not None
        assert result.utility_discrepancy >= 0.0
        oracle = oracle_anonymize(small_profile_graph, 3, 0.3, **kwargs)
        assert np.float64(result.utility_discrepancy).tobytes() == \
            np.float64(oracle.utility_discrepancy).tobytes()
        assert result.summary()["utility_discrepancy"] == (
            result.utility_discrepancy
        )

    def test_utility_samples_validated(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="utility_samples"):
            ChameleonConfig(utility_samples=-1)
