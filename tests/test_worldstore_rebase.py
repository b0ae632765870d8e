"""``WorldStore.rebase``: permanent in-place adoption of a delta.

The contract under test: rebasing is a CRN *continuation* -- the
uniforms are kept, only changed columns re-threshold -- and every base
query after ``rebase(delta)`` is bit-identical to ``derive(delta)``
evaluated on a pristine store, which in turn is the full-recompute
oracle over the patched masks.  Plus the storage story: clones stay
isolated (copy-on-write).

Rebasing is write-back: flipped worlds are only marked stale, and the
first label read relabels each of them once.  A state machine holds the
write-back store to the eager relabel-and-patch rebase it replaced
(:class:`EagerWorldStore`, kept here as the oracle), and spies on the
labeling call count what the deferral saves.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro import kernels
from repro.exceptions import EstimationError
from repro.reliability import worldstore
from repro.reliability.connectivity import pair_counts_from_labels
from repro.reliability.union_find import canonical_component_labels
from repro.reliability.worldstore import WorldStore
from repro.ugraph import UncertainGraph


def make_graph(seed: int, n: int = 28, n_edges: int = 70) -> UncertainGraph:
    rng = np.random.default_rng(seed)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < n_edges:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    ordered = sorted(pairs)
    ps = rng.uniform(0.05, 0.95, len(ordered))
    return UncertainGraph(
        n, [(u, v, float(p)) for (u, v), p in zip(ordered, ps)]
    )


def make_delta(graph: UncertainGraph, rng: np.random.Generator,
               size: int, fresh_pair: bool = True) -> list:
    pairs = list(graph.endpoint_pairs())
    picks = rng.choice(len(pairs), size=min(size, len(pairs)), replace=False)
    delta = []
    for i in picks:
        u, v = pairs[int(i)]
        old = graph.probability(u, v)
        delta.append(
            (u, v, old, float(np.clip(old + rng.normal(0, 0.4), 0, 1)))
        )
    if fresh_pair:
        existing = set(pairs)
        while True:
            u, v = (int(x) for x in rng.integers(0, graph.n_nodes, 2))
            if u != v and (min(u, v), max(u, v)) not in existing:
                delta.append((min(u, v), max(u, v), 0.0, 0.6))
                break
    return delta


def query_pairs(graph: UncertainGraph, count: int = 12) -> list:
    return list(graph.endpoint_pairs())[:count]


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    chunk=st.sampled_from([3, 9]),
    antithetic=st.booleans(),
)
def test_rebase_matches_derive_and_recompute(seed, chunk, antithetic):
    """rebased base state == pre-rebase derive view == full recompute
    over the patched masks, for reliabilities, labels and masks."""
    monkeypatch = pytest.MonkeyPatch()
    try:
        monkeypatch.setenv("REPRO_WORLD_CHUNK", str(chunk))
        rng = np.random.default_rng(seed)
        graph = make_graph(seed)
        store = WorldStore(graph, n_samples=20, seed=3,
                           antithetic=antithetic)
        store.warm()
        pristine = store.clone()
        delta = make_delta(graph, rng, 5)
        qpairs = query_pairs(graph)

        view = pristine.derive(delta)
        view_rel = view.reliability_of_pairs(qpairs)
        view_labels = view.materialize()

        stats = store.rebase(delta)
        assert stats["n_changed_columns"] >= 5

        # Base answers == the derived view's answers.
        assert np.array_equal(
            store.base_view().reliability_of_pairs(qpairs), view_rel
        )
        # Full recompute oracle: a no-op derivation re-labels nothing,
        # so its materialized labels ARE the store's base labels.
        base_labels = store.derive([]).materialize()
        assert np.array_equal(base_labels, view_labels)

        # The pristine clone still answers for the pre-update state.
        fresh = WorldStore(graph, n_samples=20, seed=3, antithetic=antithetic)
        assert np.array_equal(
            pristine.base_view().reliability_of_pairs(qpairs),
            fresh.base_view().reliability_of_pairs(qpairs),
        )
    finally:
        monkeypatch.undo()


def test_chained_rebases_compose():
    """Two sequential rebases == one derive of the composed delta."""
    graph = make_graph(1)
    rng = np.random.default_rng(4)
    store = WorldStore(graph, n_samples=30, seed=9)
    store.warm()
    pristine = store.clone()
    qpairs = query_pairs(graph)

    first = make_delta(graph, rng, 4, fresh_pair=False)
    store.rebase(first)
    # Second delta is built against the *rebased* probabilities.
    merged = {(u, v): (old, new) for u, v, old, new in first}
    second = []
    for (u, v), (old, new) in list(merged.items())[:2]:
        bumped = float(np.clip(new + 0.17, 0, 1))
        second.append((u, v, new, bumped))
        merged[(u, v)] = (old, bumped)
    store.rebase(second)

    composed = [
        (u, v, old, new) for (u, v), (old, new) in merged.items()
        if old != new
    ]
    view = pristine.derive(composed)
    assert np.array_equal(
        store.base_view().reliability_of_pairs(qpairs),
        view.reliability_of_pairs(qpairs),
    )


def test_rebase_lazy_store_defers_thresholding():
    """Rebasing before masks exist just swaps probabilities: the lazily
    materialized state equals a pristine store's view of the delta."""
    graph = make_graph(2)
    rng = np.random.default_rng(5)
    delta = make_delta(graph, rng, 4)
    qpairs = query_pairs(graph)

    lazy = WorldStore(graph, n_samples=25, seed=6)
    stats = lazy.rebase(delta)
    assert stats["n_dirty_worlds"] is None

    oracle = WorldStore(graph, n_samples=25, seed=6)
    oracle.warm()
    view = oracle.derive(delta)
    assert np.array_equal(
        lazy.base_view().reliability_of_pairs(qpairs),
        view.reliability_of_pairs(qpairs),
    )


def test_rebase_validates_inputs():
    graph = make_graph(3)
    store = WorldStore(graph, n_samples=10, seed=1)
    u, v = next(iter(graph.endpoint_pairs()))
    good = graph.probability(u, v)
    with pytest.raises(EstimationError, match="p_old"):
        store.rebase([(u, v, good + 0.25, 0.5)])
    with pytest.raises(EstimationError, match="vertices"):
        store.rebase([(u, v, good, 0.5)], graph=make_graph(3, n=29))


def test_rebase_noop_delta_is_free():
    graph = make_graph(7)
    store = WorldStore(graph, n_samples=12, seed=2)
    store.warm()
    u, v = next(iter(graph.endpoint_pairs()))
    p = graph.probability(u, v)
    stats = store.rebase([(u, v, p, p)])
    assert stats == {
        "n_dirty_worlds": 0, "n_changed_columns": 0, "n_new_columns": 0,
    }


def test_rebase_clone_cow_isolation():
    """A rebase on one store never disturbs its clone, and both remain
    independently rebasable -- whether the rebase patches the blocks
    its own growth allocated or copies shared ones."""
    graph = make_graph(10)
    rng = np.random.default_rng(12)
    qpairs = query_pairs(graph)
    for fresh_pair in (True, False):
        store = WorldStore(graph, n_samples=16, seed=5)
        store.warm()
        twin = store.clone()
        before = store.base_view().reliability_of_pairs(qpairs)
        masks_before = twin.base_masks.copy()

        delta = make_delta(graph, rng, 4, fresh_pair=fresh_pair)
        expected = store.derive(delta).reliability_of_pairs(qpairs)
        store.rebase(delta)
        assert np.array_equal(
            store.base_view().reliability_of_pairs(qpairs), expected
        )
        # Twin: untouched, still answers for the original graph, and can
        # itself derive the same delta to the same answers.
        assert np.array_equal(twin.base_masks, masks_before)
        assert np.array_equal(
            twin.base_view().reliability_of_pairs(qpairs), before
        )
        assert np.array_equal(
            twin.derive(delta).reliability_of_pairs(qpairs), expected
        )


# -- write-back rebase ------------------------------------------------------ #

class EagerWorldStore(WorldStore):
    """The eager rebase the write-back one replaced: flipped worlds are
    relabeled and the pair caches patched inside ``rebase`` itself."""

    def clone(self) -> "EagerWorldStore":
        twin = super().clone()
        twin.__class__ = EagerWorldStore
        return twin

    def rebase(self, delta, graph=None) -> dict:
        from repro.ugraph.operations import apply_edge_updates

        n = self._graph.n_nodes
        col_arr, p_arr, n_new = self._merge_delta(delta)
        stats = {"n_dirty_worlds": 0, "n_changed_columns": int(col_arr.size),
                 "n_new_columns": n_new}
        if not col_arr.size:
            if graph is not None:
                self._graph = graph
            return stats
        if graph is None:
            graph = apply_edge_updates(
                self._graph, self._src[col_arr], self._dst[col_arr], p_arr
            )
        prob = self._prob.copy()
        prob[col_arr] = p_arr
        self._prob = prob
        self._graph = graph
        self._generation += 1
        if self._m_blocks is None:
            stats["n_dirty_worlds"] = None
            return stats
        patch_labels = self._l_blocks is not None
        patch_counts = patch_labels and self._pair_counts is not None
        patch_acc = patch_labels and self._pair_acc is not None
        counts = self._pair_counts.copy() if patch_counts else None
        acc = self._pair_acc.copy() if patch_acc else None
        m_new = list(self._m_blocks)
        l_new = list(self._l_blocks) if patch_labels else None
        total_dirty = 0
        # Blocks carry spare column capacity: read the live width only.
        width = self.n_columns
        for ci, ((start, __), u_block, m_block) in enumerate(
            zip(self._chunks, self._u_blocks, self._m_blocks)
        ):
            nc, d = kernels.rethreshold_masks(
                u_block[:, :width], m_block[:, :width], col_arr, p_arr
            )
            if d.size == 0:
                continue
            total_dirty += int(d.size)
            fresh_m = m_block.copy()
            fresh_m[:, col_arr] = nc
            m_new[ci] = fresh_m
            if patch_labels:
                old_l = self._l_blocks[ci]
                dirty_masks = m_block[d, :width]
                dirty_masks[:, col_arr] = nc[d]
                labels = worldstore.component_labels_for_edges(
                    n, self._src, self._dst, dirty_masks
                )
                fresh_l = old_l.copy()
                fresh_l[d] = labels
                l_new[ci] = fresh_l
                if patch_counts:
                    counts[start + d] = pair_counts_from_labels(labels)
                if patch_acc:
                    acc -= worldstore._pairwise_equal_acc(old_l[d], n)
                    acc += worldstore._pairwise_equal_acc(labels, n)
        self._m_blocks = m_new
        if patch_labels:
            self._l_blocks = l_new
        self._pair_counts = counts if patch_counts else None
        self._pair_acc = acc if patch_acc else None
        self._pairwise = None
        self._pair_equal_cache = None
        stats["n_dirty_worlds"] = total_dirty
        return stats


@pytest.fixture
def labeling_spy(monkeypatch):
    """World counts of every labeling call the store makes."""
    calls: list[int] = []
    real = worldstore.component_labels_for_edges

    def spy(n_nodes, src, dst, masks, **kwargs):
        calls.append(int(masks.shape[0]))
        return real(n_nodes, src, dst, masks, **kwargs)

    monkeypatch.setattr(worldstore, "component_labels_for_edges", spy)
    return calls


def flipped_rows(before: np.ndarray, after: np.ndarray) -> set:
    """Rows where any column of ``before`` differs in ``after``."""
    width = before.shape[1]
    return set(np.flatnonzero(
        (before != after[:, :width]).any(axis=1)
        | after[:, width:].any(axis=1)
    ).tolist())


def test_view_derived_before_rebase_raises():
    """A view taken before an unrelated rebase must not mix the rebased
    base with its own pre-rebase dirty rows."""
    graph = make_graph(1)
    rng = np.random.default_rng(4)
    store = WorldStore(graph, n_samples=30, seed=9)
    store.warm()
    first = make_delta(graph, rng, 4, fresh_pair=False)
    view = store.derive(first)
    touched = {(u, v) for u, v, __, __ in first}
    other = [
        (u, v, graph.probability(u, v), 1.0 - graph.probability(u, v))
        for u, v in graph.endpoint_pairs() if (u, v) not in touched
    ][:6]
    stats = store.rebase(other)
    assert stats["n_dirty_worlds"] > 0
    for query in (
        view.pairwise_reliability,
        lambda: view.reliability_of_pairs(query_pairs(graph)),
        lambda: view.two_terminal(*query_pairs(graph)[0]),
        lambda: view.labels,
        lambda: view.pair_counts,
        view.expected_connected_pairs,
        view.materialize,
        lambda: store.discrepancy(view),
    ):
        with pytest.raises(EstimationError, match="stale"):
            query()
    # The view's own record stays readable; a fresh derive answers.
    assert view.n_dirty == view.dirty_labels.shape[0]
    fresh = store.derive(first)
    assert fresh.pairwise_reliability().shape == (graph.n_nodes,) * 2


def test_noop_rebase_keeps_views_current():
    graph = make_graph(2)
    store = WorldStore(graph, n_samples=12, seed=3)
    view = store.derive(make_delta(graph, np.random.default_rng(1), 3))
    expected = view.reliability_of_pairs(query_pairs(graph))
    u, v = next(iter(graph.endpoint_pairs()))
    store.rebase([(u, v, graph.probability(u, v), graph.probability(u, v))])
    assert np.array_equal(
        view.reliability_of_pairs(query_pairs(graph)), expected
    )


@pytest.mark.parametrize("chunk", [4, 30])
def test_rebases_defer_and_one_read_labels_each_stale_row_once(
    labeling_spy, chunk
):
    graph = make_graph(3)
    rng = np.random.default_rng(6)
    store = WorldStore(graph, n_samples=30, seed=2, chunk_worlds=chunk)
    store.warm()
    oracle = EagerWorldStore(graph, n_samples=30, seed=2, chunk_worlds=chunk)
    oracle.warm()
    store.base_pair_acc, store.base_pair_counts  # cache both aggregates
    labeling_spy.clear()

    stale: set = set()
    for __ in range(4):
        delta = make_delta(store.graph, rng, 5)
        before = store.base_masks.copy()
        expected = oracle.rebase(delta)
        labeling_spy.clear()
        assert store.rebase(delta) == expected
        assert labeling_spy == []  # rebase alone labels nothing
        stale |= flipped_rows(before, store.base_masks)
    assert stale

    assert np.array_equal(store.base_pair_acc, oracle.base_pair_acc)
    assert sum(labeling_spy) == len(stale)
    touched_chunks = {row // chunk for row in stale}
    assert len(labeling_spy) == len(touched_chunks)
    labeling_spy.clear()
    assert np.array_equal(store.base_labels, oracle.base_labels)
    assert np.array_equal(store.base_pair_counts, oracle.base_pair_counts)
    assert labeling_spy == []  # flushed once; later reads are free


def test_rebase_before_first_labeling_marks_nothing(labeling_spy):
    """Masks without labels: the first labeling covers current masks."""
    graph = make_graph(4)
    store = WorldStore(graph, n_samples=16, seed=8)
    store.base_masks  # materialize masks only
    store.rebase(make_delta(graph, np.random.default_rng(2), 5))
    assert labeling_spy == []
    store.base_labels
    assert sum(labeling_spy) == 16  # every world once, chunk by chunk
    np.testing.assert_array_equal(
        store.base_labels,
        np.stack([
            canonical_component_labels(
                graph.n_nodes, store._src[row], store._dst[row]
            ) for row in store.base_masks
        ]),
    )


@pytest.mark.parametrize("operation", ["derive", "rebase"])
def test_rejected_delta_leaves_store_unchanged(operation):
    """Every entry is validated before the universe grows: a fresh pair
    followed by a stale ``p_old`` grows nothing and changes no answer."""
    graph = UncertainGraph(4, [(0, 1, 0.5), (1, 2, 0.8), (0, 2, 0.3)])
    store = WorldStore(graph, n_samples=12, seed=2, chunk_worlds=6)
    store.warm()
    pairs = np.array(list(itertools.combinations(range(4), 2)))
    before = (store.uniforms.copy(), store.base_masks.copy(),
              store.base_labels.copy(), store.base_pair_acc.copy(),
              store.base_view().reliability_of_pairs(pairs))
    bad = [(0, 3, 0.0, 0.6), (0, 1, 0.4, 0.7)]
    with pytest.raises(EstimationError, match="p_old=0.4"):
        getattr(store, operation)(bad)
    after = (store.uniforms, store.base_masks, store.base_labels,
             store.base_pair_acc,
             store.base_view().reliability_of_pairs(pairs))
    assert store.n_columns == 3
    for was, now in zip(before, after):
        assert np.array_equal(was, now)


def test_array_and_tuple_deltas_agree():
    """A list of tuples and the same rows as an ``(m, 4)`` array give
    identical views and rebases, duplicate pairs included."""
    graph = make_graph(6)
    rng = np.random.default_rng(3)
    delta = make_delta(graph, rng, 6)
    u, v, p_old, __ = delta[0]
    delta.append((v, u, p_old, 0.25))  # duplicate, reversed: last wins
    rows = np.array(delta, dtype=np.float64)
    qpairs = query_pairs(graph)

    by_list = WorldStore(graph, n_samples=16, seed=8, chunk_worlds=5)
    by_array = WorldStore(graph, n_samples=16, seed=8, chunk_worlds=5)
    for store in (by_list, by_array):
        store.warm()
    views = by_list.derive(delta), by_array.derive(rows)
    assert np.array_equal(views[0].dirty_worlds, views[1].dirty_worlds)
    assert np.array_equal(views[0].materialize(), views[1].materialize())
    assert np.array_equal(views[0].labels, views[1].labels)
    assert np.array_equal(views[0].pairwise_reliability(),
                          views[1].pairwise_reliability())
    assert by_list.rebase(delta) == by_array.rebase(rows)
    assert np.array_equal(by_list._col_keys, by_array._col_keys)
    assert np.array_equal(by_list._col_ids, by_array._col_ids)
    assert np.array_equal(by_list.base_view().reliability_of_pairs(qpairs),
                          by_array.base_view().reliability_of_pairs(qpairs))
    assert np.array_equal(by_list.base_labels, by_array.base_labels)
    with pytest.raises(EstimationError, match="rows"):
        by_array.derive(rows[:, :3])


def test_clone_shares_column_keys():
    """Clones share the sorted column keys by reference; growth rebinds
    them, so a growing clone never disturbs its parent."""
    graph = make_graph(9)
    store = WorldStore(graph, n_samples=10, seed=3)
    store.warm()
    keys, ids = store._col_keys, store._col_ids
    twin = store.clone()
    assert twin._col_keys is keys and twin._col_ids is ids
    twin.rebase(make_delta(graph, np.random.default_rng(2), 3))
    assert twin.n_columns == store.n_columns + 1
    assert store._col_keys is keys and store._col_ids is ids
    assert keys.size == ids.size == graph.n_edges


def test_clone_of_stale_store_flushes_independently(labeling_spy):
    graph = make_graph(5)
    rng = np.random.default_rng(7)
    store = WorldStore(graph, n_samples=24, seed=1, chunk_worlds=6)
    store.warm()
    oracle = EagerWorldStore(graph, n_samples=24, seed=1, chunk_worlds=6)
    oracle.warm()
    delta = make_delta(graph, rng, 6)
    oracle.rebase(delta)
    store.rebase(delta)
    twin = store.clone()
    labeling_spy.clear()
    assert np.array_equal(store.base_labels, oracle.base_labels)
    flushed = sum(labeling_spy)
    assert flushed > 0
    assert np.array_equal(twin.base_labels, oracle.base_labels)
    assert sum(labeling_spy) == 2 * flushed


_SM_NODES = 12
_SM_WORLDS = 18
_SM_PAIRS = np.array(list(itertools.combinations(range(_SM_NODES), 2)))


class WriteBackMachine(RuleBasedStateMachine):
    """Write-back store vs the eager oracle under rebase / derive / base
    reads / clone: every read must agree bit for bit."""

    def __init__(self):
        super().__init__()
        self.stores: list[tuple[WorldStore, EagerWorldStore]] = []
        self.views: list = []

    @initialize(
        chunk=st.sampled_from([3, 9, _SM_WORLDS]),
        antithetic=st.booleans(),
        seed=st.integers(0, 10_000),
        warm=st.booleans(),
    )
    def build(self, chunk, antithetic, seed, warm):
        graph = make_graph(seed, n=_SM_NODES, n_edges=24)
        kwargs = dict(n_samples=_SM_WORLDS, seed=seed, antithetic=antithetic,
                      chunk_worlds=chunk)
        pair = (WorldStore(graph, **kwargs), EagerWorldStore(graph, **kwargs))
        if warm:
            for store in pair:
                store.warm()
        self.stores.append(pair)

    def _pick(self, index):
        return self.stores[index % len(self.stores)]

    @rule(index=st.integers(0, 7), seed=st.integers(0, 10_000),
          size=st.integers(1, 6), fresh=st.booleans())
    def rebase(self, index, seed, size, fresh):
        lazy, eager = self._pick(index)
        delta = make_delta(lazy.graph, np.random.default_rng(seed), size,
                           fresh_pair=fresh)
        assert lazy.rebase(delta) == eager.rebase(delta)

    @rule(index=st.integers(0, 7), seed=st.integers(0, 10_000),
          size=st.integers(1, 6), fresh=st.booleans())
    def derive(self, index, seed, size, fresh):
        lazy, eager = self._pick(index)
        delta = make_delta(lazy.graph, np.random.default_rng(seed), size,
                           fresh_pair=fresh)
        views = (lazy.derive(delta), eager.derive(delta))
        assert views[0].n_dirty == views[1].n_dirty
        self.views.append(views)
        self.read_view(len(self.views) - 1)

    @precondition(lambda self: self.views)
    @rule(index=st.integers(0, 63))
    def read_view(self, index):
        lazy_view, eager_view = self.views[index % len(self.views)]
        store = lazy_view.store
        if store._generation != lazy_view._generation:
            with pytest.raises(EstimationError, match="stale"):
                lazy_view.reliability_of_pairs(_SM_PAIRS)
            return
        assert np.array_equal(
            lazy_view.reliability_of_pairs(_SM_PAIRS),
            eager_view.reliability_of_pairs(_SM_PAIRS),
        )
        assert np.array_equal(lazy_view.pair_counts, eager_view.pair_counts)
        assert np.array_equal(
            lazy_view.pairwise_reliability(),
            eager_view.pairwise_reliability(),
        )

    @rule(index=st.integers(0, 7), kind=st.sampled_from([
        "labels", "label_rows", "pair_counts", "pair_acc", "pairwise",
        "pairs", "masks",
    ]))
    def base_read(self, index, kind):
        lazy, eager = self._pick(index)
        if kind == "labels":
            labels = lazy.base_labels
            assert np.array_equal(labels, eager.base_labels)
            # Independent of both stores' labeling path.
            for row, mask in zip(labels, lazy.base_masks):
                assert np.array_equal(row, canonical_component_labels(
                    _SM_NODES, lazy._src[mask], lazy._dst[mask]
                ))
        elif kind == "label_rows":
            rows = np.arange(_SM_WORLDS)[::-2]
            assert np.array_equal(lazy._label_rows(rows),
                                  eager._label_rows(rows))
        elif kind == "pair_counts":
            assert np.array_equal(lazy.base_pair_counts,
                                  eager.base_pair_counts)
        elif kind == "pair_acc":
            assert np.array_equal(lazy.base_pair_acc, eager.base_pair_acc)
        elif kind == "pairwise":
            assert np.array_equal(lazy.base_pairwise_reliability(),
                                  eager.base_pairwise_reliability())
        elif kind == "pairs":
            assert np.array_equal(
                lazy.base_view().reliability_of_pairs(_SM_PAIRS),
                eager.base_view().reliability_of_pairs(_SM_PAIRS),
            )
        else:
            assert np.array_equal(lazy.base_masks, eager.base_masks)

    @precondition(lambda self: len(self.stores) < 4)
    @rule(index=st.integers(0, 7))
    def clone(self, index):
        lazy, eager = self._pick(index)
        self.stores.append((lazy.clone(), eager.clone()))


TestWriteBackStateful = WriteBackMachine.TestCase
TestWriteBackStateful.settings = settings(
    max_examples=30, stateful_step_count=20, deadline=None
)
