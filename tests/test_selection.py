"""Edge-selection machinery tests (Algorithm 3, lines 1-16)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import as_generator
from repro.core import exclusion_set, select_candidate_edges, selection_weights
from repro.datasets import load_profile
from repro.exceptions import ObfuscationError
from repro.stream.repair import violator_weights
from repro.ugraph import UncertainGraph

_BATCH = 2048


def as_tuples(pairs: np.ndarray) -> list[tuple[int, int]]:
    return [tuple(p) for p in pairs.tolist()]


def reference_walk(graph, weights, size_multiplier, seed, max_rounds=None):
    """The one-draw-at-a-time Algorithm-3 walk: the oracle the batched
    :func:`select_candidate_edges` must reproduce, pairs and RNG stream
    alike.  Returns the sorted candidate tuples."""
    rng = as_generator(seed)
    n = graph.n_nodes
    target = int(round(size_multiplier * graph.n_edges))
    candidates = set(graph.endpoint_pairs())
    original_probability = {
        pair: p
        for pair, p in zip(graph.endpoint_pairs(), graph.edge_probabilities)
    }
    if max_rounds is None:
        max_rounds = 200 * max(target, 1)
    rounds = 0
    done = len(candidates) == target
    while not done and rounds < max_rounds:
        us = rng.choice(n, size=_BATCH, p=weights)
        vs = rng.choice(n, size=_BATCH, p=weights)
        removal_draws = rng.random(_BATCH)
        for u, v, draw in zip(us.tolist(), vs.tolist(), removal_draws.tolist()):
            rounds += 1
            if u == v:
                continue
            pair = (u, v) if u < v else (v, u)
            p_original = original_probability.get(pair)
            if p_original is not None:
                if pair in candidates and draw < p_original:
                    candidates.discard(pair)
            else:
                candidates.add(pair)
            if len(candidates) == target:
                done = True
                break
    return sorted(candidates)


def assert_walks_agree(graph, weights, size_multiplier, seed, max_rounds):
    rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    pairs = select_candidate_edges(
        graph, weights, size_multiplier, seed=rng, max_rounds=max_rounds
    )
    expected = reference_walk(
        graph, weights, size_multiplier, oracle_rng, max_rounds
    )
    assert pairs.dtype == np.int64 and pairs.shape == (len(expected), 2)
    assert as_tuples(pairs) == expected
    assert rng.random() == oracle_rng.random()


@st.composite
def walk_cases(draw):
    """A small graph (probabilities include exactly 0 and 1), one of the
    weight vectors the pipeline feeds the walk, and a walk setting."""
    n = draw(st.integers(min_value=3, max_value=30))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(all_pairs), unique=True, min_size=1,
                 max_size=min(len(all_pairs) // 2, 80))
    )
    probability = st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    graph = UncertainGraph(
        n, [(u, v, draw(probability)) for u, v in sorted(chosen)]
    )
    kind = draw(st.sampled_from(
        ["uniform", "dirichlet", "concentrated", "zero-holding", "violators"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        weights = np.full(n, 1.0 / n)
    elif kind in ("dirichlet", "concentrated"):
        weights = rng.dirichlet(np.full(n, 1.0 if kind == "dirichlet" else 0.1))
    elif kind == "zero-holding":
        weights = rng.random(n)
        weights[rng.random(n) < 0.5] = 0.0
        weights[rng.integers(n)] = 1.0
        weights /= weights.sum()
    else:
        violators = np.unique(rng.integers(0, n, size=rng.integers(1, 4)))
        weights = violator_weights(n, violators)
    multiplier = draw(st.sampled_from([1.0, 1.05, 1.3, 2.0]))
    max_rounds = draw(st.sampled_from([1, 2048, 4096, None]))
    return graph, weights, multiplier, max_rounds


class TestExclusionSet:
    def test_budget_size(self):
        u = np.arange(10, dtype=float) + 1
        vrr = np.ones(10)
        h = exclusion_set(u, vrr, epsilon=0.4)
        assert h.shape[0] == int(np.ceil(0.2 * 10))

    def test_zero_epsilon_excludes_nobody(self):
        h = exclusion_set(np.ones(5), np.ones(5), epsilon=0.0)
        assert h.shape[0] == 0

    def test_picks_largest_combined_scores(self):
        u = np.array([1.0, 5.0, 1.0, 1.0])
        vrr = np.array([1.0, 10.0, 1.0, 1.0])
        h = exclusion_set(u, vrr, epsilon=0.5)  # budget 1
        assert h.tolist() == [1]

    def test_sorted_output(self):
        rng = np.random.default_rng(0)
        h = exclusion_set(rng.random(30), rng.random(30), epsilon=0.4)
        assert (np.diff(h) > 0).all()


class TestSelectionWeights:
    def test_normalized(self):
        q = selection_weights(np.array([1.0, 2.0, 3.0]))
        assert q.sum() == pytest.approx(1.0)

    def test_proportional_to_uniqueness(self):
        q = selection_weights(np.array([1.0, 3.0]))
        assert q[1] == pytest.approx(3 * q[0])

    def test_relevance_damping(self):
        u = np.ones(3)
        rel = np.array([0.0, 0.5, 1.0])
        q = selection_weights(u, normalized_relevance=rel)
        assert q[0] > q[1] > q[2]
        assert q[2] == 0.0

    def test_excluded_vertices_zeroed(self):
        q = selection_weights(np.ones(4), excluded=np.array([1, 3]))
        assert q[1] == 0.0 and q[3] == 0.0
        assert q.sum() == pytest.approx(1.0)

    def test_negative_uniqueness_rejected(self):
        with pytest.raises(ObfuscationError):
            selection_weights(np.array([1.0, -1.0]))

    def test_degenerate_weights_fall_back_to_uniform(self):
        u = np.ones(3)
        rel = np.ones(3)  # damping kills everything
        q = selection_weights(u, normalized_relevance=rel)
        np.testing.assert_allclose(q, 1 / 3)

    def test_all_excluded_is_an_error(self):
        with pytest.raises(ObfuscationError):
            selection_weights(np.ones(2), excluded=np.array([0, 1]))


class TestCandidateSelection:
    @pytest.fixture
    def graph(self):
        rng = np.random.default_rng(1)
        n = 25
        pairs = set()
        while len(pairs) < 60:
            u, v = rng.integers(0, n, 2)
            if u != v:
                pairs.add((min(u, v), max(u, v)))
        return UncertainGraph(
            n, [(u, v, float(rng.uniform(0.1, 0.9))) for u, v in sorted(pairs)]
        )

    def test_target_size_reached(self, graph):
        weights = selection_weights(np.ones(graph.n_nodes))
        pairs = select_candidate_edges(graph, weights, 1.3, seed=2)
        assert len(pairs) == round(1.3 * graph.n_edges)

    def test_unit_multiplier_returns_originals_immediately(self, graph):
        """c = 1: the original edge set already meets the target, so the
        walk must terminate at entry (no drift toward the round cap)."""
        weights = selection_weights(np.ones(graph.n_nodes))
        pairs = select_candidate_edges(graph, weights, 1.0, seed=7, max_rounds=1)
        assert as_tuples(pairs) == sorted(graph.endpoint_pairs())

    def test_unit_multiplier_consumes_no_rng(self, graph):
        weights = selection_weights(np.ones(graph.n_nodes))
        rng = np.random.default_rng(11)
        select_candidate_edges(graph, weights, 1.0, seed=rng)
        untouched = np.random.default_rng(11)
        assert rng.random() == untouched.random()

    def test_sub_unit_multiplier_rejected(self, graph):
        """c < 1 targets are unreachable by the Algorithm-3 walk."""
        weights = selection_weights(np.ones(graph.n_nodes))
        with pytest.raises(ObfuscationError, match=">= 1"):
            select_candidate_edges(graph, weights, 0.5, seed=3)

    def test_candidates_are_canonical_pairs(self, graph):
        weights = selection_weights(np.ones(graph.n_nodes))
        pairs = select_candidate_edges(graph, weights, 1.2, seed=4)
        for u, v in as_tuples(pairs):
            assert u < v
            assert 0 <= u < graph.n_nodes

    def test_no_duplicates(self, graph):
        weights = selection_weights(np.ones(graph.n_nodes))
        pairs = select_candidate_edges(graph, weights, 1.5, seed=5)
        assert len(pairs) == len(set(as_tuples(pairs)))

    def test_excluded_vertices_get_no_new_edges(self, graph):
        """Zero-weight vertices can never be picked, so new candidate
        edges avoid them (surviving original edges may touch them)."""
        excluded = np.array([0, 1, 2])
        weights = selection_weights(
            np.ones(graph.n_nodes), excluded=excluded
        )
        pairs = select_candidate_edges(graph, weights, 1.4, seed=6)
        originals = set(graph.endpoint_pairs())
        fresh = [p for p in as_tuples(pairs) if p not in originals]
        for u, v in fresh:
            assert u not in (0, 1, 2)
            assert v not in (0, 1, 2)

    def test_weight_shape_checked(self, graph):
        with pytest.raises(ObfuscationError):
            select_candidate_edges(graph, np.ones(3), 1.2)

    def test_impossible_budget_rejected(self, graph):
        with pytest.raises(ObfuscationError):
            select_candidate_edges(
                graph, selection_weights(np.ones(graph.n_nodes)), 1e6
            )

    def test_zero_budget_rejected(self):
        g = UncertainGraph(4, [(0, 1, 0.5)])
        with pytest.raises(ObfuscationError):
            select_candidate_edges(g, np.full(4, 0.25), 0.0)

    def test_reproducible(self, graph):
        weights = selection_weights(np.ones(graph.n_nodes))
        a = select_candidate_edges(graph, weights, 1.3, seed=7)
        b = select_candidate_edges(graph, weights, 1.3, seed=7)
        assert as_tuples(a) == as_tuples(b)


class TestBatchedWalkMatchesReference:
    """The batched walk against the one-draw loop it replaced: the same
    candidate pairs and the same generator state afterwards."""

    @settings(max_examples=150, deadline=None)
    @given(case=walk_cases(), seed=st.integers(0, 2**32 - 1))
    def test_same_pairs_and_stream(self, case, seed):
        graph, weights, multiplier, max_rounds = case
        assert_walks_agree(graph, weights, multiplier, seed, max_rounds)

    @pytest.mark.parametrize("max_rounds", [1, 2048, 4096, None])
    def test_round_cap_hit(self, max_rounds):
        """Only vertices 0 and 1 carry weight and their edge is certain
        never to be dropped (p = 0), so the walk can never reach the
        target and stops at the cap, checked between batches."""
        graph = UncertainGraph(6, [(0, 1, 0.0), (2, 3, 0.5), (4, 5, 1.0)])
        weights = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
        assert_walks_agree(graph, weights, 2.0, 3, max_rounds)
        pairs = select_candidate_edges(
            graph, weights, 2.0, seed=3, max_rounds=max_rounds
        )
        assert as_tuples(pairs) == sorted(graph.endpoint_pairs())

    @pytest.mark.parametrize("alpha, multiplier", [
        (1.0, 1.05), (1.0, 1.3), (1.0, 2.0),
        # Concentrated weights re-draw the same few pairs, so these walks
        # span 2, 6 and (at the round cap) 90 batches: an edge dropped in
        # one batch must stay dropped in the next.
        (0.05, 1.3), (0.1, 2.0), (0.02, 2.0),
    ])
    def test_profile_graph(self, alpha, multiplier):
        graph = load_profile("brightkite", scale=0.2, seed=3)
        weights = np.random.default_rng(5).dirichlet(
            np.full(graph.n_nodes, alpha)
        )
        assert_walks_agree(graph, weights, multiplier, 9, None)
