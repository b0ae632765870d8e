"""Reliability relevance (Algorithm 2) vs. the exact oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import EstimationError
from repro.reliability import (
    compute_relevance,
    connectivity,
    edge_reliability_relevance,
    exact_edge_reliability_relevance,
    vertex_reliability_relevance,
)
from repro.ugraph import UncertainGraph, sample_edge_masks
from tests.relevance_oracle import edge_reliability_relevance_loop


@pytest.mark.parametrize("method", ["grouped", "merge-gain"])
class TestAgainstOracle:
    def test_triangle_converges(self, triangle, method):
        exact = exact_edge_reliability_relevance(triangle)
        estimated = edge_reliability_relevance(
            triangle, n_samples=20_000, seed=0, method=method
        )
        np.testing.assert_allclose(estimated, exact, atol=0.05)

    def test_bridge_graph_ranking(self, bridge_graph, method):
        """The bridge edge must rank first, as in Figure 5(a)."""
        estimated = edge_reliability_relevance(
            bridge_graph, n_samples=5000, seed=1, method=method
        )
        bridge_idx = bridge_graph.edge_id(2, 3)
        assert np.argmax(estimated) == bridge_idx

    def test_path_converges(self, path4, method):
        exact = exact_edge_reliability_relevance(path4)
        estimated = edge_reliability_relevance(
            path4, n_samples=20_000, seed=2, method=method
        )
        np.testing.assert_allclose(estimated, exact, atol=0.06)


class TestDegenerateProbabilities:
    def test_certain_edge_handled(self):
        """An edge with p == 1 has no absent samples; fallback must fire."""
        g = UncertainGraph(3, [(0, 1, 1.0), (1, 2, 0.5)])
        exact = exact_edge_reliability_relevance(g)
        estimated = edge_reliability_relevance(g, n_samples=4000, seed=3)
        np.testing.assert_allclose(estimated, exact, atol=0.06)

    def test_impossible_edge_handled(self):
        g = UncertainGraph(3, [(0, 1, 0.0), (1, 2, 0.5)])
        exact = exact_edge_reliability_relevance(g)
        estimated = edge_reliability_relevance(
            g, n_samples=4000, seed=4, method="grouped"
        )
        np.testing.assert_allclose(estimated, exact, atol=0.06)

    @pytest.mark.parametrize("method", ["grouped", "merge-gain"])
    def test_many_degenerate_edges_batch_fallback(self, method):
        """A graph dominated by p in {0, 1} edges: the batched fallback
        must stay accurate for *every* degenerate edge.  (The old
        per-edge fallback resampled dedicated worlds per edge -- an
        O(#degenerate * N * |E|) blowup this graph shape triggers.)"""
        edges = []
        for i in range(9):
            p = (1.0, 0.0, 1.0)[i % 3] if i % 4 != 3 else 0.5
            edges.append((i, i + 1, p))
        g = UncertainGraph(10, edges)
        exact = exact_edge_reliability_relevance(g)
        estimated = edge_reliability_relevance(
            g, n_samples=6000, seed=5, method=method
        )
        np.testing.assert_allclose(estimated, exact, atol=0.06)

    def test_all_edges_degenerate(self):
        """Every edge certain or impossible: the shared batch is fully
        deterministic and the fallback result must be exact."""
        g = UncertainGraph(
            5, [(0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.0), (3, 4, 1.0)]
        )
        exact = exact_edge_reliability_relevance(g)
        estimated = edge_reliability_relevance(g, n_samples=64, seed=6)
        np.testing.assert_allclose(estimated, exact, atol=1e-12)


@st.composite
def graphs_with_degenerate_edges(draw) -> UncertainGraph:
    """2-9 vertices, up to 14 edges, many of them at p = 1 or p ~ 0."""
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(
        st.sampled_from(pairs), unique=True, min_size=1, max_size=14
    ))
    probs = draw(st.lists(
        st.sampled_from([1.0, 0.0, 1e-12, 1.0 - 1e-12])
        | st.floats(min_value=0.05, max_value=0.95),
        min_size=len(chosen), max_size=len(chosen),
    ))
    return UncertainGraph(n, [(u, v, p) for (u, v), p in zip(chosen, probs)])


class TestForcedAbsentFallback:
    """The degenerate-edge fallback reuses the sampled worlds and
    relabels only those where the edge was present; forcing the edge
    absent world by world must give the same bits."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        graph=graphs_with_degenerate_edges(),
        seed=st.integers(0, 2**32 - 1),
        method=st.sampled_from(["grouped", "merge-gain"]),
        chunked=st.booleans(),
    )
    @example(
        graph=UncertainGraph(
            6, [(0, 1, 1.0), (1, 2, 1e-12), (2, 3, 1.0), (3, 4, 0.5),
                (4, 5, 0.0), (0, 5, 1.0 - 1e-12)],
        ),
        seed=7, method="merge-gain", chunked=True,
    )
    def test_bit_identical_to_per_world_oracle(
        self, graph, seed, method, chunked
    ):
        with pytest.MonkeyPatch.context() as patch:
            if chunked:
                # One world per labeling batch, and a chunked world
                # store should anything build one.
                patch.setattr(
                    connectivity, "_BATCH_NODE_LIMIT", graph.n_nodes
                )
                patch.setenv("REPRO_WORLD_CHUNK", "3")
            got = edge_reliability_relevance(
                graph, n_samples=24, seed=seed, method=method
            )
        expected = edge_reliability_relevance_loop(graph, 24, seed, method)
        assert got.tobytes() == expected.tobytes()


@st.composite
def graphs_with_certain_edges(draw) -> UncertainGraph:
    """2-7 vertices, at most 10 edges, p in [0, 1] with 0 and 1 common."""
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10))
    probs = draw(st.lists(
        st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
        min_size=len(chosen), max_size=len(chosen),
    ))
    return UncertainGraph(n, [(u, v, p) for (u, v), p in zip(chosen, probs)])


def relevance_bounds(
    graph: UncertainGraph, masks: np.ndarray, method: str
) -> np.ndarray:
    """Five standard errors (+1/N) of each edge's ERR estimate.

    Each estimate is a mean (``grouped``: a difference of two means) of
    per-world values with a known range, and a value of range ``R`` has
    standard deviation at most ``R / 2``.  A world's add-edge gain
    ``|C(u)| * |C(v)|`` lies in ``[0, floor(n^2 / 4)]`` and its
    connected-pair count in ``[0, n(n - 1) / 2]``.  Merge-gain averages
    gains over the worlds where the edge is absent, grouped differences
    the pair-count means of the worlds where it is present and absent,
    and the degenerate-edge fallback averages forced-absent gains over
    all N worlds.  By Hoeffding's inequality an estimate leaves five such
    standard errors with probability below ``2 exp(-12.5)``.
    """
    n_samples = masks.shape[0]
    n = graph.n_nodes
    gain_half_range = (n * n // 4) / 2.0
    pairs_half_range = n * (n - 1) / 4.0
    present = masks.sum(axis=0).astype(np.float64)
    absent = n_samples - present
    fallback = gain_half_range / np.sqrt(n_samples)
    with np.errstate(divide="ignore"):
        if method == "merge-gain":
            se = np.where(
                absent > 0, gain_half_range / np.sqrt(absent), fallback
            )
        else:
            se = np.where(
                (present > 0) & (absent > 0),
                pairs_half_range * np.sqrt(1.0 / present + 1.0 / absent),
                fallback,
            )
    return 5.0 * se + 1.0 / n_samples


class TestAgainstEnumeration:
    """ERR and VRR (Algorithm 2) tied to exact world enumeration, not to
    another estimator: every edge's estimate lands within five standard
    errors (+1/N) of :func:`exact_edge_reliability_relevance`, and each
    vertex's VRR within the p-weighted sum of its edges' bounds of
    ``sum p(e) * exact ERR(e)`` -- for both estimators, with p = 0 and
    p = 1 edges driving the forced-absent fallback."""

    N = 2000

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        graph=graphs_with_certain_edges(),
        seed=st.integers(0, 2**32 - 1),
        method=st.sampled_from(["grouped", "merge-gain"]),
    )
    @example(
        graph=UncertainGraph(
            6, [(0, 1, 1.0), (1, 2, 0.9), (2, 3, 1.0), (3, 4, 0.1),
                (4, 5, 0.0), (0, 2, 0.5)],
        ),
        seed=3, method="merge-gain",
    )
    def test_within_five_standard_errors(self, graph, seed, method):
        result = compute_relevance(
            graph, n_samples=self.N, seed=seed, method=method
        )
        # The worlds the estimator sampled (same seed, same stream).
        masks = sample_edge_masks(graph, self.N, seed=seed)
        bound = relevance_bounds(graph, masks, method)
        exact = exact_edge_reliability_relevance(graph)
        assert np.all(np.abs(result.edge_relevance - exact) <= bound)

        vrr_exact = vertex_reliability_relevance(graph, exact)
        vrr_bound = vertex_reliability_relevance(graph, bound)
        assert np.all(
            np.abs(result.vertex_relevance - vrr_exact) <= vrr_bound + 1e-9
        )


class TestProperties:
    def test_non_negative(self, small_profile_graph):
        err = edge_reliability_relevance(
            small_profile_graph, n_samples=300, seed=5
        )
        assert (err >= 0).all()

    def test_empty_graph(self):
        err = edge_reliability_relevance(UncertainGraph(4), n_samples=10)
        assert err.shape == (0,)

    def test_unknown_method_rejected(self, triangle):
        with pytest.raises(EstimationError):
            edge_reliability_relevance(triangle, method="magic")

    def test_seeded_reproducibility(self, triangle):
        a = edge_reliability_relevance(triangle, n_samples=500, seed=9)
        b = edge_reliability_relevance(triangle, n_samples=500, seed=9)
        np.testing.assert_array_equal(a, b)


class TestVertexRelevance:
    def test_weighted_aggregation(self, triangle):
        err = np.array([1.0, 2.0, 4.0])  # edges (0,1), (1,2)?, (0,2)
        vrr = vertex_reliability_relevance(triangle, err)
        p = triangle.edge_probabilities
        # vertex 0 touches edges (0,1) and (0,2)
        e01 = triangle.edge_id(0, 1)
        e02 = triangle.edge_id(0, 2)
        e12 = triangle.edge_id(1, 2)
        assert vrr[0] == pytest.approx(p[e01] * err[e01] + p[e02] * err[e02])
        assert vrr[1] == pytest.approx(p[e01] * err[e01] + p[e12] * err[e12])

    def test_shape_checked(self, triangle):
        with pytest.raises(EstimationError):
            vertex_reliability_relevance(triangle, np.array([1.0]))

    def test_bridge_endpoints_score_high(self, bridge_graph):
        result = compute_relevance(bridge_graph, n_samples=4000, seed=6)
        vrr = result.vertex_relevance
        # The bridge endpoints (2 and 3) carry the bridge's large ERR.
        assert vrr[2] > vrr[0]
        assert vrr[3] > vrr[5]

    def test_normalized_relevance_in_unit_interval(self, bridge_graph):
        result = compute_relevance(bridge_graph, n_samples=1000, seed=7)
        normalized = result.normalized_vertex_relevance()
        assert normalized.min() >= 0.0
        assert normalized.max() == pytest.approx(1.0)

    def test_normalized_relevance_all_zero(self):
        result = compute_relevance(
            UncertainGraph(3, [(0, 1, 0.0)]), n_samples=100, seed=8
        )
        assert (result.normalized_vertex_relevance() == 0).all()


class TestMergeGainVectorization:
    """The chunked label-block accumulator must match the per-world loop
    bit-for-bit (gains are exact integers, so summation order is free)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_bit_identical_to_loop(self, seed):
        from repro.reliability.connectivity import batch_component_labels
        from repro.reliability.relevance import _merge_gain_accumulate
        from repro.ugraph.worlds import sample_edge_masks
        from tests.relevance_oracle import merge_gain_accumulate_loop

        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        m = int(rng.integers(1, len(pairs) + 1))
        triples = [
            (u, v, float(p))
            for (u, v), p in zip(pairs[:m], rng.random(m))
        ]
        graph = UncertainGraph(n, triples)
        n_samples = int(rng.integers(1, 64))
        masks = sample_edge_masks(graph, n_samples, seed=rng)
        labels = batch_component_labels(graph, masks)
        fast = _merge_gain_accumulate(graph, masks, labels)
        slow = merge_gain_accumulate_loop(graph, masks, labels)
        np.testing.assert_array_equal(fast[0], slow[0])
        np.testing.assert_array_equal(fast[1], slow[1])
        assert fast[1].dtype == slow[1].dtype

    def test_partial_blocks_compose(self, bridge_graph):
        """Accumulating 2-world slices must reproduce the one-shot call:
        the chunked path is a pure sum over world blocks."""
        from repro.reliability import relevance as rel
        from repro.reliability.connectivity import batch_component_labels
        from repro.ugraph.worlds import sample_edge_masks

        masks = sample_edge_masks(bridge_graph, 33, seed=9)
        labels = batch_component_labels(bridge_graph, masks)
        whole = rel._merge_gain_accumulate(bridge_graph, masks, labels)
        parts_gain = np.zeros_like(whole[0])
        parts_count = np.zeros_like(whole[1])
        for start in range(0, 33, 2):
            g, c = rel._merge_gain_accumulate(
                bridge_graph, masks[start:start + 2], labels[start:start + 2]
            )
            parts_gain += g
            parts_count += c
        np.testing.assert_array_equal(parts_gain, whole[0])
        np.testing.assert_array_equal(parts_count, whole[1])
