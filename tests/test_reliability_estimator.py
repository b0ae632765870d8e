"""Monte-Carlo reliability (world-store views) vs. the exact oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import as_generator
from repro.exceptions import EstimationError
from repro.reliability import (
    WorldStore,
    exact_expected_connected_pairs,
    exact_pairwise_reliability,
    exact_reliability_discrepancy,
    exact_two_terminal,
    graph_delta,
    reliability_discrepancy,
    sample_vertex_pairs,
)
from repro.ugraph import UncertainGraph


class TestEstimatorAgainstOracle:
    def test_two_terminal_converges(self, triangle):
        est = WorldStore(triangle, 20_000, seed=0).base_view()
        for u in range(3):
            for v in range(u + 1, 3):
                assert est.two_terminal(u, v) == pytest.approx(
                    exact_two_terminal(triangle, u, v), abs=0.02
                )

    def test_expected_connected_pairs_converges(self, bridge_graph):
        est = WorldStore(bridge_graph, 20_000, seed=1).base_view()
        assert est.expected_connected_pairs() == pytest.approx(
            exact_expected_connected_pairs(bridge_graph), rel=0.03
        )

    def test_pairwise_matrix_converges(self, path4):
        est = WorldStore(path4, 20_000, seed=2).base_view()
        np.testing.assert_allclose(
            est.pairwise_reliability(),
            exact_pairwise_reliability(path4),
            atol=0.02,
        )

    def test_discrepancy_converges(self):
        a = UncertainGraph(4, [(0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.7)])
        b = UncertainGraph(4, [(0, 1, 0.4), (1, 2, 0.5), (2, 3, 0.9)])
        exact_total = exact_reliability_discrepancy(a, b)
        estimated = reliability_discrepancy(
            a, b, n_samples=20_000, seed=3, per_pair=False
        )
        assert estimated == pytest.approx(exact_total, rel=0.1, abs=0.05)


@st.composite
def small_uncertain_graphs(draw) -> UncertainGraph:
    """2-7 vertices, at most 10 edges, probabilities in [0.05, 0.95]."""
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10))
    probs = draw(st.lists(
        st.floats(min_value=0.05, max_value=0.95),
        min_size=len(chosen), max_size=len(chosen),
    ))
    return UncertainGraph(n, [(u, v, p) for (u, v), p in zip(chosen, probs)])


class TestEstimatorAgainstEnumeration:
    """The sampled estimates land within five standard errors of exact
    world enumeration -- ground truth, not agreement between engines."""

    N = 4000

    @settings(derandomize=True, deadline=None)
    @given(graph=small_uncertain_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_estimates_within_five_standard_errors(self, graph, seed):
        est = WorldStore(graph, self.N, seed=seed).base_view()
        exact = exact_pairwise_reliability(graph)
        bound = 5.0 * np.sqrt(exact * (1.0 - exact) / self.N) + 1e-9
        assert np.all(np.abs(est.pairwise_reliability() - exact) <= bound)

        counts = est.pair_counts
        standard_error = counts.std(ddof=1) / np.sqrt(self.N)
        assert abs(
            est.expected_connected_pairs()
            - exact_expected_connected_pairs(graph)
        ) <= 5.0 * standard_error + 1e-9


@st.composite
def graphs_with_candidates(draw) -> tuple[UncertainGraph, UncertainGraph]:
    """A graph of 2-7 vertices and at most 12 edges, and a candidate of
    at most 12 edges that perturbs some of its edges, drops others and
    adds fresh pairs (so the world store grows columns)."""
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    probability = st.floats(min_value=0.05, max_value=0.95)
    probs = draw(st.lists(
        probability, min_size=len(chosen), max_size=len(chosen)
    ))
    graph = UncertainGraph(
        n, [(u, v, p) for (u, v), p in zip(chosen, probs)]
    )
    candidate = []
    for (u, v), p in zip(chosen, probs):
        fate = draw(st.sampled_from(["keep", "perturb", "drop"]))
        if fate == "keep":
            candidate.append((u, v, p))
        elif fate == "perturb":
            candidate.append((u, v, draw(st.floats(0.0, 1.0))))
    free = [pair for pair in pairs if pair not in chosen]
    room = min(4, 12 - len(candidate))
    if free and room > 0:
        for u, v in draw(st.lists(
            st.sampled_from(free), unique=True, max_size=room
        )):
            candidate.append((u, v, draw(probability)))
    return graph, UncertainGraph(n, candidate)


def binomial_bound(exact: np.ndarray, n_samples: int) -> np.ndarray:
    """Five binomial standard errors of an ``n_samples`` mean, + 1/N."""
    return (
        5.0 * np.sqrt(exact * (1.0 - exact) / n_samples) + 1.0 / n_samples
    )


class TestDiscrepancyAgainstEnumeration:
    """Delta (Definition 2) tied to exact world enumeration: every pair's
    base and candidate reliability lands within five binomial standard
    errors (+1/N) of enumeration, and the estimated Delta within the
    sum of those bounds (triangle inequality) of the exact Delta -- on
    the all-pairs and the ``n_pairs`` path, antithetic or not, in one
    chunk or many."""

    N = 2000
    PAIRS = 40

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        case=graphs_with_candidates(),
        seed=st.integers(0, 2**32 - 1),
        antithetic=st.booleans(),
        chunked=st.booleans(),
        sampled=st.booleans(),
    )
    def test_delta_within_enumeration_bounds(
        self, case, seed, antithetic, chunked, sampled
    ):
        graph, candidate = case
        n_samples = self.N
        # A 1-byte budget asks for 1-world chunks (the store coalesces
        # them up to its chunk cap) and turns off the pair cache.
        options = dict(
            antithetic=antithetic, memory_budget=1 if chunked else None
        )
        exact_base = exact_pairwise_reliability(graph)
        exact_cand = exact_pairwise_reliability(candidate)
        slack = (
            binomial_bound(exact_base, n_samples)
            + binomial_bound(exact_cand, n_samples)
        )

        # The store and pair sample reliability_discrepancy draws.
        rng = as_generator(seed)
        store = WorldStore(
            graph, n_samples, seed=int(rng.integers(0, 2**63 - 1)),
            **options,
        )
        if chunked:
            assert store.n_chunks > 1
        view = store.derive(graph_delta(graph, candidate))
        base_hat = store.base_pairwise_reliability()
        cand_hat = view.pairwise_reliability()
        assert np.all(np.abs(base_hat - exact_base)
                      <= binomial_bound(exact_base, n_samples))
        assert np.all(np.abs(cand_hat - exact_cand)
                      <= binomial_bound(exact_cand, n_samples))

        if sampled:
            pairs = sample_vertex_pairs(graph.n_nodes, self.PAIRS, seed=rng)
            u, v = pairs[:, 0], pairs[:, 1]
            np.testing.assert_array_equal(
                store.base_view().reliability_of_pairs(pairs), base_hat[u, v]
            )
            np.testing.assert_array_equal(
                view.reliability_of_pairs(pairs), cand_hat[u, v]
            )
            value = reliability_discrepancy(
                graph, candidate, n_samples, n_pairs=self.PAIRS, seed=seed,
                **options,
            )
            exact = float(np.abs(exact_base[u, v] - exact_cand[u, v]).mean())
            allowed = float(slack[u, v].mean())
        else:
            value = reliability_discrepancy(
                graph, candidate, n_samples, seed=seed, per_pair=False,
                **options,
            )
            exact = exact_reliability_discrepancy(graph, candidate)
            allowed = float(np.triu(slack, k=1).sum())
        assert abs(value - exact) <= allowed + 1e-9


class TestEstimatorBehavior:
    def test_self_pair_is_one(self, triangle):
        est = WorldStore(triangle, 10, seed=0).base_view()
        assert est.two_terminal(2, 2) == 1.0

    def test_out_of_range_pair_rejected(self, triangle):
        est = WorldStore(triangle, 10, seed=0).base_view()
        with pytest.raises(EstimationError):
            est.two_terminal(0, 9)

    def test_invalid_sample_count(self, triangle):
        with pytest.raises(EstimationError):
            WorldStore(triangle, n_samples=0)

    def test_reliability_of_pairs_matches_two_terminal(self, path4):
        est = WorldStore(path4, 5000, seed=4).base_view()
        pairs = np.array([[0, 1], [0, 3]])
        vec = est.reliability_of_pairs(pairs)
        assert vec[0] == pytest.approx(est.two_terminal(0, 1))
        assert vec[1] == pytest.approx(est.two_terminal(0, 3))

    def test_reliability_of_pairs_shape_checked(self, path4):
        est = WorldStore(path4, 10, seed=0).base_view()
        with pytest.raises(EstimationError):
            est.reliability_of_pairs(np.array([0, 1, 2]))

    def test_average_all_pairs_reliability_bounds(self, small_profile_graph):
        est = WorldStore(small_profile_graph, 200, seed=5).base_view()
        value = est.average_all_pairs_reliability()
        assert 0.0 <= value <= 1.0

    def test_deterministic_connected_graph(self, certain_square):
        est = WorldStore(certain_square, 50, seed=6).base_view()
        assert est.average_all_pairs_reliability() == pytest.approx(1.0)

    def test_seeded_reproducibility(self, triangle):
        a = WorldStore(triangle, 500, seed=7).base_view()
        b = WorldStore(triangle, 500, seed=7).base_view()
        assert a.two_terminal(0, 2) == b.two_terminal(0, 2)


class TestDiscrepancyFunction:
    def test_zero_for_identical(self, bridge_graph):
        value = reliability_discrepancy(
            bridge_graph, bridge_graph, n_samples=200, seed=0
        )
        # Same seed drives both estimators: identical graphs sample
        # identical worlds, so the paired discrepancy is exactly zero.
        assert value == 0.0

    def test_requires_matching_vertex_sets(self):
        with pytest.raises(EstimationError):
            reliability_discrepancy(UncertainGraph(2), UncertainGraph(3))

    def test_pair_sampling_path(self, small_profile_graph):
        value = reliability_discrepancy(
            small_profile_graph,
            small_profile_graph.with_probabilities(
                np.clip(small_profile_graph.edge_probabilities * 0.5, 0, 1)
            ),
            n_samples=200,
            n_pairs=500,
            seed=1,
        )
        assert 0.0 <= value <= 1.0


def test_sample_vertex_pairs_distinct_endpoints():
    pairs = sample_vertex_pairs(10, 1000, seed=0)
    assert pairs.shape == (1000, 2)
    assert (pairs[:, 0] != pairs[:, 1]).all()
    assert pairs.min() >= 0 and pairs.max() < 10


def test_sample_vertex_pairs_needs_two_vertices():
    with pytest.raises(EstimationError):
        sample_vertex_pairs(1, 5)
