"""DegreeUncertaintyCache: bit-identical equivalence with the full checker.

The incremental checker's whole contract is *observational equality*: for
any delta, ``cache.check_delta(delta, ...)`` must return exactly the
report ``check_obfuscation(overlay(base, delta), ...)`` would -- same
entropy floats bit for bit, same obfuscated mask, same epsilon-hat.
These tests drive that contract with randomized graphs and deltas
(seeded numpy sweeps plus a hypothesis property) and with GenObf-shaped
deltas -- a whole candidate edge set touching nearly every vertex --
pin the batched Poisson-binomial DP to the per-row kernel, and pin down
the cache mechanics: rollback between calls, monotone width growth,
clone isolation, and delta validation errors.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ChameleonConfig
from repro.core.noise import perturb_probabilities
from repro.core.parallel import _edge_noise_scales
from repro.core.selection import select_candidate_edges
from repro.datasets import load_profile
from repro.exceptions import ObfuscationError
import repro.privacy
from repro.privacy import (
    DegreeUncertaintyCache,
    check_obfuscation,
    degree_uncertainty_matrix,
    expected_degree_knowledge,
    poisson_binomial_pmf,
)
from repro.privacy.entropy import entropy_terms
from repro.privacy.incremental import _incident_index, _write_pmf_rows
from repro.ugraph import UncertainGraph, apply_edge_updates, overlay


def random_graph(rng, n_nodes=None, density=0.25):
    n = int(n_nodes if n_nodes is not None else rng.integers(3, 16))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.uniform() < density:
                edges.append((u, v, float(rng.uniform())))
    return UncertainGraph(n, edges)


def random_delta(graph, rng, max_edges=8):
    """A GenObf-like delta: existing-edge tweaks plus brand-new pairs."""
    n = graph.n_nodes
    n_pairs = n * (n - 1) // 2
    size = min(int(rng.integers(0, max_edges + 1)), n_pairs)
    seen = set()
    delta = []
    while len(delta) < size:
        u, v = rng.integers(0, n, size=2)
        u, v = int(min(u, v)), int(max(u, v))
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        p_new = float(rng.choice([0.0, 1.0, rng.uniform()]))
        delta.append((u, v, float(graph.probability(u, v)), p_new))
    return delta


def genobf_delta(graph, rng, sigma):
    """One GenObf trial's delta: the whole candidate set ``E_C`` drawn by
    ``select_candidate_edges`` at the default size multiplier, perturbed
    as Algorithm 3 does."""
    config = ChameleonConfig()
    weights = rng.dirichlet(np.ones(graph.n_nodes))
    pairs = select_candidate_edges(
        graph, weights, config.size_multiplier, seed=rng
    )
    us = np.array([u for u, __ in pairs], dtype=np.int64)
    vs = np.array([v for __, v in pairs], dtype=np.int64)
    current = graph.pair_probabilities(us, vs)
    perturbed = perturb_probabilities(
        current,
        _edge_noise_scales(us, vs, weights, sigma),
        mode=config.perturbation_mode,
        white_noise=config.white_noise,
        seed=rng,
    )
    return us, vs, current, perturbed


def assert_reports_identical(full, incremental):
    np.testing.assert_array_equal(full.entropies, incremental.entropies)
    np.testing.assert_array_equal(full.obfuscated, incremental.obfuscated)
    assert full.epsilon_achieved == incremental.epsilon_achieved
    assert full.satisfied == incremental.satisfied
    assert full.k == incremental.k and full.epsilon == incremental.epsilon
    assert full.entropies.tobytes() == incremental.entropies.tobytes()


class TestBitIdenticalEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_and_deltas(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng)
        knowledge = expected_degree_knowledge(graph)
        cache = DegreeUncertaintyCache(graph, knowledge=knowledge)
        for __ in range(6):
            delta = random_delta(graph, rng)
            candidate = overlay(
                graph, ((u, v, p_new) for u, v, __, p_new in delta)
            )
            full = check_obfuscation(
                candidate, 3, 0.2, knowledge=knowledge
            )
            incremental = cache.check_delta(delta, 3, 0.2)
            assert_reports_identical(full, incremental)

    def test_empty_delta_equals_base_check(self, bridge_graph):
        knowledge = expected_degree_knowledge(bridge_graph)
        cache = DegreeUncertaintyCache(bridge_graph)
        full = check_obfuscation(bridge_graph, 2, 0.1, knowledge=knowledge)
        assert_reports_identical(full, cache.check_base(2, 0.1))
        assert_reports_identical(full, cache.check_delta((), 2, 0.1))

    def test_zeroing_and_certifying_edges(self, bridge_graph):
        """Deltas that push probabilities to the 0 / 1 extremes change the
        pmf support length -- the trickiest path for the in-place rows."""
        knowledge = expected_degree_knowledge(bridge_graph)
        cache = DegreeUncertaintyCache(bridge_graph)
        delta = [
            (0, 1, 0.95, 0.0),
            (2, 3, 0.5, 1.0),
            (0, 5, 0.0, 0.4),  # brand-new edge
        ]
        candidate = overlay(
            bridge_graph, ((u, v, p) for u, v, __, p in delta)
        )
        full = check_obfuscation(candidate, 2, 0.1, knowledge=knowledge)
        assert_reports_identical(full, cache.check_delta(delta, 2, 0.1))

    def test_width_growth_on_new_edges(self, path4):
        """Adding edges to the max-degree vertex widens the matrix; the
        widened cache must still match the full checker afterwards."""
        knowledge = expected_degree_knowledge(path4)
        cache = DegreeUncertaintyCache(path4, knowledge=knowledge)
        grow = [(0, 2, 0.0, 0.9), (0, 3, 0.0, 0.8)]
        candidate = overlay(path4, ((u, v, p) for u, v, __, p in grow))
        full = check_obfuscation(candidate, 2, 0.2, knowledge=knowledge)
        assert_reports_identical(full, cache.check_delta(grow, 2, 0.2))
        # ... and the next (smaller) delta still matches: rollback plus
        # the now-wider matrix must stay report-neutral.
        small = [(1, 2, 0.5, 0.1)]
        candidate2 = overlay(path4, ((u, v, p) for u, v, __, p in small))
        full2 = check_obfuscation(candidate2, 2, 0.2, knowledge=knowledge)
        assert_reports_identical(full2, cache.check_delta(small, 2, 0.2))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_property_randomized(self, data):
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, n_nodes=data.draw(st.integers(2, 10)))
        knowledge = expected_degree_knowledge(graph)
        cache = DegreeUncertaintyCache(graph, knowledge=knowledge)
        delta = random_delta(graph, rng, max_edges=5)
        k = data.draw(st.integers(1, 6), label="k")
        epsilon = data.draw(
            st.floats(0.0, 0.5, allow_nan=False), label="epsilon"
        )
        candidate = overlay(
            graph, ((u, v, p_new) for u, v, __, p_new in delta)
        )
        full = check_obfuscation(candidate, k, epsilon, knowledge=knowledge)
        incremental = cache.check_delta(delta, k, epsilon)
        assert_reports_identical(full, incremental)


class TestGenObfShapedDeltas:
    """Deltas as GenObf produces them: ``1.3 |E|`` entries, a fifth of
    them fresh pairs, touching about every vertex."""

    @pytest.mark.parametrize("profile,seed", [
        ("dblp", 3), ("ppi", 4), ("brightkite", 5),
    ])
    def test_candidate_sets_match_full_checker(self, profile, seed):
        graph = load_profile(profile, scale=0.2, seed=seed)
        knowledge = expected_degree_knowledge(graph)
        cache = DegreeUncertaintyCache(graph, knowledge=knowledge)
        rng = np.random.default_rng(seed)
        for sigma in (1.0, 0.1, 0.02):
            us, vs, current, perturbed = genobf_delta(graph, rng, sigma)
            fresh = graph.pair_edge_ids(us, vs) < 0
            touched = np.unique(np.concatenate([us, vs])).size
            assert fresh.sum() > 0.15 * graph.n_edges
            assert touched > 0.9 * graph.n_nodes
            candidate = apply_edge_updates(graph, us, vs, perturbed)
            for k, epsilon in ((5, 0.1), (20, 0.01)):
                full = check_obfuscation(
                    candidate, k, epsilon, knowledge=knowledge
                )
                assert_reports_identical(
                    full,
                    cache.check_edge_arrays(
                        us, vs, current, perturbed, k, epsilon
                    ),
                )
        assert_reports_identical(
            check_obfuscation(graph, 5, 0.1, knowledge=knowledge),
            cache.check_base(5, 0.1),
        )


def ragged_rows():
    """Lists of factor lists: empty rows, p in {0, 1}, equal lengths."""
    factor = st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    row = st.lists(factor, max_size=12)
    equal_rows = st.integers(0, 8).flatmap(
        lambda size: st.lists(
            st.lists(factor, min_size=size, max_size=size), max_size=6
        )
    )
    return st.one_of(st.lists(row, max_size=10), equal_rows)


class TestBatchedPmfRows:
    """The batched DP equals ``poisson_binomial_pmf`` row by row, bitwise."""

    @settings(max_examples=150, deadline=None)
    @given(
        factors=ragged_rows(),
        block_rows=st.sampled_from([1, 2, 3, 4096]),
        extra_width=st.integers(0, 3),
        data=st.data(),
    )
    def test_rows_equal_per_row_kernel(
        self, factors, block_rows, extra_width, data
    ):
        m = len(factors)
        lengths = np.array([len(f) for f in factors], dtype=np.int64)
        values = np.array(
            [p for f in factors for p in f], dtype=np.float64
        )
        rows = np.array(
            data.draw(st.permutations(range(m)), label="rows"),
            dtype=np.int64,
        )
        width = int(lengths.max(initial=0)) + 1 + extra_width
        matrix = np.full((m, width), np.nan)
        with mock.patch(
            "repro.privacy.incremental._DP_BLOCK_ROWS", block_rows
        ):
            _write_pmf_rows(matrix, rows, lengths, values)
        for i, f in enumerate(factors):
            expected = np.zeros(width)
            pmf = poisson_binomial_pmf(np.array(f, dtype=np.float64))
            expected[: pmf.size] = pmf
            assert matrix[rows[i]].tobytes() == expected.tobytes()

    def test_all_empty_input_writes_nothing(self):
        matrix = np.full((2, 3), 7.0)
        _write_pmf_rows(
            matrix, np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64), np.zeros(0),
        )
        assert (matrix == 7.0).all()

    @pytest.mark.parametrize("seed", range(6))
    def test_build_equals_degree_uncertainty_matrix(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, n_nodes=int(rng.integers(0, 30)))
        if graph.n_edges:
            # explicit zero-probability edges and certain edges
            p = graph.edge_probabilities.copy()
            p[rng.random(p.size) < 0.2] = 0.0
            p[rng.random(p.size) < 0.1] = 1.0
            graph = graph.with_probabilities(p)
        oracle = degree_uncertainty_matrix(graph)
        built = DegreeUncertaintyCache(graph).base_matrix
        assert built.shape == oracle.shape
        assert built.tobytes() == oracle.tobytes()

    def test_build_equals_oracle_on_profile(self, small_profile_graph):
        built = DegreeUncertaintyCache(small_profile_graph).base_matrix
        oracle = degree_uncertainty_matrix(small_profile_graph)
        assert built.tobytes() == oracle.tobytes()


class TestCacheMechanics:
    def test_rollback_between_calls(self, bridge_graph):
        """A delta check must not leak state into the next check."""
        cache = DegreeUncertaintyCache(bridge_graph)
        base_before = cache.check_base(2, 0.1)
        cache.check_delta([(2, 3, 0.5, 0.0)], 2, 0.1)
        base_after = cache.check_base(2, 0.1)
        assert_reports_identical(base_before, base_after)

    def test_rollback_on_error_mid_sequence(self, bridge_graph):
        cache = DegreeUncertaintyCache(bridge_graph)
        base_before = cache.check_base(2, 0.1)
        with pytest.raises(ObfuscationError):
            cache.check_delta([(0, 1, 0.95, 0.5)], 0, 0.1)  # invalid k
        assert_reports_identical(base_before, cache.check_base(2, 0.1))

    def test_noop_entries_are_dropped(self, triangle):
        cache = DegreeUncertaintyCache(triangle)
        report = cache.check_delta([(0, 1, 0.5, 0.5)], 2, 0.3)
        assert_reports_identical(cache.check_base(2, 0.3), report)

    def test_default_knowledge_is_base_graph(self, triangle):
        cache = DegreeUncertaintyCache(triangle)
        np.testing.assert_array_equal(
            cache.knowledge, expected_degree_knowledge(triangle)
        )
        assert cache.graph is triangle

    def test_checker_registry(self):
        """The incremental cache is the only production checker; the
        full recompute is a test oracle, not a configuration knob."""
        assert not hasattr(repro.privacy, "OBFUSCATION_CHECKERS")
        assert not hasattr(ChameleonConfig(), "obfuscation_checker")

    def test_apply_on_clone_leaves_parent_untouched(self):
        """A clone's apply rebinds its own incident index: the parent and
        later clones answer exactly as before (the warm service hands
        clones of one pristine cache to every job)."""
        rng = np.random.default_rng(11)
        graph = random_graph(rng, n_nodes=20, density=0.2)
        parent = DegreeUncertaintyCache(graph)
        knowledge = parent.knowledge
        probe = random_delta(graph, rng)
        base_before = parent.check_base(2, 0.2)
        probe_before = parent.check_delta(probe, 2, 0.2)
        matrix_before = parent.base_matrix.copy()

        def fresh_pairs(at):
            return [
                (at, v, 0.0, float(rng.uniform(0.2, 0.9)))
                for v in range(at + 1, graph.n_nodes)
                if not graph.has_edge(at, v)
            ][:3]

        deltas = (
            fresh_pairs(0) + [(int(graph.edge_src[0]),
                               int(graph.edge_dst[0]),
                               float(graph.edge_probabilities[0]), 0.05)],
            fresh_pairs(0) + fresh_pairs(1),
        )
        for delta in deltas:
            clone = parent.clone()
            us, vs, p_old, p_new = (np.array(c) for c in zip(*delta))
            patched = clone.apply_edge_arrays(us, vs, p_old, p_new)
            assert patched.n_edges > graph.n_edges
            fresh = DegreeUncertaintyCache(patched, knowledge=knowledge)
            assert_reports_identical(
                fresh.check_base(2, 0.2), clone.check_base(2, 0.2)
            )
            assert clone.base_matrix.tobytes() == (
                fresh.base_matrix.tobytes()
            )
            follow_up = random_delta(patched, rng)
            assert_reports_identical(
                fresh.check_delta(follow_up, 2, 0.2),
                clone.check_delta(follow_up, 2, 0.2),
            )
            assert parent.graph is graph
            assert parent.base_matrix.tobytes() == matrix_before.tobytes()
            assert_reports_identical(base_before, parent.check_base(2, 0.2))
            assert_reports_identical(
                probe_before, parent.check_delta(probe, 2, 0.2)
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_chained_applies_match_fresh_builds(self, seed):
        """Applying deltas one after another (fresh pairs landing on
        vertices with empty segments included) leaves the incident index
        and every answer equal to a freshly built cache."""
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, n_nodes=int(rng.integers(4, 18)),
                             density=0.15)
        cache = DegreeUncertaintyCache(graph)
        knowledge = cache.knowledge
        for __ in range(4):
            delta = random_delta(cache.graph, rng)
            if delta:
                us, vs, p_old, p_new = (np.array(c) for c in zip(*delta))
                cache.apply_edge_arrays(us, vs, p_old, p_new)
            fresh = DegreeUncertaintyCache(cache.graph, knowledge=knowledge)
            np.testing.assert_array_equal(cache._indptr, fresh._indptr)
            np.testing.assert_array_equal(cache._indices, fresh._indices)
            width = fresh.base_matrix.shape[1]
            assert cache.base_matrix[:, :width].tobytes() == (
                fresh.base_matrix.tobytes()
            )
            assert not cache.base_matrix[:, width:].any()
            assert_reports_identical(
                fresh.check_base(2, 0.2), cache.check_base(2, 0.2)
            )


def chain_delta(draw, graph):
    """One stream step: drift on stored edges, drops to 0, fresh pairs
    (some at 0, which still join the edge universe), unique pairs."""
    n = graph.n_nodes
    stored = list(graph.endpoint_pairs())
    fresh = [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if not graph.has_edge(u, v)
    ]
    delta = []
    for u, v in draw(st.lists(st.sampled_from(stored), unique=True,
                              max_size=6)) if stored else []:
        kind = draw(st.sampled_from(["drift", "zero"]))
        p_new = 0.0 if kind == "zero" else draw(st.floats(0.0, 1.0))
        delta.append((u, v, graph.probability(u, v), p_new))
    for u, v in draw(st.lists(st.sampled_from(fresh), unique=True,
                              max_size=4)) if fresh else []:
        p_new = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        delta.append((u, v, 0.0, p_new))
    order = draw(st.permutations(range(len(delta))))
    return [delta[i] for i in order]


def as_arrays(delta):
    columns = zip(*delta) if delta else ((), (), (), ())
    return tuple(np.asarray(c, dtype=float) for c in columns)


def assert_carried_state(cache, k, epsilon):
    """The carried-forward indexes and terms equal fresh rebuilds, and the
    base report equals the full checker bit for bit."""
    graph = cache.graph
    indptr, indices = _incident_index(graph)
    np.testing.assert_array_equal(cache._indptr, indptr)
    np.testing.assert_array_equal(cache._indices, indices)
    assert not cache._indptr.flags.writeable
    assert not cache._indices.flags.writeable
    assert graph._pair_key_cache is not None  # carried, not rebuilt
    keys = graph.edge_src * graph.n_nodes + graph.edge_dst
    order = np.argsort(keys, kind="stable")
    sorted_keys, ids = graph._pair_key_cache
    np.testing.assert_array_equal(sorted_keys, keys[order])
    np.testing.assert_array_equal(ids, order)
    assert cache._terms.tobytes() == (
        entropy_terms(cache.base_matrix).tobytes()
    )
    assert_reports_identical(
        check_obfuscation(graph, k, epsilon, knowledge=cache.knowledge),
        cache.check_base(k, epsilon),
    )


class TestCarriedForwardState:
    """Chains of ``apply_edge_arrays`` carry the pair-key index, the CSR
    incident index and the entropy terms forward; after every step each
    equals what a fresh build of the patched graph would hold."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_apply_chains_match_fresh_state(self, data):
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, n_nodes=data.draw(st.integers(3, 10)),
                             density=data.draw(st.sampled_from([0.1, 0.4])))
        k = data.draw(st.integers(1, 4), label="k")
        cache = DegreeUncertaintyCache(graph)
        cache.graph._pair_key_index()  # built by the first lookup in use
        assert_carried_state(cache, k, 0.2)
        for __ in range(data.draw(st.integers(1, 5), label="steps")):
            cache.apply_edge_arrays(*as_arrays(chain_delta(data.draw,
                                                           cache.graph)))
            assert_carried_state(cache, k, 0.2)
            # A check in between patches and rolls back rows only.
            us, vs, p_old, p_new = as_arrays(chain_delta(data.draw,
                                                         cache.graph))
            candidate = apply_edge_updates(cache.graph, us, vs, p_new)
            assert_reports_identical(
                check_obfuscation(candidate, k, 0.2,
                                  knowledge=cache.knowledge),
                cache.check_edge_arrays(us, vs, p_old, p_new, k, 0.2),
            )
            assert_carried_state(cache, k, 0.2)

    def test_clone_copies_terms(self, bridge_graph):
        parent = DegreeUncertaintyCache(bridge_graph)
        terms = parent._terms.copy()
        clone = parent.clone()
        clone.apply_edge_arrays(*as_arrays([(2, 3, 0.5, 0.9),
                                            (0, 5, 0.0, 0.4)]))
        assert parent._terms.tobytes() == terms.tobytes()
        assert_carried_state(clone, 2, 0.1)

    def test_from_base_matrix_builds_terms(self, small_profile_graph):
        cache = DegreeUncertaintyCache(small_profile_graph)
        twin = DegreeUncertaintyCache.from_base_matrix(
            small_profile_graph, cache.base_matrix
        )
        assert twin._terms.tobytes() == cache._terms.tobytes()
        assert_reports_identical(cache.check_base(3, 0.1),
                                 twin.check_base(3, 0.1))


class TestDeltaValidation:
    @pytest.fixture
    def cache(self, triangle):
        return DegreeUncertaintyCache(triangle)

    def test_self_loop_rejected(self, cache):
        with pytest.raises(ObfuscationError, match="self-loop"):
            cache.check_delta([(1, 1, 0.0, 0.5)], 2, 0.1)

    def test_out_of_range_vertex_rejected(self, cache):
        with pytest.raises(ObfuscationError, match="outside"):
            cache.check_delta([(0, 7, 0.0, 0.5)], 2, 0.1)

    def test_duplicate_pair_rejected(self, cache):
        with pytest.raises(ObfuscationError, match="duplicate"):
            cache.check_delta(
                [(0, 1, 0.5, 0.6), (1, 0, 0.5, 0.7)], 2, 0.1
            )

    def test_stale_p_old_rejected(self, cache):
        with pytest.raises(ObfuscationError, match="stale"):
            cache.check_delta([(0, 1, 0.4, 0.6)], 2, 0.1)

    def test_invalid_p_new_rejected(self, cache):
        with pytest.raises(ObfuscationError, match="finite value"):
            cache.check_delta([(0, 1, 0.5, 1.5)], 2, 0.1)
        with pytest.raises(ObfuscationError, match="finite value"):
            cache.check_delta([(0, 1, 0.5, float("nan"))], 2, 0.1)

    def test_bad_knowledge_shape_rejected(self, triangle):
        with pytest.raises(ObfuscationError, match="shape"):
            DegreeUncertaintyCache(triangle, knowledge=np.array([1, 2]))
