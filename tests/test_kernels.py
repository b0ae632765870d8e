"""The hot array kernels, each tested where it lives.

The Poisson-binomial DP and the degree-matrix tail fold
(:mod:`repro.privacy.degree_distribution`), the truncated-normal
transform (:func:`repro.core.noise.truncated_normal_noise`), the world
store's mask re-threshold (:func:`repro.kernels.rethreshold_masks`) and
the batched component labeling (:mod:`repro.reliability.connectivity`)
are pinned against independent references (brute-force enumeration,
closed forms, the dependency-free union-find oracle), on the edge cases
where drift would hide (empty edge sets, p in {0, 1}, single-vertex
graphs, tail folding at the last bucket).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from repro import kernels
from repro.core.noise import truncated_normal_noise
from repro.privacy.degree_distribution import (
    degree_uncertainty_matrix,
    poisson_binomial_pmf,
)
from repro.reliability.connectivity import (
    _batched_labels_chunked,
    component_labels_for_edges,
)
from repro.reliability.union_find import canonical_component_labels
from repro.ugraph import UncertainGraph

probabilities = st.floats(min_value=0.0, max_value=1.0)


def _star_row(p, width):
    """Row 0 of the width-capped degree matrix of a star whose centre's
    incident probabilities are ``p``, with the pmf it folds."""
    graph = UncertainGraph(
        len(p) + 1, [(0, i + 1, pi) for i, pi in enumerate(p)]
    )
    matrix = degree_uncertainty_matrix(graph, max_degree=width - 1)
    positive = np.asarray([pi for pi in p if pi > 0.0], dtype=np.float64)
    return matrix[0], poisson_binomial_pmf(positive)


class _FixedUniforms(np.random.Generator):
    """A generator whose ``random`` returns preset uniforms."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self._u = np.asarray(u, dtype=np.float64)

    def random(self, size=None):
        return self._u[:size].copy()


def _closed_form(u, sigma):
    """``R_sigma``'s inverse CDF, written out independently."""
    return np.clip(
        sigma * ndtri(0.5 + u * (ndtr(1.0 / sigma) - 0.5)), 0.0, 1.0
    )


def _coo_renumber_labels(n_nodes, src, dst, masks):
    """The block-diagonal labeling built through COO -> CSR conversion,
    with global component ids mapped to per-row consecutive ids in
    ascending order (oracle for the direct CSR kernel)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n_samples = masks.shape[0]
    world_idx, edge_idx = np.nonzero(masks)
    offsets = world_idx * n_nodes
    total = n_samples * n_nodes
    adjacency = coo_matrix(
        (np.ones(edge_idx.size, dtype=np.int8),
         (src[edge_idx] + offsets, dst[edge_idx] + offsets)),
        shape=(total, total),
    ).tocsr()
    n_components, flat = connected_components(adjacency, directed=False)
    labels = flat.reshape(n_samples, n_nodes)
    comp_row = np.empty(n_components, dtype=np.int64)
    comp_row[labels.ravel()] = np.repeat(np.arange(n_samples), n_nodes)
    per_row = np.bincount(comp_row, minlength=n_samples)
    order = np.argsort(comp_row, kind="stable")
    row_starts = np.repeat(np.cumsum(per_row) - per_row, per_row)
    renumbered = np.empty(n_components, dtype=np.int32)
    renumbered[order] = np.arange(n_components) - row_starts
    return renumbered[labels]


def _brute_force_pmf(p):
    """Poisson-binomial pmf by exhaustive enumeration (n <= 10)."""
    out = np.zeros(len(p) + 1, dtype=np.float64)
    for bits in itertools.product([0, 1], repeat=len(p)):
        weight = 1.0
        for b, pi in zip(bits, p):
            weight *= pi if b else (1.0 - pi)
        out[sum(bits)] += weight
    return out


class TestPoissonBinomialPmf:
    def test_empty(self):
        np.testing.assert_array_equal(poisson_binomial_pmf(np.zeros(0)), [1.0])

    @pytest.mark.parametrize("value,index", [(0.0, 0), (1.0, 4)])
    def test_degenerate_probabilities(self, value, index):
        pmf = poisson_binomial_pmf(np.full(4, value))
        expected = np.zeros(5)
        expected[index] = 1.0
        np.testing.assert_array_equal(pmf, expected)

    @settings(max_examples=50, deadline=None)
    @given(p=st.lists(probabilities, min_size=0, max_size=8))
    def test_close_to_brute_force(self, p):
        pmf = poisson_binomial_pmf(np.asarray(p))
        assert pmf.shape == (len(p) + 1,)
        np.testing.assert_allclose(pmf, _brute_force_pmf(p), atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(p=st.lists(probabilities, min_size=0, max_size=32))
    def test_matches_convolution_reference_bitwise(self, p):
        pmf = poisson_binomial_pmf(np.asarray(p))
        reference = np.ones(1, dtype=np.float64)
        for pi in p:
            reference = np.convolve(reference, (1.0 - pi, pi))
        np.testing.assert_array_equal(pmf, reference)


class TestFoldPmfTail:
    """The tail fold of ``degree_uncertainty_matrix(max_degree=...)``."""

    @settings(max_examples=50, deadline=None)
    @given(
        p=st.lists(probabilities, min_size=0, max_size=16),
        width=st.integers(min_value=1, max_value=20),
    )
    def test_reference_semantics(self, p, width):
        out, pmf = _star_row(p, width)
        assert out.shape == (width,)
        if pmf.shape[0] > width:
            # Head copied verbatim; tail folded with np.sum's pairwise
            # order -- the pinned reference.
            np.testing.assert_array_equal(out[: width - 1], pmf[: width - 1])
            assert out[width - 1] == pmf[width - 1:].sum()
        else:
            np.testing.assert_array_equal(out[: pmf.shape[0]], pmf)
            assert not out[pmf.shape[0]:].any()

    def test_fold_at_last_bucket(self):
        out, pmf = _star_row([0.5, 0.5, 0.5], 2)
        np.testing.assert_array_equal(pmf, [0.125, 0.375, 0.375, 0.125])
        np.testing.assert_array_equal(
            out, [0.125, np.array([0.375, 0.375, 0.125]).sum()]
        )

    def test_width_one_folds_everything(self):
        out, pmf = _star_row([0.5, 0.5], 1)
        np.testing.assert_array_equal(pmf, [0.25, 0.5, 0.25])
        np.testing.assert_array_equal(out, [pmf.sum()])


class TestTruncatedNormal:
    def test_transform_bounds_and_monotonicity(self):
        u = np.linspace(0.0, 1.0, 101)
        sigma = np.full_like(u, 0.3)
        x = truncated_normal_noise(sigma, seed=_FixedUniforms(u))
        assert x[0] == 0.0
        assert np.all((x >= 0.0) & (x <= 1.0))
        assert np.all(np.diff(x) >= 0.0)
        assert np.isfinite(x).all()  # u -> 1 saturation clipped, not inf

    def test_draw_ordering_contract(self):
        """One ``rng.random`` block, then the closed-form transform."""
        sigma = np.array([0.1, 0.5, 1.0, 2.0])
        draws = truncated_normal_noise(sigma, seed=np.random.default_rng(5))
        u = np.random.default_rng(5).random(4)
        np.testing.assert_array_equal(draws, _closed_form(u, sigma))

    def test_noise_module_consumes_shared_draws(self):
        """Zero scales give zero noise and consume no uniforms."""
        sigma = np.array([0.2, 0.0, 0.7])
        got = truncated_normal_noise(sigma, seed=9)
        u = np.random.default_rng(9).random(2)
        expected = np.zeros(3)
        expected[[0, 2]] = _closed_form(u, sigma[[0, 2]])
        np.testing.assert_array_equal(got, expected)


class TestRethresholdMasks:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_worlds=st.integers(min_value=1, max_value=12),
        n_edges=st.integers(min_value=1, max_value=10),
    )
    def test_matches_direct_recompute(self, seed, n_worlds, n_edges):
        rng = np.random.default_rng(seed)
        uniforms = rng.random((n_worlds, n_edges))
        base_p = rng.random(n_edges)
        base_masks = uniforms < base_p
        n_changed = int(rng.integers(1, n_edges + 1))
        cols = rng.choice(n_edges, size=n_changed, replace=False)
        new_p = rng.random(n_changed)

        new_cols, dirty = kernels.rethreshold_masks(
            uniforms, base_masks, cols, new_p
        )
        expected_cols = uniforms[:, cols] < new_p
        np.testing.assert_array_equal(new_cols, expected_cols)
        flipped = expected_cols != base_masks[:, cols]
        np.testing.assert_array_equal(dirty, np.flatnonzero(flipped.any(axis=1)))

    def test_boundary_probabilities(self):
        uniforms = np.array([[0.0, 0.5], [0.9, 0.2]])
        base_masks = uniforms < np.array([0.5, 0.5])
        cols = np.array([0, 1])
        # p = 0 never realizes (strict <); p = 1 always does.
        new_cols, dirty = kernels.rethreshold_masks(
            uniforms, base_masks, cols, np.array([0.0, 1.0])
        )
        np.testing.assert_array_equal(
            new_cols, [[False, True], [False, True]]
        )
        # Row 0 flips both columns; row 1's realizations happen to agree
        # with the base, so only row 0 is dirty.
        np.testing.assert_array_equal(dirty, [0])


class TestMaskedComponentLabels:
    """The batched labeling kernel, ``_batched_labels_chunked``."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_nodes=st.integers(min_value=1, max_value=12),
        n_worlds=st.integers(min_value=1, max_value=6),
    )
    def test_matches_union_find_oracle(self, seed, n_nodes, n_worlds):
        rng = np.random.default_rng(seed)
        n_edges = int(rng.integers(0, max(1, n_nodes * 2)))
        src = rng.integers(0, n_nodes, n_edges)
        dst = rng.integers(0, n_nodes, n_edges)
        masks = rng.random((n_worlds, n_edges)) < 0.5

        labels = _batched_labels_chunked(n_nodes, src, dst, masks)
        assert labels.shape == (n_worlds, n_nodes)
        for w in range(n_worlds):
            row = masks[w]
            np.testing.assert_array_equal(
                labels[w],
                canonical_component_labels(n_nodes, src[row], dst[row]),
                err_msg=f"world {w}",
            )

    def test_single_vertex_and_empty_edges(self):
        labels = _batched_labels_chunked(
            1, np.zeros(0, np.int64), np.zeros(0, np.int64),
            np.zeros((3, 0), dtype=bool),
        )
        np.testing.assert_array_equal(labels, np.zeros((3, 1)))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_nodes=st.integers(min_value=1, max_value=30),
        n_worlds=st.integers(min_value=1, max_value=8),
    )
    def test_matches_coo_renumber_oracle(self, seed, n_nodes, n_worlds):
        """Bitwise equal to the COO build + per-row renumbering the
        direct CSR kernel replaced."""
        rng = np.random.default_rng(seed)
        n_edges = int(rng.integers(0, 3 * n_nodes + 1))
        src = rng.integers(0, n_nodes, n_edges)
        dst = rng.integers(0, n_nodes, n_edges)
        masks = rng.random((n_worlds, n_edges)) < rng.random()
        np.testing.assert_array_equal(
            _batched_labels_chunked(n_nodes, src, dst, masks),
            _coo_renumber_labels(n_nodes, src, dst, masks),
        )

    @staticmethod
    def _assert_canonical(n_nodes, src, dst, masks):
        labels = _batched_labels_chunked(n_nodes, src, dst, masks)
        assert labels.shape == (masks.shape[0], n_nodes)
        assert labels.dtype == np.int32
        for w in range(masks.shape[0]):
            row = masks[w]
            np.testing.assert_array_equal(
                labels[w],
                canonical_component_labels(n_nodes, src[row], dst[row]),
                err_msg=f"world {w}",
            )

    def test_appended_unsorted_columns(self):
        """A store's grown columns arrive after the sorted base edges and
        out of ``src`` order; the direct CSR build must sort them in."""
        rng = np.random.default_rng(3)
        n_nodes = 15
        base = sorted(
            {(int(u), int(v)) for u, v in rng.integers(0, n_nodes, (25, 2))
             if u < v}
        )
        grown = [(11, 14), (0, 9), (7, 8), (2, 13), (0, 3)]
        src = np.array([u for u, __ in base + grown], dtype=np.int64)
        dst = np.array([v for __, v in base + grown], dtype=np.int64)
        masks = rng.random((7, src.size)) < 0.35
        masks[:, len(base):] = rng.random((7, len(grown))) < 0.8
        self._assert_canonical(n_nodes, src, dst, masks)

    def test_self_loops_and_duplicate_pairs(self):
        src = np.array([3, 0, 0, 2, 4, 4, 1], dtype=np.int64)
        dst = np.array([3, 1, 1, 2, 0, 0, 1], dtype=np.int64)
        masks = np.array([
            [True] * 7,
            [True, False, True, True, False, True, True],
            [True, False, False, True, False, False, True],
        ])
        self._assert_canonical(5, src, dst, masks)

    def test_zero_worlds(self):
        labels = _batched_labels_chunked(
            4, np.array([0, 1]), np.array([1, 2]), np.zeros((0, 2), bool)
        )
        assert labels.shape == (0, 4)

    def test_single_vertex_with_self_loop(self):
        self._assert_canonical(
            1, np.zeros(2, np.int64), np.zeros(2, np.int64),
            np.array([[True, True], [False, True], [False, False]]),
        )

    def test_all_absent_worlds(self):
        rng = np.random.default_rng(5)
        src = rng.integers(0, 9, 20)
        dst = rng.integers(0, 9, 20)
        masks = rng.random((6, 20)) < 0.5
        masks[[0, 3, 5]] = False
        labels = _batched_labels_chunked(9, src, dst, masks)
        for w in (0, 3, 5):
            np.testing.assert_array_equal(labels[w], np.arange(9))
        self._assert_canonical(9, src, dst, masks)

    def test_tiny_batch_node_limit(self, monkeypatch):
        """Chunked stacking (down to one world per block) is invisible."""
        from repro.reliability import connectivity

        rng = np.random.default_rng(8)
        n_nodes, n_edges = 10, 24
        src = rng.integers(0, n_nodes, n_edges)
        dst = rng.integers(0, n_nodes, n_edges)
        masks = rng.random((9, n_edges)) < 0.3
        whole = _batched_labels_chunked(n_nodes, src, dst, masks)
        for limit in (1, 25):
            monkeypatch.setattr(connectivity, "_BATCH_NODE_LIMIT", limit)
            np.testing.assert_array_equal(
                _batched_labels_chunked(n_nodes, src, dst, masks), whole
            )
            self._assert_canonical(n_nodes, src, dst, masks)

    def test_delegates_to_batched_scipy_bitwise(self):
        """The public entry point is this kernel."""
        rng = np.random.default_rng(11)
        n_nodes, n_edges, n_worlds = 20, 40, 8
        src = rng.integers(0, n_nodes, n_edges)
        dst = rng.integers(0, n_nodes, n_edges)
        masks = rng.random((n_worlds, n_edges)) < 0.4
        np.testing.assert_array_equal(
            component_labels_for_edges(n_nodes, src, dst, masks),
            _batched_labels_chunked(n_nodes, src, dst, masks),
        )


class TestRegistry:
    """What is left of the kernel registry: the constant backend report
    benchmark metadata reads, and the CPU counts diagnostics report."""

    def test_backend_listing(self):
        assert kernels.active_backend() == "numpy"
        assert kernels.numba_available() is False

    def test_capabilities_shape(self):
        from repro.core import execution_environment

        env = execution_environment()
        assert "kernels" not in env
        assert env["cpus"]["usable"] == kernels.usable_cpu_count() >= 1
        assert env["cpus"]["total"] >= 1

    def test_execution_environment_is_json_serializable(self):
        import json

        from repro.core import execution_environment

        env = execution_environment()
        decoded = json.loads(json.dumps(env))
        assert decoded["cpus"] == env["cpus"]
