"""Property-based tests for the extension modules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability import (
    exact_two_terminal,
    reliability_bounds,
)
from repro.ugraph import UncertainGraph, most_probable_path
from repro.metrics import isolation_probabilities

probabilities = st.floats(0.01, 0.99, allow_nan=False)


@st.composite
def small_graphs(draw, max_nodes=6, max_edges=9):
    n = draw(st.integers(2, max_nodes))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    k = draw(st.integers(1, min(max_edges, len(all_pairs))))
    indices = draw(
        st.lists(st.integers(0, len(all_pairs) - 1),
                 min_size=k, max_size=k, unique=True)
    )
    probs = draw(st.lists(probabilities, min_size=k, max_size=k))
    return UncertainGraph(
        n, [(*all_pairs[i], p) for i, p in zip(indices, probs)]
    )


# --------------------------------------------------------------------- #
# Bounds and paths
# --------------------------------------------------------------------- #

@settings(max_examples=25, deadline=None)
@given(small_graphs())
def test_bounds_bracket_reliability_everywhere(graph):
    for u in range(min(graph.n_nodes, 3)):
        for v in range(u + 1, min(graph.n_nodes, 3)):
            exact = exact_two_terminal(graph, u, v)
            lo, hi = reliability_bounds(graph, u, v)
            assert lo - 1e-9 <= exact <= hi + 1e-9


@settings(max_examples=25, deadline=None)
@given(small_graphs())
def test_most_probable_path_consistency(graph):
    path, prob = most_probable_path(graph, 0, graph.n_nodes - 1)
    if not path:
        assert prob == 0.0
        return
    # Path endpoints and continuity.
    assert path[0] == 0 and path[-1] == graph.n_nodes - 1
    product = 1.0
    for a, b in zip(path, path[1:]):
        p = graph.probability(a, b)
        assert p > 0.0
        product *= p
    assert prob == pytest.approx(product)
    # No vertex repeats (simple path).
    assert len(set(path)) == len(path)


# --------------------------------------------------------------------- #
# Component metrics
# --------------------------------------------------------------------- #

@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_isolation_probabilities_are_probabilities(graph):
    iso = isolation_probabilities(graph)
    assert (iso >= 0).all() and (iso <= 1).all()


# --------------------------------------------------------------------- #
# Max-entropy + obfuscation interaction
# --------------------------------------------------------------------- #

@settings(max_examples=15, deadline=None)
@given(small_graphs(), st.floats(0.05, 0.45))
def test_uniform_shift_toward_half_never_hurts_entropy(graph, r):
    """Applying the max-entropy rule with a uniform r raises (or keeps)
    every vertex's degree entropy."""
    from repro.core import apply_max_entropy
    from repro.privacy import degree_entropy_per_vertex

    before = degree_entropy_per_vertex(graph)
    shifted = graph.with_probabilities(
        apply_max_entropy(graph.edge_probabilities,
                          np.full(graph.n_edges, r))
    )
    after = degree_entropy_per_vertex(shifted)
    assert (after >= before - 1e-9).all()
