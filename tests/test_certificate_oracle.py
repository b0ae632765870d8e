"""The (k, epsilon) certificate against an independent Definition 3 checker.

``tests/certificate_oracle.py`` enumerates every possible world and
normalizes the degree columns itself.  The production checkers --
:func:`check_obfuscation`, :meth:`DegreeUncertaintyCache.check_base` and
:meth:`DegreeUncertaintyCache.check_edge_arrays` -- must agree with it on
tiny graphs: entropies within 1e-9 and equal obfuscation flags, except
for a vertex whose entropy lies within 1e-9 of ``log2 k``, where the two
float paths may round to opposite sides.  Exact ties (an entropy equal to
``log2 k``) and the ``epsilon |V|`` boundary are pinned separately.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy import (
    DegreeUncertaintyCache,
    check_obfuscation,
    column_entropy_profile,
)
from repro.ugraph import UncertainGraph
from tests.certificate_oracle import certificate, entropy_profile

TOLERANCE = 1e-9

#: Certain (0, 1), repeated (ties between vertices) and generic values.
probabilities = st.one_of(
    st.sampled_from([0.0, 1.0, 0.25, 0.5, 0.75]),
    st.floats(0.01, 0.99, allow_nan=False),
)


@st.composite
def tiny_graphs(draw, max_nodes=7, max_edges=12):
    """``(n, {(u, v): p})`` with ``n <= 7`` and at most 12 stored pairs."""
    n = draw(st.integers(1, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(
        st.sampled_from(pairs), unique=True, max_size=max_edges,
    )) if pairs else []
    return n, {pair: draw(probabilities) for pair in chosen}


@st.composite
def certificate_cases(draw):
    """A graph, the adversary's degrees, k and epsilon."""
    n, edges = draw(tiny_graphs())
    # Degrees up to n + 1: values no vertex can reach have empty
    # candidate sets (entropy +inf).
    knowledge = np.array(
        draw(st.lists(st.integers(0, n + 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    k = draw(st.integers(1, 8))
    # Exact fractions j / n put epsilon on the epsilon |V| boundary.
    epsilon = draw(st.one_of(
        st.integers(0, n - 1).map(lambda j: j / n),
        st.floats(0.0, 0.99, allow_nan=False),
    ))
    return n, edges, knowledge, k, epsilon


@st.composite
def delta_cases(draw):
    """A certificate case plus a delta against its graph: re-weighted
    and zeroed stored pairs, fresh pairs and no-op entries."""
    n, edges, knowledge, k, epsilon = draw(certificate_cases())
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    touched = draw(st.lists(
        st.sampled_from(pairs), unique=True, max_size=6,
    )) if pairs else []
    delta = [(u, v, edges.get((u, v), 0.0), draw(probabilities))
             for u, v in touched]
    # Stay within the oracle's enumeration budget after the delta.
    fresh = [(u, v) for u, v, __, __ in delta if (u, v) not in edges]
    if len(edges) + len(fresh) > 12:
        delta = [d for d in delta if (d[0], d[1]) in edges]
    return n, edges, delta, knowledge, k, epsilon


def _graph(n, edges) -> UncertainGraph:
    return UncertainGraph(n, [(u, v, p) for (u, v), p in edges.items()])


def _edge_list(edges):
    return [(u, v, p) for (u, v), p in edges.items()]


def assert_matches_oracle(report, n, edges, knowledge, k, epsilon):
    """One production report against the enumerated certificate."""
    entropies, obfuscated, epsilon_hat, satisfied = certificate(
        n, _edge_list(edges), knowledge, k, epsilon
    )
    infinite = np.isinf(entropies)
    np.testing.assert_array_equal(np.isinf(report.entropies), infinite)
    np.testing.assert_allclose(
        report.entropies[~infinite], entropies[~infinite],
        rtol=0.0, atol=TOLERANCE,
    )
    near_tie = np.abs(entropies - math.log2(k)) <= TOLERANCE
    np.testing.assert_array_equal(
        report.obfuscated[~near_tie], obfuscated[~near_tie]
    )
    if not near_tie.any():
        assert report.epsilon_achieved == epsilon_hat
        assert report.satisfied == satisfied
    else:
        # Each near-tie vertex may land on either side of log2 k.
        bad = n - int(obfuscated[~near_tie].sum())
        low, high = (bad - int(near_tie.sum())) / n, bad / n
        assert low <= report.epsilon_achieved <= high


class TestAgainstEnumeration:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(case=certificate_cases())
    def test_check_obfuscation(self, case):
        n, edges, knowledge, k, epsilon = case
        report = check_obfuscation(
            _graph(n, edges), k, epsilon, knowledge=knowledge
        )
        assert_matches_oracle(report, n, edges, knowledge, k, epsilon)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(case=certificate_cases())
    def test_check_base(self, case):
        n, edges, knowledge, k, epsilon = case
        cache = DegreeUncertaintyCache(_graph(n, edges), knowledge)
        assert_matches_oracle(
            cache.check_base(k, epsilon), n, edges, knowledge, k, epsilon
        )

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(case=delta_cases())
    def test_check_edge_arrays(self, case):
        n, edges, delta, knowledge, k, epsilon = case
        cache = DegreeUncertaintyCache(_graph(n, edges), knowledge)
        us, vs, p_old, p_new = (
            np.array(column, dtype=dtype) for column, dtype in zip(
                zip(*delta) if delta else ((), (), (), ()),
                (np.int64, np.int64, np.float64, np.float64),
            )
        )
        report = cache.check_edge_arrays(us, vs, p_old, p_new, k, epsilon)
        candidate = dict(edges)
        candidate.update({(u, v): p for u, v, __, p in delta})
        assert_matches_oracle(report, n, candidate, knowledge, k, epsilon)
        # The check rolled its rows back: the base still answers as before.
        assert_matches_oracle(
            cache.check_base(k, epsilon), n, edges, knowledge, k, epsilon
        )


#: A certain 4-cycle on vertices 0..3 plus the isolated vertex 4: column
#: 2 is uniform over four vertices (entropy exactly 2 = log2 4), column 0
#: a point mass (entropy 0).
CYCLE_AND_ISOLATE = {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0}
CYCLE_KNOWLEDGE = np.array([2, 2, 2, 2, 0], dtype=np.int64)


def _all_reports(edges, knowledge, k, epsilon):
    """Every production path's report on the 5-vertex graph ``edges``:
    the full check, the cached base and the same graph reached as a
    delta from the empty pair set."""
    graph = _graph(5, edges)
    cache = DegreeUncertaintyCache(graph, knowledge)
    empty = DegreeUncertaintyCache(_graph(5, {}), knowledge)
    us, vs = (np.array(side, dtype=np.int64) for side in zip(*edges))
    p_new = np.array(list(edges.values()))
    return [
        check_obfuscation(graph, k, epsilon, knowledge=knowledge),
        cache.check_base(k, epsilon),
        empty.check_edge_arrays(us, vs, np.zeros_like(p_new), p_new,
                                k, epsilon),
    ]


class TestBoundaries:
    def test_entropy_equal_to_log2_k_is_obfuscated(self):
        """Definition 3 asks for H >= log2 k: an exact tie passes."""
        __, obfuscated, __, __ = certificate(
            5, _edge_list(CYCLE_AND_ISOLATE), CYCLE_KNOWLEDGE, 4, 0.2
        )
        assert obfuscated.tolist() == [True] * 4 + [False]
        for report in _all_reports(CYCLE_AND_ISOLATE, CYCLE_KNOWLEDGE, 4, 0.2):
            assert report.entropies[:4].tolist() == [2.0] * 4
            assert report.obfuscated.tolist() == obfuscated.tolist()

    def test_epsilon_boundary_is_inclusive(self):
        """One of five vertices fails: epsilon = 1/5 is satisfied, the
        next float below it is not."""
        below = np.nextafter(0.2, 0.0)
        for epsilon, expected in ((0.2, True), (below, False)):
            __, __, epsilon_hat, satisfied = certificate(
                5, _edge_list(CYCLE_AND_ISOLATE), CYCLE_KNOWLEDGE, 4, epsilon
            )
            assert (epsilon_hat, satisfied) == (0.2, expected)
            for report in _all_reports(
                CYCLE_AND_ISOLATE, CYCLE_KNOWLEDGE, 4, epsilon
            ):
                assert report.epsilon_achieved == 0.2
                assert report.satisfied is expected

    def test_unreachable_degree_is_vacuously_obfuscated(self):
        knowledge = np.array([2, 2, 2, 2, 4], dtype=np.int64)
        entropies, obfuscated, epsilon_hat, __ = certificate(
            5, _edge_list(CYCLE_AND_ISOLATE), knowledge, 4, 0.0
        )
        assert entropies[4] == math.inf and obfuscated.all()
        for report in _all_reports(CYCLE_AND_ISOLATE, knowledge, 4, 0.0):
            assert report.entropies[4] == math.inf
            assert report.satisfied and epsilon_hat == 0.0


#: Graphs whose degree pmfs have tails to fold: an uncertain star, a
#: triangle with a pendant, and a mix of certain and uncertain pairs.
TAIL_GRAPHS = {
    "star": (5, {(0, 1): 0.5, (0, 2): 0.5, (0, 3): 0.3, (0, 4): 0.9}),
    "triangle-pendant": (4, {(0, 1): 0.6, (1, 2): 0.6, (0, 2): 0.6,
                             (2, 3): 0.25}),
    "mixed": (6, {(0, 1): 1.0, (0, 2): 0.5, (0, 3): 0.5, (1, 2): 0.0,
                  (3, 4): 0.75, (4, 5): 1.0, (1, 5): 0.2}),
}


@pytest.mark.parametrize("name", sorted(TAIL_GRAPHS))
@pytest.mark.parametrize("max_degree", [0, 1, 2, 3, 6])
def test_tail_folding_matches_enumeration(name, max_degree):
    """``column_entropy_profile(max_degree=d)`` folds Pr[deg >= d] into
    column d; its entropies equal the enumerated, folded columns'."""
    n, edges = TAIL_GRAPHS[name]
    got = column_entropy_profile(_graph(n, edges), max_degree=max_degree)
    expected = entropy_profile(n, _edge_list(edges), max_degree=max_degree)
    assert got.shape == expected.shape == (max_degree + 1,)
    infinite = np.isinf(expected)
    np.testing.assert_array_equal(np.isinf(got), infinite)
    np.testing.assert_allclose(
        got[~infinite], expected[~infinite], rtol=0.0, atol=TOLERANCE
    )


def test_oracle_imports_nothing_from_repro():
    """The oracle is independent of the code it checks."""
    import ast

    import tests.certificate_oracle as oracle

    with open(oracle.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.Import) for alias in node.names
    } | {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    }
    assert imported and not any(
        name.split(".")[0] == "repro" for name in imported
    )
