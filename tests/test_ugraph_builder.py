"""Unit tests for UncertainGraphBuilder."""

import pytest

from repro.exceptions import GraphConstructionError, InvalidProbabilityError
from repro.ugraph import UncertainGraphBuilder


def test_basic_build():
    b = UncertainGraphBuilder()
    b.add_edge("alice", "bob", 0.9)
    b.add_edge("bob", "carol", 0.4)
    g = b.build()
    assert g.n_nodes == 3
    assert g.n_edges == 2
    assert g.labels == ["alice", "bob", "carol"]


def test_node_ids_follow_first_seen_order():
    b = UncertainGraphBuilder()
    b.add_edge("x", "y", 0.5)
    assert b.add_node("x") == 0
    assert b.add_node("y") == 1


def test_explicit_nodes_can_be_isolated():
    b = UncertainGraphBuilder()
    b.add_node("lonely")
    b.add_edge("a", "b", 0.3)
    g = b.build()
    assert g.n_nodes == 3
    assert g.expected_degree(0) == 0.0


def test_add_node_idempotent():
    b = UncertainGraphBuilder()
    assert b.add_node("a") == b.add_node("a")
    assert b.n_nodes == 1


def test_duplicate_edge_policies():
    for policy, expected in (("keep-max", 0.7), ("overwrite", 0.2)):
        b = UncertainGraphBuilder()
        b.add_edge("a", "b", 0.7)
        b.add_edge("a", "b", 0.2, on_duplicate=policy)
        assert b.build().probability(0, 1) == pytest.approx(expected)


def test_duplicate_edge_error_default():
    b = UncertainGraphBuilder()
    b.add_edge("a", "b", 0.7)
    with pytest.raises(GraphConstructionError):
        b.add_edge("b", "a", 0.2)


def test_unknown_duplicate_policy():
    b = UncertainGraphBuilder()
    b.add_edge("a", "b", 0.7)
    with pytest.raises(GraphConstructionError):
        b.add_edge("a", "b", 0.2, on_duplicate="bogus")


def test_self_loop_rejected():
    b = UncertainGraphBuilder()
    with pytest.raises(GraphConstructionError):
        b.add_edge("a", "a", 0.5)


def test_invalid_probability_rejected():
    b = UncertainGraphBuilder()
    with pytest.raises(InvalidProbabilityError):
        b.add_edge("a", "b", 1.5)


def test_counts_properties():
    b = UncertainGraphBuilder()
    b.add_edge(1, 2, 0.1)
    b.add_edge(2, 3, 0.2)
    assert (b.n_nodes, b.n_edges) == (3, 2)


def test_empty_build():
    g = UncertainGraphBuilder().build()
    assert g.n_nodes == 0
    assert g.n_edges == 0
