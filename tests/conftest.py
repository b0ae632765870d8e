"""Shared fixtures: small graphs with known structure."""

from __future__ import annotations

import pytest

from repro.ugraph import UncertainGraph


@pytest.fixture
def triangle() -> UncertainGraph:
    """3-cycle with distinct probabilities."""
    return UncertainGraph(3, [(0, 1, 0.5), (1, 2, 0.8), (0, 2, 0.3)])


@pytest.fixture
def path4() -> UncertainGraph:
    """Path 0-1-2-3 with moderate probabilities."""
    return UncertainGraph(4, [(0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.7)])


@pytest.fixture
def bridge_graph() -> UncertainGraph:
    """Two near-certain triangles joined by one bridge edge (Figure 5a).

    Vertices 0-2 and 3-5 form reliable clusters; edge (2, 3) is the only
    link between them, so it should dominate reliability relevance.
    """
    intra = 0.95
    return UncertainGraph(
        6,
        [
            (0, 1, intra), (1, 2, intra), (0, 2, intra),
            (3, 4, intra), (4, 5, intra), (3, 5, intra),
            (2, 3, 0.5),
        ],
    )


@pytest.fixture
def certain_square() -> UncertainGraph:
    """Deterministic 4-cycle (all probabilities 1)."""
    return UncertainGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])


@pytest.fixture
def small_profile_graph() -> UncertainGraph:
    """A small but realistic heavy-tailed uncertain graph (~100 nodes)."""
    from repro.datasets import load_profile

    return load_profile("ppi", scale=0.25, seed=42)
