"""Feasibility diagnostics."""

import numpy as np
import pytest

from repro.core import diagnose_feasibility
from repro.exceptions import ObfuscationError
from repro.ugraph import UncertainGraph


@pytest.fixture
def star_plus_matching():
    """One degree-10 hub over a sea of degree-1 vertices.

    Vertices 1..10 connect to hub 0; vertices 11..20 pair up.
    """
    edges = [(0, i, 1.0) for i in range(1, 11)]
    edges += [(11 + 2 * j, 12 + 2 * j, 1.0) for j in range(5)]
    return UncertainGraph(21, edges)


class TestSupportCounting:
    def test_hub_has_singleton_support(self, star_plus_matching):
        report = diagnose_feasibility(star_plus_matching, k=2, epsilon=0.0)
        # Only the hub has potential degree >= 10.
        assert report.support[0] == 1

    def test_low_degree_vertices_have_wide_support(self, star_plus_matching):
        report = diagnose_feasibility(star_plus_matching, k=2, epsilon=0.0)
        # Everyone's potential degree is >= 1.
        assert (report.support[1:] == 21).all()


class TestVerdicts:
    def test_hub_blocks_strict_target(self, star_plus_matching):
        report = diagnose_feasibility(star_plus_matching, k=2, epsilon=0.0)
        assert not report.feasible
        assert 0 in report.hard_vertices
        assert report.min_epsilon == pytest.approx(1 / 21)

    def test_tolerance_unblocks(self, star_plus_matching):
        report = diagnose_feasibility(star_plus_matching, k=2, epsilon=0.05)
        assert report.feasible

    def test_max_feasible_k(self, star_plus_matching):
        report = diagnose_feasibility(star_plus_matching, k=2, epsilon=0.05)
        # With one skip allowed, every remaining vertex supports k up to
        # the number of vertices with potential degree >= 1, i.e. all 21.
        assert report.max_feasible_k == 21

    def test_regular_graph_fully_feasible(self, certain_square):
        report = diagnose_feasibility(certain_square, k=4, epsilon=0.0)
        assert report.feasible
        assert report.hard_vertices.shape[0] == 0

    def test_candidate_multiplier_relaxes(self, star_plus_matching):
        tight = diagnose_feasibility(
            star_plus_matching, k=2, epsilon=0.0, candidate_multiplier=1.0
        )
        # A huge candidate budget credits every vertex with enough
        # potential edges to reach the hub's degree.
        loose = diagnose_feasibility(
            star_plus_matching, k=2, epsilon=0.0, candidate_multiplier=8.0
        )
        assert tight.hard_vertices.shape[0] >= loose.hard_vertices.shape[0]
        assert loose.feasible

    def test_infeasible_verdict_predicts_anonymizer_failure(
        self, star_plus_matching
    ):
        """Infeasible is a *definitive* negative: the anonymizer must fail
        too.  (The converse does not hold -- the bound is necessary, not
        sufficient.)"""
        import repro

        report = diagnose_feasibility(
            star_plus_matching, k=2, epsilon=0.0, candidate_multiplier=1.0
        )
        assert not report.feasible
        result = repro.anonymize(
            star_plus_matching, k=2, epsilon=0.0, seed=0,
            n_trials=1, relevance_samples=50, sigma_max=2.0,
        )
        assert not result.success


class TestValidation:
    def test_summary_round_trip(self, certain_square):
        s = diagnose_feasibility(certain_square, k=2, epsilon=0.1).summary()
        assert s["feasible"] is True
        assert set(s) >= {"k", "epsilon", "min_epsilon", "max_feasible_k"}

    def test_invalid_k(self, certain_square):
        with pytest.raises(ObfuscationError):
            diagnose_feasibility(certain_square, k=0, epsilon=0.1)

    def test_invalid_epsilon(self, certain_square):
        with pytest.raises(ObfuscationError):
            diagnose_feasibility(certain_square, k=2, epsilon=1.5)

    def test_knowledge_shape_checked(self, certain_square):
        with pytest.raises(ObfuscationError):
            diagnose_feasibility(
                certain_square, k=2, epsilon=0.1, knowledge=np.array([1])
            )
