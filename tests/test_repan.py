"""Rep-An baseline pipeline tests (Section IV)."""

import pytest

from repro.baselines import RepAn, obfuscate_deterministic, rep_an
from repro.core import anonymize
from repro.exceptions import ObfuscationError
from repro.privacy import check_obfuscation, expected_degree_knowledge
from repro.reliability import reliability_discrepancy


FAST = dict(n_trials=2, relevance_samples=100, sigma_tolerance=0.05)


class TestDeterministicObfuscation:
    def test_rejects_uncertain_input(self, triangle):
        with pytest.raises(ObfuscationError, match="deterministic"):
            obfuscate_deterministic(triangle, k=2, epsilon=0.1)

    def test_obfuscates_deterministic_graph(self, small_profile_graph):
        from repro.baselines import extract_representative

        rep = extract_representative(small_profile_graph, strategy="adr")
        result = obfuscate_deterministic(rep, k=5, epsilon=0.05, seed=0,
                                         **FAST)
        assert result.success
        assert result.method == "boldi"
        # Output is genuinely uncertain now.
        p = result.graph.edge_probabilities
        assert ((p > 0) & (p < 1)).any()


class TestRepAn:
    def test_pipeline_succeeds(self, small_profile_graph):
        result = rep_an(small_profile_graph, k=5, epsilon=0.05, seed=1, **FAST)
        assert result.success
        assert result.method == "rep-an"
        assert result.graph.n_nodes == small_profile_graph.n_nodes

    @pytest.mark.parametrize("strategy", ["most-probable", "greedy", "adr"])
    def test_all_extraction_strategies(self, small_profile_graph, strategy):
        result = rep_an(small_profile_graph, k=4, epsilon=0.05,
                        representative=strategy, seed=2, **FAST)
        assert result.success

    def test_parameter_validation(self, small_profile_graph):
        with pytest.raises(ObfuscationError):
            rep_an(small_profile_graph, k=0, epsilon=0.05)

    def test_class_interface(self, small_profile_graph):
        runner = RepAn(k=4, epsilon=0.05, **FAST)
        result = runner.anonymize(small_profile_graph, seed=3)
        assert result.success

    def test_output_satisfies_internal_privacy(self, small_profile_graph):
        """The published graph k-obfuscates against the representative's
        degree knowledge (what phase 2 optimized for)."""
        from repro.baselines import extract_representative

        result = rep_an(small_profile_graph, k=5, epsilon=0.05, seed=4, **FAST)
        rep = extract_representative(small_profile_graph, strategy="adr")
        report = check_obfuscation(
            result.graph, 5, 0.05,
            knowledge=expected_degree_knowledge(rep),
        )
        assert report.satisfied


class TestHeadlineResult:
    def test_repan_loses_more_reliability_than_chameleon(
        self, small_profile_graph
    ):
        """The paper's central claim (Figures 4 and 8): Rep-An's utility
        loss exceeds Chameleon's at the same privacy level."""
        k, eps = 5, 0.05
        chameleon = anonymize(small_profile_graph, k=k, epsilon=eps,
                              method="rsme", seed=5, **FAST)
        baseline = rep_an(small_profile_graph, k=k, epsilon=eps, seed=5,
                          **FAST)
        assert chameleon.success and baseline.success
        loss_chameleon = reliability_discrepancy(
            small_profile_graph, chameleon.graph, n_samples=400, seed=6
        )
        loss_repan = reliability_discrepancy(
            small_profile_graph, baseline.graph, n_samples=400, seed=6
        )
        assert loss_chameleon < loss_repan
