"""End-to-end integration tests across the full pipeline.

These exercise the flows a downstream user runs: generate data ->
anonymize -> verify privacy -> measure utility -> publish, including the
paper's headline comparisons at miniature scale.
"""

import pytest

import repro
from repro.metrics import compare_graphs
from repro.privacy import (
    expected_degree_knowledge,
    expected_reidentification_rate,
)


FAST = dict(n_trials=2, relevance_samples=120, sigma_tolerance=0.05)


@pytest.fixture(scope="module")
def graph():
    return repro.load_dataset("ppi", scale=0.3, seed=21)


@pytest.fixture(scope="module")
def rsme_result(graph):
    return repro.anonymize(graph, k=6, epsilon=0.05, method="rsme", seed=1,
                           **FAST)


class TestPublishPipeline:
    def test_anonymize_then_strip_then_save(self, graph, rsme_result, tmp_path):
        assert rsme_result.success
        publishable = rsme_result.graph.dropping_zero_edges()
        path = tmp_path / "published.pel"
        repro.write_edge_list(publishable, path)
        reloaded = repro.read_edge_list(path)
        assert reloaded.n_nodes == publishable.n_nodes

        # Privacy survives the round trip (edge-list precision is 6 sig
        # figs, far below any entropy-relevant perturbation).
        report = repro.check_obfuscation(
            reloaded, 6, 0.05,
            knowledge=expected_degree_knowledge(graph),
        )
        assert report.satisfied

    def test_anonymization_reduces_attack_surface(self, graph, rsme_result):
        knowledge = expected_degree_knowledge(graph)
        base_rate = expected_reidentification_rate(graph, knowledge)
        anon_rate = expected_reidentification_rate(rsme_result.graph, knowledge)
        assert anon_rate < base_rate

    def test_utility_metrics_survive(self, graph, rsme_result):
        comparison = compare_graphs(
            graph, rsme_result.graph,
            metrics=("average_degree", "reliability"),
            n_samples=300, seed=2,
        )
        # The Chameleon output must stay close on first-order structure.
        assert comparison["average_degree"].relative_error < 0.5
        assert comparison["reliability"].relative_error < 0.15


class TestMethodOrdering:
    def test_uncertainty_aware_beats_repan_on_reliability(self, graph):
        """Figure 8's ordering at miniature scale."""
        k, eps = 6, 0.05
        losses = {}
        for method in ("rsme", "me"):
            result = repro.anonymize(graph, k=k, epsilon=eps, method=method,
                                     seed=3, **FAST)
            assert result.success, method
            losses[method] = repro.reliability_discrepancy(
                graph, result.graph, n_samples=400, seed=4
            )
        repan = repro.rep_an(graph, k, eps, seed=3, **FAST)
        assert repan.success
        losses["rep-an"] = repro.reliability_discrepancy(
            graph, repan.graph, n_samples=400, seed=4
        )
        assert losses["rsme"] < losses["rep-an"]
        assert losses["me"] < losses["rep-an"]


class TestCrossDatasetRobustness:
    @pytest.mark.parametrize("profile", ["dblp", "brightkite", "ppi"])
    def test_full_pipeline_on_every_profile(self, profile):
        g = repro.load_dataset(profile, scale=0.25, seed=5)
        result = repro.anonymize(g, k=5, epsilon=0.08, method="rsme", seed=6,
                                 **FAST)
        assert result.success
        report = repro.check_obfuscation(
            result.graph, 5, 0.08,
            knowledge=expected_degree_knowledge(g),
        )
        assert report.satisfied
