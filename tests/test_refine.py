"""Post-anonymization refinement."""

import pytest

import repro
from repro.core import refine_anonymization
from repro.exceptions import ObfuscationError
from repro.privacy import check_obfuscation, expected_degree_knowledge
from repro.ugraph import probability_l1_distance


FAST = dict(n_trials=2, relevance_samples=100, sigma_tolerance=0.05)


@pytest.fixture(scope="module")
def pipeline(request):
    import repro as _repro

    graph = _repro.load_dataset("ppi", scale=0.3, seed=21)
    result = _repro.anonymize(graph, k=12, epsilon=0.05, seed=1, **FAST)
    assert result.success
    return graph, result


class TestRefinement:
    def test_noise_never_increases(self, pipeline):
        graph, result = pipeline
        refined, stats = refine_anonymization(graph, result, seed=2)
        assert stats.noise_after <= stats.noise_before + 1e-9
        assert probability_l1_distance(graph, refined.graph) <= (
            probability_l1_distance(graph, result.graph) + 1e-9
        )

    def test_privacy_preserved(self, pipeline):
        graph, result = pipeline
        refined, __ = refine_anonymization(graph, result, seed=3)
        report = check_obfuscation(
            refined.graph, result.k, result.epsilon,
            knowledge=expected_degree_knowledge(graph),
        )
        assert report.satisfied

    def test_utility_improves_or_holds(self, pipeline):
        graph, result = pipeline
        refined, stats = refine_anonymization(graph, result, seed=4)
        if stats.edges_reverted == 0:
            pytest.skip("nothing reverted; utility comparison vacuous")
        before = repro.reliability_discrepancy(
            graph, result.graph, n_samples=300, seed=5
        )
        after = repro.reliability_discrepancy(
            graph, refined.graph, n_samples=300, seed=5
        )
        assert after <= before + 0.01

    def test_stats_consistency(self, pipeline):
        graph, result = pipeline
        refined, stats = refine_anonymization(graph, result, n_batches=10,
                                              seed=6)
        assert 0 <= stats.edges_reverted <= stats.edges_considered
        assert stats.checks_performed <= 10
        assert stats.noise_removed >= 0

    def test_refusal_on_failed_result(self, pipeline):
        from dataclasses import replace

        graph, result = pipeline
        failed = replace(result, graph=None)
        with pytest.raises(ObfuscationError):
            refine_anonymization(graph, failed)

    def test_batch_count_validated(self, pipeline):
        graph, result = pipeline
        with pytest.raises(ObfuscationError):
            refine_anonymization(graph, result, n_batches=0)

    def test_idempotent_second_pass(self, pipeline):
        graph, result = pipeline
        once, stats1 = refine_anonymization(graph, result, seed=7)
        twice, stats2 = refine_anonymization(graph, once, seed=7)
        # A second pass finds (almost) nothing left to revert.
        assert stats2.noise_removed <= stats1.noise_removed + 1e-9

    def test_no_changes_short_circuit(self, pipeline):
        graph, __ = pipeline
        from repro.core.result import AnonymizationResult

        identity = AnonymizationResult(
            graph=graph, method="noop", k=2, epsilon=0.5, sigma=0.0,
            epsilon_achieved=0.0, report=None, n_genobf_calls=0,
        )
        refined, stats = refine_anonymization(graph, identity, seed=8)
        assert stats.edges_considered == 0
        assert refined.graph == graph
