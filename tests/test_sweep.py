"""Multi-k anonymization sweeps."""

import pytest

import repro
from repro.core import sweep_anonymize
from repro.exceptions import ConfigurationError, ObfuscationError
from repro.privacy import check_obfuscation, expected_degree_knowledge
from repro.ugraph import UncertainGraph


FAST = dict(n_trials=2, relevance_samples=100, sigma_tolerance=0.05)


@pytest.fixture(scope="module")
def graph():
    return repro.load_dataset("ppi", scale=0.3, seed=17)


def test_sweep_returns_result_per_k(graph):
    results = sweep_anonymize(graph, [3, 6, 10], 0.05, seed=0, **FAST)
    assert sorted(results) == [3, 6, 10]
    for k, result in results.items():
        assert result.k == k
        assert result.success


def test_every_sweep_result_passes_independent_check(graph):
    results = sweep_anonymize(graph, [4, 8], 0.05, seed=1, **FAST)
    knowledge = expected_degree_knowledge(graph)
    for k, result in results.items():
        report = check_obfuscation(result.graph, k, 0.05, knowledge=knowledge)
        assert report.satisfied, k


def test_sweep_matches_single_runs_in_success(graph):
    sweep = sweep_anonymize(graph, [5], 0.05, seed=2, **FAST)
    single = repro.anonymize(graph, 5, 0.05, seed=2, **FAST)
    assert sweep[5].success == single.success


def test_failures_reported_per_k(graph):
    """Impossible top-end k fails; easy ks still succeed."""
    results = sweep_anonymize(
        graph, [3, graph.n_nodes - 1], 0.0, seed=3,
        sigma_max=1.0, **FAST,
    )
    assert not results[graph.n_nodes - 1].success
    # The easy target's outcome is independent of the hard one.
    assert results[3].epsilon_achieved <= 0.0 or not results[3].success


def test_failed_entry_reports_largest_probed_sigma():
    """A failed sweep entry reports the noise range it exhausted, as
    ``anonymize`` does -- not the last (smallest downward) probe of the
    alternating 2^i / 2^-i ladder."""
    star = UncertainGraph(
        6, [(0, i, 1.0) for i in range(1, 6)] + [(1, 2, 1.0)]
    )
    single = repro.anonymize(star, 5, 0.0, n_trials=1, seed=0)
    swept = sweep_anonymize(star, [5], 0.0, n_trials=1, seed=0)[5]
    assert not single.success and not swept.success
    assert swept.n_genobf_calls == single.n_genobf_calls
    assert swept.sigma == single.sigma == max(
        s for s, __ in swept.sigma_history
    )


def test_empty_k_values_rejected(graph):
    with pytest.raises(ConfigurationError):
        sweep_anonymize(graph, [], 0.05)


def test_k_validation_applies_to_all(graph):
    with pytest.raises(ObfuscationError):
        sweep_anonymize(graph, [3, graph.n_nodes + 5], 0.05, **FAST)
