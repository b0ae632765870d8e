"""Full Chameleon runs (Algorithm 1) on small realistic graphs."""

import numpy as np
import pytest

from repro.core import Chameleon, anonymize, variant_config
from repro.exceptions import ObfuscationError
from repro.privacy import check_obfuscation, expected_degree_knowledge
from repro.ugraph import UncertainGraph, write_edge_list
from tests.checker_oracle import use_full_checker


@pytest.fixture
def graph(small_profile_graph):
    return small_profile_graph


FAST = dict(n_trials=2, relevance_samples=100, sigma_tolerance=0.05)


class TestAnonymize:
    @pytest.mark.parametrize("method", ["rsme", "rs", "me"])
    def test_all_variants_succeed(self, graph, method):
        result = anonymize(graph, k=5, epsilon=0.05, method=method, seed=0,
                           **FAST)
        assert result.success
        assert result.method == method
        assert result.epsilon_achieved <= 0.05

    def test_output_satisfies_privacy_against_original_knowledge(self, graph):
        result = anonymize(graph, k=5, epsilon=0.05, seed=1, **FAST)
        knowledge = expected_degree_knowledge(graph)
        report = check_obfuscation(result.graph, 5, 0.05, knowledge=knowledge)
        assert report.satisfied

    def test_vertex_set_preserved(self, graph):
        result = anonymize(graph, k=5, epsilon=0.05, seed=2, **FAST)
        assert result.graph.n_nodes == graph.n_nodes

    def test_sigma_history_recorded(self, graph):
        result = anonymize(graph, k=5, epsilon=0.05, seed=3, **FAST)
        assert len(result.sigma_history) == result.n_genobf_calls
        assert result.n_genobf_calls >= 2  # bracket + at least one bisection

    def test_bisection_bracket_narrow(self, graph):
        """The accepted sigma is within tolerance of the failure boundary."""
        result = anonymize(graph, k=5, epsilon=0.05, seed=4, **FAST)
        successes = [s for s, e in result.sigma_history if e <= 0.05]
        assert result.sigma == pytest.approx(min(successes))

    def test_larger_k_needs_no_less_noise(self, graph):
        weak = anonymize(graph, k=3, epsilon=0.05, seed=5, **FAST)
        strong = anonymize(graph, k=20, epsilon=0.05, seed=5, **FAST)
        assert strong.sigma >= weak.sigma * 0.5  # allow search randomness

    def test_noise_added_measurable(self, graph):
        result = anonymize(graph, k=5, epsilon=0.05, seed=6, **FAST)
        noise = result.noise_added(graph)
        assert np.isfinite(noise)
        assert noise > 0.0

    def test_summary_fields(self, graph):
        result = anonymize(graph, k=5, epsilon=0.05, seed=7, **FAST)
        s = result.summary()
        assert s["method"] == "rsme"
        assert s["success"] is True
        assert s["k"] == 5

    def test_k_larger_than_n_rejected(self, graph):
        with pytest.raises(ObfuscationError):
            anonymize(graph, k=graph.n_nodes + 1, epsilon=0.05, **FAST)

    def test_edgeless_graph_rejected(self):
        with pytest.raises(ObfuscationError):
            anonymize(UncertainGraph(10), k=2, epsilon=0.1, **FAST)

    def test_reproducible_with_seed(self, graph):
        a = anonymize(graph, k=5, epsilon=0.05, seed=8, **FAST)
        b = anonymize(graph, k=5, epsilon=0.05, seed=8, **FAST)
        assert a.sigma == b.sigma
        assert a.graph == b.graph


class TestChameleonClass:
    def test_reusable_across_graphs(self, graph):
        anonymizer = Chameleon(variant_config("me", k=4, epsilon=0.05, **FAST))
        r1 = anonymizer.anonymize(graph, seed=9)
        r2 = anonymizer.anonymize(graph, seed=10)
        assert r1.success and r2.success

    def test_config_exposed(self):
        cfg = variant_config("rs", k=7, epsilon=0.01)
        assert Chameleon(cfg).config is cfg

    def test_hard_failure_reported_not_raised(self):
        """An impossible target (k == n on a rigid graph, eps = 0, tiny
        sigma cap) yields a failed result instead of an exception."""
        star = UncertainGraph(6, [(0, i, 1.0) for i in range(1, 6)])
        cfg = variant_config(
            "me", k=6, epsilon=0.0, n_trials=1, sigma_initial=1e-4,
            sigma_max=2e-4, relevance_samples=50,
        )
        result = Chameleon(cfg).anonymize(star, seed=11)
        assert not result.success
        assert result.graph is None
        assert result.epsilon_achieved == 1.0

    def test_hard_failure_reports_largest_probed_sigma(self):
        """Regression: the failure result used to expose ``probes[-1]``,
        which after bidirectional bracketing is the *smallest* downward
        probe -- misreporting how much noise was actually tried.  The
        exhausted noise range is the largest probe."""
        star = UncertainGraph(6, [(0, i, 1.0) for i in range(1, 6)])
        cfg = variant_config(
            "me", k=6, epsilon=0.0, n_trials=1, sigma_initial=1.0,
            sigma_max=4.0, relevance_samples=50,
        )
        result = Chameleon(cfg).anonymize(star, seed=12)
        assert not result.success
        # Probes alternate 1, 2, 0.5, 4, 0.25, ... 2^-i down to the
        # floor; the reported sigma must be the 4.0 ceiling, not the
        # last (tiny) downward probe.
        probed = [s for s, __ in result.sigma_history]
        assert result.sigma == max(probed) == 4.0

    def test_checker_paths_agree_end_to_end(
        self, graph, monkeypatch, tmp_path
    ):
        """Algorithm 1 must be checker-invariant: the check draws nothing
        from the rng, so a run whose trial checks go through the full
        oracle makes the same search and writes the same bytes."""
        cfg = variant_config("me", k=4, epsilon=0.05, **FAST)
        incremental = Chameleon(cfg).anonymize(graph, seed=13)
        use_full_checker(monkeypatch)
        full = Chameleon(cfg).anonymize(graph, seed=13)
        assert incremental.success and full.success
        assert incremental.sigma == full.sigma
        assert incremental.graph == full.graph
        assert incremental.sigma_history == full.sigma_history
        np.testing.assert_array_equal(
            incremental.report.entropies, full.report.entropies
        )
        write_edge_list(incremental.graph, tmp_path / "incremental.pel")
        write_edge_list(full.graph, tmp_path / "full.pel")
        assert (tmp_path / "incremental.pel").read_bytes() == (
            tmp_path / "full.pel"
        ).read_bytes()


class TestUtilityOrdering:
    def test_chameleon_adds_less_noise_than_required_privacy_allows(self, graph):
        """Smaller epsilon tolerance (stricter) needs >= noise."""
        loose = anonymize(graph, k=8, epsilon=0.10, seed=12, **FAST)
        strict = anonymize(graph, k=8, epsilon=0.02, seed=12, **FAST)
        assert strict.sigma >= loose.sigma * 0.5
