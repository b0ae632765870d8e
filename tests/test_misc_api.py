"""Small API-surface tests: reprs, helpers, and plumbing."""

import numpy as np
import pytest

import repro
from repro._rng import as_generator, spawn
from repro.core.result import FAILURE_EPSILON, AnonymizationResult, GenObfOutcome


class TestRngPlumbing:
    def test_int_seed_reproducible(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passed_through(self):
        rng = np.random.default_rng(0)
        assert as_generator(rng) is rng

    def test_none_gives_fresh_entropy(self):
        a = as_generator(None).random(3)
        b = as_generator(None).random(3)
        assert not np.array_equal(a, b)

    def test_spawn_independent_children(self):
        rng = as_generator(7)
        children = spawn(rng, 3)
        assert len(children) == 3
        draws = [c.random(4) for c in children]
        assert not np.array_equal(draws[0], draws[1])

    def test_spawn_reproducible_from_seed(self):
        a = [c.random(2) for c in spawn(as_generator(9), 2)]
        b = [c.random(2) for c in spawn(as_generator(9), 2)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestResultObjects:
    def test_genobf_outcome_repr(self):
        ok = GenObfOutcome(sigma=0.25, epsilon_achieved=0.01,
                           graph=repro.UncertainGraph(2, [(0, 1, 0.5)]),
                           report=None)
        fail = GenObfOutcome(sigma=0.25, epsilon_achieved=FAILURE_EPSILON,
                             graph=None, report=None)
        assert "ok" in repr(ok)
        assert "fail" in repr(fail)
        assert ok.success and not fail.success

    def test_anonymization_result_repr(self):
        result = AnonymizationResult(
            graph=None, method="rsme", k=5, epsilon=0.05, sigma=1.0,
            epsilon_achieved=1.0, report=None, n_genobf_calls=2,
        )
        assert "FAILED" in repr(result)
        assert result.summary()["success"] is False

    def test_version_exposed(self):
        assert repro.__version__ == "1.1.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name


class TestPackageSurfaces:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.ugraph",
            "repro.reliability",
            "repro.privacy",
            "repro.core",
            "repro.baselines",
            "repro.metrics",
            "repro.anf",
            "repro.datasets",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert getattr(module, name, None) is not None, (
                module_name, name
            )

    def test_feasibility_report_repr(self):
        from repro.core import diagnose_feasibility

        g = repro.UncertainGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),
                                     (0, 3, 1.0)])
        text = repr(diagnose_feasibility(g, 4, 0.0))
        assert "feasible" in text

    def test_refinement_stats_noise_removed(self):
        from repro.core.refine import RefinementStats

        stats = RefinementStats(10, 5, 3.0, 1.0, 4)
        assert stats.noise_removed == pytest.approx(2.0)
