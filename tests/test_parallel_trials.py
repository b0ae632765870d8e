"""GenObf trial engine: per-trial streams, reduction, retargeting, delta path.

The load-bearing guarantee is *bit-identity*: every trial's randomness
is a pure function of ``(entropy, probe_index, trial_index)`` and the
reduction replays the sequential tie-break, so a retried, resumed or
retargeted probe reproduces the original exactly.
"""

import numpy as np
import pytest

from repro.core import ChameleonConfig, build_selection_context, gen_obf
from repro.core.parallel import (
    SerialTrialEngine,
    reduce_probe,
    run_trial,
    trial_generator,
)
from repro.privacy import expected_degree_knowledge
from repro.privacy.incremental import DegreeUncertaintyCache
from repro.ugraph import apply_edge_updates, overlay
from tests.checker_oracle import (
    assert_reports_identical,
    record_checks,
    use_full_checker,
)

#: Small-but-nontrivial search configuration shared by the suite.
FAST = dict(
    k=5,
    epsilon=0.3,
    n_trials=2,
    relevance_samples=50,
    sigma_tolerance=0.1,
)


def _context_and_cache(graph, config, seed=11):
    knowledge = expected_degree_knowledge(graph)
    context = build_selection_context(graph, config, knowledge, seed=seed)
    cache = DegreeUncertaintyCache(graph, knowledge=context.knowledge)
    return context, cache


class TestTrialGenerator:
    def test_pure_function_of_coordinates(self):
        a = trial_generator(123, 4, 7).random(8)
        b = trial_generator(123, 4, 7).random(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_coordinates_distinct_streams(self):
        base = trial_generator(123, 4, 7).random(8)
        for entropy, probe, trial in [(124, 4, 7), (123, 5, 7), (123, 4, 8)]:
            other = trial_generator(entropy, probe, trial).random(8)
            assert not np.array_equal(base, other)


class TestReduction:
    def test_matches_sequential_tiebreak(self, small_profile_graph):
        graph = small_profile_graph
        config = ChameleonConfig(**dict(FAST, n_trials=6))
        context, cache = _context_and_cache(graph, config)
        results = [
            run_trial(graph, config, context, 0.5, 0, t, 42, cache)
            for t in range(config.n_trials)
        ]
        outcome = reduce_probe(graph, config, 0.5, results)
        # Sequential fold: first strictly-lower epsilon among satisfied.
        best, best_eps = None, 1.0
        for r in results:
            if r.satisfied and r.epsilon_achieved < best_eps:
                best, best_eps = r, r.epsilon_achieved
        if best is None:
            assert not outcome.success
        else:
            assert outcome.success
            assert outcome.epsilon_achieved == best_eps
            assert outcome.graph == apply_edge_updates(
                graph, best.us, best.vs, best.p_new
            )

    def test_failure_sentinel(self, small_profile_graph):
        config = ChameleonConfig(**FAST)
        outcome = reduce_probe(small_profile_graph, config, 2.0, [])
        assert not outcome.success
        assert outcome.epsilon_achieved == 1.0


class TestGenObfOnEngine:
    def test_same_seed_reproducible(self, small_profile_graph):
        config = ChameleonConfig(**FAST)
        context, cache = _context_and_cache(small_profile_graph, config)
        a = gen_obf(small_profile_graph, config, 0.5, context, seed=5,
                    cache=cache)
        b = gen_obf(small_profile_graph, config, 0.5, context, seed=5,
                    cache=cache)
        assert a.epsilon_achieved == b.epsilon_achieved
        assert (a.graph is None) == (b.graph is None)
        if a.graph is not None:
            assert a.graph == b.graph

    def test_checkers_bit_identical(self, small_profile_graph, monkeypatch):
        """Each trial's incremental report equals the full oracle's, and
        a probe checked by the oracle alone picks the same winner."""
        config = ChameleonConfig(**FAST)
        ctx_inc, cache = _context_and_cache(small_profile_graph, config)
        checks = record_checks(monkeypatch)
        a = gen_obf(small_profile_graph, config, 0.5, ctx_inc, seed=5,
                    cache=cache)
        assert len(checks) == config.n_trials
        for incremental, full in checks:
            assert_reports_identical(incremental, full)
        monkeypatch.undo()
        use_full_checker(monkeypatch)
        b = gen_obf(small_profile_graph, config, 0.5, ctx_inc, seed=5)
        assert a.epsilon_achieved == b.epsilon_achieved
        if a.graph is not None:
            assert a.graph == b.graph
            assert_reports_identical(a.report, b.report)


class TestEngineRetargeting:
    """set_privacy / set_entropy retarget a live engine without rebuild;
    a retargeted engine must equal a freshly built one."""

    def test_retargeted_engine_matches_fresh(self, small_profile_graph):
        config = ChameleonConfig(**FAST)
        context, cache = _context_and_cache(small_profile_graph, config)
        fresh_config = config.with_privacy(3, 0.35)
        fresh = SerialTrialEngine(
            small_profile_graph, fresh_config, context, cache=cache,
            entropy=1234,
        )
        expected = fresh.run_probe(0, 0.5)
        engine = SerialTrialEngine(
            small_profile_graph, config, context, cache=cache, entropy=99,
        )
        engine.run_probe(0, 0.5)  # consume the pre-retarget state
        engine.set_privacy(3, 0.35)
        engine.set_entropy(1234)
        got = engine.run_probe(0, 0.5)
        assert got.sigma == expected.sigma
        assert got.epsilon_achieved == expected.epsilon_achieved
        assert (got.graph is None) == (expected.graph is None)
        if got.graph is not None:
            assert got.graph == expected.graph


class TestConfigurationSurface:
    """There is one trial engine: no config field selects or sizes one."""

    def test_unknown_backend_rejected(self):
        for knob, value in (("trial_backend", "serial"),
                            ("trial_backend", "process"),
                            ("trial_backend", "threads"),
                            ("n_workers", 2)):
            with pytest.raises(TypeError, match=knob):
                ChameleonConfig(**{knob: value})

    def test_thread_backend_rejected(self):
        """The thread trial engine is gone; naming it is an error."""
        with pytest.raises(TypeError, match="trial_backend"):
            ChameleonConfig(trial_backend="thread")


class TestDeltaPath:
    """Satellite: the array delta path shared by checker and winner
    materialization replaces the per-pair generator overlays."""

    def test_apply_edge_updates_equals_overlay(self, small_profile_graph):
        graph = small_profile_graph
        rng = np.random.default_rng(0)
        n_existing = min(6, graph.n_edges)
        us = graph.edge_src[:n_existing].tolist()
        vs = graph.edge_dst[:n_existing].tolist()
        # Add fresh pairs (some reversed, one duplicated) to exercise the
        # append path and overlay's last-write-wins dict semantics.
        fresh = []
        while len(fresh) < 3:
            u, v = rng.integers(0, graph.n_nodes, size=2)
            if u == v:
                continue
            lo, hi = (int(u), int(v)) if u < v else (int(v), int(u))
            if graph.probability(lo, hi) == 0.0 and (lo, hi) not in fresh:
                fresh.append((lo, hi))
        us += [fresh[0][0], fresh[1][1], fresh[2][0], fresh[0][0]]
        vs += [fresh[0][1], fresh[1][0], fresh[2][1], fresh[0][1]]
        probs = rng.random(len(us))
        got = apply_edge_updates(
            graph,
            np.array(us, dtype=np.int64),
            np.array(vs, dtype=np.int64),
            probs,
        )
        expected = overlay(graph, zip(us, vs, probs))
        assert got == expected
        np.testing.assert_array_equal(got.edge_src, expected.edge_src)
        np.testing.assert_array_equal(got.edge_dst, expected.edge_dst)
        np.testing.assert_array_equal(
            got.edge_probabilities, expected.edge_probabilities
        )
        # The pair-key index carried over from the base equals a fresh sort.
        assert got._pair_key_cache is not None
        for carried, rebuilt in zip(got._pair_key_cache,
                                    expected._pair_key_index()):
            np.testing.assert_array_equal(carried, rebuilt)

    def test_check_edge_arrays_equals_check_delta(self, small_profile_graph):
        graph = small_profile_graph
        cache = DegreeUncertaintyCache(graph)
        rng = np.random.default_rng(3)
        m = min(8, graph.n_edges)
        us = graph.edge_src[:m]
        vs = graph.edge_dst[:m]
        p_old = graph.pair_probabilities(us, vs)
        p_new = rng.random(m)
        via_arrays = cache.check_edge_arrays(us, vs, p_old, p_new, 5, 0.3)
        via_delta = cache.check_delta(
            list(zip(us.tolist(), vs.tolist(), p_old.tolist(),
                     p_new.tolist())),
            5, 0.3,
        )
        assert via_arrays.epsilon_achieved == via_delta.epsilon_achieved
        np.testing.assert_array_equal(
            via_arrays.entropies, via_delta.entropies
        )
