"""Parallel GenObf trial engine: determinism, shm lifecycle, delta path.

The load-bearing guarantee is *bit-identity*: ``anonymize(seed=s)`` must
produce exactly the same result for every ``trial_backend`` and every
worker count, because the per-trial randomness is a pure function of
``(entropy, probe_index, trial_index)`` and the reduction replays the
sequential tie-break.  The shared-memory publication contract:
descriptors -- not arrays -- cross the pool boundary, and the segment is
unlinked even when the pool dies.
"""

from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core import (
    ChameleonConfig,
    Chameleon,
    anonymize,
    build_selection_context,
    gen_obf,
    variant_config,
)
from repro import _segments
from repro.core import parallel
from repro.core.parallel import (
    NUM_WORKERS_ENV,
    ProcessTrialEngine,
    SerialTrialEngine,
    TRIAL_BACKENDS,
    _graph_from_arrays,
    _init_trial_worker,
    _pack_arrays,
    _trial_task,
    _unpack_arrays,
    create_trial_engine,
    reduce_probe,
    resolve_worker_count,
    run_trial,
    trial_generator,
)
from repro.exceptions import ConfigurationError
from repro.privacy import expected_degree_knowledge
from repro.privacy.incremental import DegreeUncertaintyCache
from repro.ugraph import UncertainGraph, apply_edge_updates, overlay
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


class TestSharedMemoryBundle:
    def test_roundtrip_including_empty(self):
        arrays = {
            "a": np.arange(7, dtype=np.int64),
            "empty": np.zeros(0, dtype=np.float64),
            "m": np.linspace(0.0, 1.0, 12).reshape(3, 4),
            "flags": np.array([5, 0, 3], dtype=np.int64),
        }
        shm, manifest = _pack_arrays(arrays)
        try:
            out = _unpack_arrays(shm.name, manifest)
        finally:
            _segments.release_segment(shm)
        assert set(out) == set(arrays)
        for name, arr in arrays.items():
            assert out[name].dtype == arr.dtype
            np.testing.assert_array_equal(out[name], arr)

    def test_manifest_is_descriptors_not_payload(self):
        arrays = {"a": np.arange(5, dtype=np.int64)}
        shm, manifest = _pack_arrays(arrays)
        try:
            for entry in manifest:
                name, dtype, shape, offset = entry
                assert isinstance(name, str)
                assert isinstance(dtype, str)
                assert not any(isinstance(x, np.ndarray) for x in entry)
        finally:
            _segments.release_segment(shm)

    def test_graph_reconstruction_matches(self, small_profile_graph):
        g = small_profile_graph
        rebuilt = _graph_from_arrays(
            g.n_nodes, g.edge_src, g.edge_dst, g.edge_probabilities
        )
        assert rebuilt == UncertainGraph(
            g.n_nodes,
            [(int(u), int(v), float(p)) for u, v, p in
             zip(g.edge_src, g.edge_dst, g.edge_probabilities)],
        )
        us = g.edge_src[:5]
        vs = g.edge_dst[:5]
        np.testing.assert_array_equal(
            rebuilt.pair_probabilities(us, vs), g.pair_probabilities(us, vs)
        )


class TestWorkerPathEqualsParentPath:
    def test_initializer_and_task_reproduce_run_trial(
        self, small_profile_graph, monkeypatch
    ):
        """_init_trial_worker + _trial_task, run in-process, must equal a
        direct run_trial call on the parent's objects."""
        graph = small_profile_graph
        config = ChameleonConfig(**FAST)
        context, cache = _context_and_cache(graph, config)
        entropy = 987654321

        arrays = {
            "edge_src": graph.edge_src,
            "edge_dst": graph.edge_dst,
            "edge_prob": graph.edge_probabilities,
            "uniqueness": context.uniqueness,
            "vertex_relevance": context.vertex_relevance,
            "excluded": context.excluded,
            "weights": context.weights,
            "knowledge": context.knowledge,
            "base_pmf": cache.base_matrix,
        }
        shm, manifest = _pack_arrays(arrays)
        monkeypatch.setattr(parallel, "_WORKER_STATE", None)
        try:
            _init_trial_worker(
                shm.name, manifest, graph.n_nodes, config, entropy
            )
            worker_result = _trial_task((3, 1, 0.5, None))
        finally:
            _segments.release_segment(shm)
        parent_result = run_trial(
            graph, config, context, 0.5, 3, 1, entropy, cache
        )
        assert worker_result.satisfied == parent_result.satisfied
        assert worker_result.epsilon_achieved == parent_result.epsilon_achieved
        for field in ("us", "vs", "p_old", "p_new", "entropies", "obfuscated"):
            a = getattr(worker_result, field)
            b = getattr(parent_result, field)
            if a is None or b is None:
                assert a is None and b is None
            else:
                np.testing.assert_array_equal(a, b)


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


class TestCrossBackendBitIdentity:
    """The tentpole guarantee: serial and process anonymization agree
    bit-for-bit at every worker count."""

    @pytest.fixture
    def serial_result(self, small_profile_graph):
        # The serial run is cheap; recompute per worker-count case rather
        # than widening the fixture scope past small_profile_graph's.
        return anonymize(
            small_profile_graph, method="rsme", seed=7,
            utility_samples=16, **FAST,
        )

    @pytest.mark.parametrize("backend", ["process"])
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_pooled_equals_serial(
        self, small_profile_graph, serial_result, backend, n_workers
    ):
        got = anonymize(
            small_profile_graph, method="rsme", seed=7,
            utility_samples=16, trial_backend=backend,
            n_workers=n_workers, **FAST,
        )
        assert got.trial_backend == backend
        assert got.trial_workers == n_workers
        assert serial_result.trial_backend == "serial"
        assert got.sigma == serial_result.sigma
        assert got.epsilon_achieved == serial_result.epsilon_achieved
        assert got.n_genobf_calls == serial_result.n_genobf_calls
        assert got.sigma_history == serial_result.sigma_history
        assert got.utility_history == serial_result.utility_history
        assert got.utility_discrepancy == serial_result.utility_discrepancy
        assert got.graph == serial_result.graph
        np.testing.assert_array_equal(
            got.report.entropies, serial_result.report.entropies
        )


class TestLadderWave:
    @pytest.mark.parametrize("engine_cls", [ProcessTrialEngine])
    def test_pooled_ladder_matches_serial_walk(
        self, small_profile_graph, engine_cls
    ):
        config = ChameleonConfig(**FAST)
        context, cache = _context_and_cache(small_profile_graph, config)
        sigmas = [1.0, 2.0, 0.5, 4.0, 0.25]
        serial = SerialTrialEngine(
            small_profile_graph, config, context, cache=cache, entropy=99
        )
        expected = serial.run_ladder(sigmas)
        with engine_cls(
            small_profile_graph, config, context, cache=cache, entropy=99,
            n_workers=2,
        ) as engine:
            got = engine.run_ladder(sigmas)
            cancelled = engine.trials_cancelled
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.sigma == b.sigma
            assert a.epsilon_achieved == b.epsilon_achieved
            assert (a.graph is None) == (b.graph is None)
            if a.graph is not None:
                assert a.graph == b.graph
        # When the walk short-circuits, the speculative tail was cancelled
        # or discarded -- never part of the outcome list.
        if len(expected) < len(sigmas):
            assert cancelled >= 0
            assert got[-1].success


class TestEngineRetargeting:
    """set_privacy / set_entropy retarget a live engine without rebuild;
    a retargeted pooled engine must equal a freshly built serial one."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_retargeted_engine_matches_fresh(
        self, small_profile_graph, backend
    ):
        config = ChameleonConfig(**FAST)
        context, cache = _context_and_cache(small_profile_graph, config)
        fresh_config = config.with_privacy(3, 0.35)
        fresh = SerialTrialEngine(
            small_profile_graph, fresh_config, context, cache=cache,
            entropy=1234,
        )
        expected = fresh.run_probe(0, 0.5)
        with create_trial_engine(
            small_profile_graph, config, context, cache=cache, entropy=99,
            trial_backend=backend, n_workers=2,
        ) as engine:
            engine.run_probe(0, 0.5)  # consume the pre-retarget state
            engine.set_privacy(3, 0.35)
            engine.set_entropy(1234)
            got = engine.run_probe(0, 0.5)
        assert got.sigma == expected.sigma
        assert got.epsilon_achieved == expected.epsilon_achieved
        assert (got.graph is None) == (expected.graph is None)
        if got.graph is not None:
            assert got.graph == expected.graph


class TestShmLifecycle:
    def test_segment_unlinked_after_close(
        self, small_profile_graph, monkeypatch
    ):
        names = []
        original = parallel._pack_arrays

        def recording(arrays):
            shm, manifest = original(arrays)
            names.append(shm.name)
            return shm, manifest

        monkeypatch.setattr(parallel, "_pack_arrays", recording)
        config = ChameleonConfig(**FAST)
        context, cache = _context_and_cache(small_profile_graph, config)
        engine = ProcessTrialEngine(
            small_profile_graph, config, context, cache=cache, entropy=1,
            n_workers=2,
        )
        assert len(names) == 1
        # Alive while the engine is open ...
        seg = _segments.attach_segment(names[0])
        seg.close()
        engine.close()
        # ... unlinked after close (idempotent).
        engine.close()
        with pytest.raises(FileNotFoundError):
            _segments.attach_segment(names[0])

    def test_segment_unlinked_when_pool_breaks(
        self, small_profile_graph, monkeypatch
    ):
        names = []
        original = parallel._pack_arrays

        def recording(arrays):
            shm, manifest = original(arrays)
            names.append(shm.name)
            return shm, manifest

        class BrokenPool:
            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("simulated worker death")

            def shutdown(self, *args, **kwargs):
                pass

        monkeypatch.setattr(parallel, "_pack_arrays", recording)
        config = ChameleonConfig(**FAST)
        context, cache = _context_and_cache(small_profile_graph, config)
        engine = ProcessTrialEngine(
            small_profile_graph, config, context, cache=cache, entropy=1,
            n_workers=2,
        )
        engine._pool.shutdown(wait=False, cancel_futures=True)
        engine._pool = BrokenPool()
        try:
            with pytest.raises(BrokenProcessPool):
                engine.run_probe(0, 0.5)
        finally:
            engine.close()
        assert len(names) == 1
        with pytest.raises(FileNotFoundError):
            _segments.attach_segment(names[0])

    def test_anonymize_survives_worker_crash_and_unlinks_shm(
        self, small_profile_graph, monkeypatch
    ):
        """A dead process pool degrades to the serial backend and every
        discarded engine's shm segment is unlinked along the way."""
        names = []
        original = parallel._pack_arrays

        def recording(arrays):
            shm, manifest = original(arrays)
            names.append(shm.name)
            return shm, manifest

        def exploding_ladder(self, sigmas, first_probe_index=0):
            raise BrokenProcessPool("simulated worker death")

        monkeypatch.setattr(parallel, "_pack_arrays", recording)
        monkeypatch.setattr(
            parallel.ProcessTrialEngine, "run_ladder", exploding_ladder
        )
        config = variant_config(
            "rsme", trial_backend="process", n_workers=2, max_retries=1,
            retry_backoff=0.0, **FAST
        )
        result = Chameleon(config).anonymize(small_profile_graph, seed=3)
        reference = anonymize(small_profile_graph, seed=3, **FAST)
        # 1 original + 1 retry process engines, each with one segment.
        assert len(names) == 2
        for name in names:
            with pytest.raises(FileNotFoundError):
                _segments.attach_segment(name)
        assert result.success == reference.success
        assert result.sigma == reference.sigma
        assert [
            (d.backend_from, d.backend_to) for d in result.degradations
        ] == [("process", "serial")]
        assert result.trial_backend == "serial"
        assert result.trial_retries >= 1
        if reference.success:
            np.testing.assert_array_equal(
                result.graph.edge_probabilities,
                reference.graph.edge_probabilities,
            )


class TestConfigurationSurface:
    def test_backends_registry(self):
        assert TRIAL_BACKENDS == ("serial", "process")
        assert ChameleonConfig().trial_backend == "serial"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="trial_backend"):
            ChameleonConfig(trial_backend="threads")
        with pytest.raises(ConfigurationError, match="trial backend"):
            create_trial_engine(None, ChameleonConfig(), None,
                                trial_backend="threads")

    def test_thread_backend_rejected(self):
        """The thread trial engine is gone; naming it is a config error."""
        with pytest.raises(ConfigurationError, match="trial_backend"):
            ChameleonConfig(trial_backend="thread")

    def test_cli_exposes_trial_backend(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["anonymize", "ppi", "out.txt", "--k", "5",
             "--trial-backend", "process", "--workers", "2"]
        )
        assert args.trial_backend == "process"
        assert args.workers == 2


class TestWorkerResolution:
    """``resolve_worker_count`` sizes the ``process`` trial engine."""

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(NUM_WORKERS_ENV, "7")
        assert resolve_worker_count(3) == 3

    def test_environment_variable(self, monkeypatch):
        monkeypatch.setenv(NUM_WORKERS_ENV, "5")
        assert resolve_worker_count() == 5

    def test_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv(NUM_WORKERS_ENV, raising=False)
        assert resolve_worker_count() >= 1

    def test_rejects_non_integer_env(self, monkeypatch):
        monkeypatch.setenv(NUM_WORKERS_ENV, "many")
        with pytest.raises(ConfigurationError, match=NUM_WORKERS_ENV):
            resolve_worker_count()

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            resolve_worker_count(0)


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
