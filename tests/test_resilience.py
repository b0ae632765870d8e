"""Fault-tolerance layer: supervision, fault injection, checkpoints, shm.

The determinism contract of the trial engines (every trial is a pure
function of its ``(entropy, probe, trial)`` coordinates) is what makes
fault tolerance *testable*: a run that crashes, times out, degrades
backends or resumes from a checkpoint must produce byte-for-byte the
result of an undisturbed serial run.  Every recovery scenario here
asserts exactly that, plus the hygiene property that no shared-memory
segment outlives its run.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro import _segments
from repro.core import (
    ChameleonConfig,
    Chameleon,
    FaultPlan,
    RetryPolicy,
    SigmaSearchJournal,
    SupervisedTrialEngine,
    anonymize,
    build_selection_context,
    create_trial_engine,
    execution_environment,
    variant_config,
)
from repro.core.faults import FAULTS_ENV, execute_fault
from repro.core.resilience import DEGRADATION_LADDER, run_fingerprint
from repro.exceptions import (
    ConfigurationError,
    InjectedFault,
    ResilienceError,
    TrialTimeoutError,
)
from repro.privacy import expected_degree_knowledge

#: Small-but-nontrivial search configuration shared by the suite.
FAST = dict(
    k=5,
    epsilon=0.3,
    n_trials=2,
    relevance_samples=50,
    sigma_tolerance=0.1,
)


#: Open/probe/close cycles of the close-race test.
CLOSE_CYCLES = 40


def _context(graph, config, seed=11):
    knowledge = expected_degree_knowledge(graph)
    return build_selection_context(graph, config, knowledge, seed=seed)


def _supervised(graph, config, context, plan=None, backend="process",
                max_retries=0, task_timeout=None, n_workers=2, entropy=123):
    def factory(name):
        return create_trial_engine(
            graph, config, context, entropy=entropy, trial_backend=name,
            n_workers=n_workers, fault_plan=plan, task_timeout=task_timeout,
        )

    policy = RetryPolicy(task_timeout=task_timeout, max_retries=max_retries,
                         backoff_seconds=0.0)
    return SupervisedTrialEngine(factory, backend, policy)


# --------------------------------------------------------------------- #
# Fault-plan grammar
# --------------------------------------------------------------------- #

class TestFaultPlanParsing:
    def test_crash_delay_shm_grammar(self):
        plan = FaultPlan.parse("crash@0.1;delay@*.0:2.5x2;shm:3")
        assert plan.draw(0, 1).kind == "crash"
        assert plan.draw(0, 1) is None  # budget of 1 consumed
        action = plan.draw(7, 0)
        assert action.kind == "delay" and action.seconds == 2.5
        assert plan.draw(8, 0).kind == "delay"
        assert plan.draw(9, 0) is None  # x2 budget consumed
        assert plan.take_shm_poison()
        assert plan.take_shm_poison()
        assert plan.take_shm_poison()
        assert not plan.take_shm_poison()
        assert plan.exhausted

    def test_wildcards_match_any_coordinate(self):
        plan = FaultPlan.parse("crash@*.*x2")
        assert plan.draw(3, 1) is not None
        assert plan.draw(99, 0) is not None
        assert plan.draw(0, 0) is None

    def test_comma_separator_and_blank_tokens(self):
        plan = FaultPlan.parse("crash@0.0, shm ,")
        assert plan.draw(0, 0).kind == "crash"
        assert plan.take_shm_poison()

    def test_junk_rejected(self):
        for text in ("boom@0.0", "crash@x.y", "delay@0.0", "crash0.0",
                     "shm:two"):
            with pytest.raises(ConfigurationError):
                FaultPlan.parse(text)

    def test_delay_requires_duration(self):
        with pytest.raises(ConfigurationError, match="needs a duration"):
            FaultPlan.parse("delay@0.1")

    def test_config_takes_precedence_over_env(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "crash@0.0")
        config = ChameleonConfig(fault_plan="delay@1.1:0.5", **FAST)
        plan = FaultPlan.from_config(config)
        assert plan.draw(0, 0) is None
        assert plan.draw(1, 1).kind == "delay"

    def test_empty_config_string_disables_env_plan(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "crash@0.0")
        assert FaultPlan.from_config(ChameleonConfig(fault_plan="", **FAST)) \
            is None

    def test_env_plan_used_when_config_silent(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "crash@2.0")
        plan = FaultPlan.from_config(ChameleonConfig(**FAST))
        assert plan.draw(2, 0).kind == "crash"

    def test_no_plan_anywhere(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert FaultPlan.from_config(ChameleonConfig(**FAST)) is None

    def test_config_validates_plan_up_front(self):
        with pytest.raises(ConfigurationError, match="fault spec"):
            ChameleonConfig(fault_plan="garbage", **FAST)

    def test_in_process_crash_raises_injected_fault(self):
        plan = FaultPlan.parse("crash@0.0")
        with pytest.raises(InjectedFault):
            execute_fault(plan.draw(0, 0))


# --------------------------------------------------------------------- #
# Supervision: retry, timeout, degradation ladder
# --------------------------------------------------------------------- #

class TestSupervision:
    def test_ladder_registry(self):
        assert DEGRADATION_LADDER == {"process": "serial", "serial": None}

    def test_unknown_rung_rejected(self):
        with pytest.raises(ResilienceError, match="rung"):
            SupervisedTrialEngine(lambda b: None, "gpu", RetryPolicy())

    def test_crash_retry_is_bit_identical(self, small_profile_graph):
        """One injected worker crash, retried: same outcome as no crash."""
        config = ChameleonConfig(**FAST)
        context = _context(small_profile_graph, config)
        reference = create_trial_engine(
            small_profile_graph, config, context, entropy=123,
            trial_backend="serial",
        ).run_probe(0, 1.0)
        plan = FaultPlan.parse("crash@0.0")
        engine = _supervised(small_profile_graph, config, context, plan,
                             max_retries=2)
        try:
            outcome = engine.run_probe(0, 1.0)
        finally:
            engine.close()
        assert engine.retry_count == 1
        assert engine.degradations == ()
        assert outcome.epsilon_achieved == reference.epsilon_achieved
        if reference.success:
            np.testing.assert_array_equal(
                outcome.graph.edge_probabilities,
                reference.graph.edge_probabilities,
            )

    def test_full_ladder_fires_in_order(self, small_profile_graph):
        """Exact crash budget: process wave crashes, serial runs clean."""
        config = ChameleonConfig(**FAST)
        context = _context(small_profile_graph, config)
        # One probe of n_trials=2: process consumes both draws at
        # dispatch, serial draws nothing.
        plan = FaultPlan.parse("crash@0.*x2")
        engine = _supervised(small_profile_graph, config, context, plan,
                             max_retries=0)
        try:
            outcome = engine.run_probe(0, 1.0)
            assert engine.backend == "serial"
        finally:
            engine.close()
        assert [
            (d.backend_from, d.backend_to) for d in engine.degradations
        ] == [("process", "serial")]
        assert all(d.reason for d in engine.degradations)
        reference = create_trial_engine(
            small_profile_graph, config, context, entropy=123,
            trial_backend="serial",
        ).run_probe(0, 1.0)
        assert outcome.epsilon_achieved == reference.epsilon_achieved

    def test_exhausted_ladder_raises_resilience_error(
        self, small_profile_graph
    ):
        """Both rungs crash: process degrades to serial, serial exhausts."""
        config = ChameleonConfig(**FAST)
        context = _context(small_profile_graph, config)
        plan = FaultPlan.parse("crash@*.*x1000")
        engine = _supervised(small_profile_graph, config, context, plan,
                             max_retries=0, backend="process")
        with pytest.raises(ResilienceError, match="every recovery option"):
            try:
                engine.run_probe(0, 1.0)
            finally:
                engine.close()
        assert [
            (d.backend_from, d.backend_to) for d in engine.degradations
        ] == [("process", "serial")]

    def test_pooled_timeout_recovers(self, small_profile_graph):
        """A delayed trial overruns its deadline and the retry succeeds."""
        config = ChameleonConfig(**FAST)
        context = _context(small_profile_graph, config)
        plan = FaultPlan.parse("delay@0.0:1.5")
        engine = _supervised(small_profile_graph, config, context, plan,
                             backend="process", max_retries=1,
                             task_timeout=0.2)
        try:
            outcome = engine.run_probe(0, 1.0)
        finally:
            engine.close()
        assert engine.retry_count == 1
        reference = create_trial_engine(
            small_profile_graph, config, context, entropy=123,
            trial_backend="serial",
        ).run_probe(0, 1.0)
        assert outcome.epsilon_achieved == reference.epsilon_achieved

    def test_serial_timeout_detected_post_hoc(self, small_profile_graph):
        config = ChameleonConfig(**FAST)
        context = _context(small_profile_graph, config)
        plan = FaultPlan.parse("delay@0.0:0.4")
        engine = create_trial_engine(
            small_profile_graph, config, context, entropy=123,
            trial_backend="serial", fault_plan=plan, task_timeout=0.1,
        )
        with pytest.raises(TrialTimeoutError):
            engine.run_probe(0, 1.0)

    def test_shm_poison_breaks_first_pool_then_recovers(
        self, small_profile_graph
    ):
        config = ChameleonConfig(**FAST)
        context = _context(small_profile_graph, config)
        plan = FaultPlan.parse("shm")
        engine = _supervised(small_profile_graph, config, context, plan,
                             max_retries=1)
        try:
            outcome = engine.run_probe(0, 1.0)
        finally:
            engine.close()
        assert engine.retry_count == 1
        assert engine.backend == "process"  # recovered without degrading
        reference = create_trial_engine(
            small_profile_graph, config, context, entropy=123,
            trial_backend="serial",
        ).run_probe(0, 1.0)
        assert outcome.epsilon_achieved == reference.epsilon_achieved

    def test_retargeting_survives_engine_rebuild(self, small_profile_graph):
        """set_privacy/set_entropy must be re-applied after a discard."""
        config = ChameleonConfig(**FAST)
        context = _context(small_profile_graph, config)
        plan = FaultPlan.parse("crash@0.0")
        engine = _supervised(small_profile_graph, config, context, plan,
                             backend="serial", max_retries=1)
        try:
            engine.set_entropy(777)
            outcome = engine.run_probe(0, 1.0)
        finally:
            engine.close()
        assert engine.retry_count == 1
        reference = create_trial_engine(
            small_profile_graph, config, context, entropy=777,
            trial_backend="serial",
        ).run_probe(0, 1.0)
        assert outcome.epsilon_achieved == reference.epsilon_achieved

    def test_non_retryable_errors_propagate(self, small_profile_graph):
        config = ChameleonConfig(**FAST)
        context = _context(small_profile_graph, config)

        class Boom(RuntimeError):
            pass

        class BrokenEngine:
            backend = "serial"
            trials_executed = 0
            trials_cancelled = 0

            def run_probe(self, probe_index, sigma):
                raise Boom("a genuine bug, not a recoverable failure")

            def close(self):
                pass

        engine = SupervisedTrialEngine(
            lambda b: BrokenEngine(), "serial", RetryPolicy(max_retries=5)
        )
        with pytest.raises(Boom):
            engine.run_probe(0, 1.0)


# --------------------------------------------------------------------- #
# End-to-end: anonymize under faults
# --------------------------------------------------------------------- #

class TestAnonymizeUnderFaults:
    def test_crash_plus_timeout_bit_identical_to_serial(
        self, small_profile_graph
    ):
        """The acceptance scenario: a past-deadline delay AND a worker
        crash on the process backend; the run completes via retries and
        matches the undisturbed serial run byte for byte.

        Fault draws return the first matching spec, so trial (0, 0)
        first eats the delay (attempt 1 times out), then the crash
        (attempt 2's pool breaks); attempt 3 runs clean."""
        reference = anonymize(small_profile_graph, seed=7, **FAST)
        result = anonymize(
            small_profile_graph, seed=7, trial_backend="process",
            n_workers=2, fault_plan="delay@0.0:1.0;crash@0.0",
            trial_timeout=0.3, retry_backoff=0.0, **FAST
        )
        assert result.success == reference.success
        assert result.sigma == reference.sigma
        assert result.epsilon_achieved == reference.epsilon_achieved
        assert result.sigma_history == reference.sigma_history
        assert result.trial_retries == 2
        if reference.success:
            np.testing.assert_array_equal(
                result.graph.edge_src, reference.graph.edge_src)
            np.testing.assert_array_equal(
                result.graph.edge_dst, reference.graph.edge_dst)
            np.testing.assert_array_equal(
                result.graph.edge_probabilities,
                reference.graph.edge_probabilities)
        assert _segments.active_segments() == ()

    def test_degradation_recorded_in_result(self, small_profile_graph):
        """Retries exhausted on the process rung: the run still succeeds
        serially and reports the degradation path."""
        reference = anonymize(small_profile_graph, seed=7, **FAST)
        # Bounded budget: the process ladder wave consumes the single
        # crash draw at dispatch, max_retries=0 forces an immediate
        # degradation, and the serial walk then runs fault-free.
        result = anonymize(
            small_profile_graph, seed=7, trial_backend="process",
            n_workers=2, fault_plan="crash@*.*x1", max_retries=0,
            retry_backoff=0.0, **FAST
        )
        assert [
            (d.backend_from, d.backend_to) for d in result.degradations
        ] == [("process", "serial")]
        assert result.trial_backend == "serial"
        assert result.sigma == reference.sigma
        summary = result.summary()
        assert summary["degradations"][0]["from"] == "process"
        assert summary["trial_retries"] == result.trial_retries

    def test_no_segments_survive_fault_runs(self, small_profile_graph):
        anonymize(
            small_profile_graph, seed=9, trial_backend="process",
            n_workers=2, fault_plan="crash@0.0;shm", retry_backoff=0.0,
            **FAST
        )
        assert _segments.active_segments() == ()


# --------------------------------------------------------------------- #
# Checkpoint / resume
# --------------------------------------------------------------------- #

class TestCheckpointResume:
    def test_resumed_run_bit_identical(self, small_profile_graph, tmp_path):
        path = tmp_path / "journal.jsonl"
        reference = anonymize(small_profile_graph, seed=7, **FAST)
        full = anonymize(small_profile_graph, seed=7,
                         checkpoint_path=str(path), **FAST)
        assert full.sigma == reference.sigma
        lines = path.read_text().splitlines()
        assert len(lines) == full.n_genobf_calls + 1  # header + probes

        # Simulate a run killed after two completed probes.
        path.write_text("\n".join(lines[:3]) + "\n")
        resumed = anonymize(small_profile_graph, seed=7,
                            checkpoint_path=str(path), resume=True, **FAST)
        assert resumed.resumed_probes == 2
        assert resumed.sigma == reference.sigma
        assert resumed.epsilon_achieved == reference.epsilon_achieved
        assert resumed.sigma_history == reference.sigma_history
        np.testing.assert_array_equal(
            resumed.graph.edge_src, reference.graph.edge_src)
        np.testing.assert_array_equal(
            resumed.graph.edge_dst, reference.graph.edge_dst)
        np.testing.assert_array_equal(
            resumed.graph.edge_probabilities,
            reference.graph.edge_probabilities)
        np.testing.assert_array_equal(
            resumed.report.entropies, reference.report.entropies)
        np.testing.assert_array_equal(
            resumed.report.obfuscated, reference.report.obfuscated)

    def test_fully_journaled_run_replays_every_probe(
        self, small_profile_graph, tmp_path
    ):
        path = tmp_path / "journal.jsonl"
        first = anonymize(small_profile_graph, seed=7,
                          checkpoint_path=str(path), **FAST)
        replayed = anonymize(small_profile_graph, seed=7,
                             checkpoint_path=str(path), resume=True, **FAST)
        assert replayed.resumed_probes == replayed.n_genobf_calls
        assert replayed.sigma == first.sigma
        np.testing.assert_array_equal(
            replayed.graph.edge_probabilities,
            first.graph.edge_probabilities)

    def test_torn_final_line_is_discarded(
        self, small_profile_graph, tmp_path
    ):
        path = tmp_path / "journal.jsonl"
        reference = anonymize(small_profile_graph, seed=7,
                              checkpoint_path=str(path), **FAST)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "probe", "probe_index": 99, "sig')  # torn
        resumed = anonymize(small_profile_graph, seed=7,
                            checkpoint_path=str(path), resume=True, **FAST)
        assert resumed.sigma == reference.sigma

    def test_mismatched_journal_rejected(
        self, small_profile_graph, tmp_path
    ):
        path = tmp_path / "journal.jsonl"
        anonymize(small_profile_graph, seed=7, checkpoint_path=str(path),
                  **FAST)
        with pytest.raises(ResilienceError, match="different run"):
            # A different seed changes the entropy (and the context), so
            # the journal must be refused.
            anonymize(small_profile_graph, seed=8,
                      checkpoint_path=str(path), resume=True, **FAST)

    def test_resume_without_journal_starts_fresh(
        self, small_profile_graph, tmp_path
    ):
        path = tmp_path / "missing.jsonl"
        reference = anonymize(small_profile_graph, seed=7, **FAST)
        result = anonymize(small_profile_graph, seed=7,
                           checkpoint_path=str(path), resume=True, **FAST)
        assert result.resumed_probes == 0
        assert result.sigma == reference.sigma
        assert path.exists()

    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(ConfigurationError, match="checkpoint_path"):
            ChameleonConfig(resume=True, **FAST)

    def test_fingerprint_ignores_execution_knobs(self, small_profile_graph):
        config = ChameleonConfig(**FAST)
        context = _context(small_profile_graph, config)
        base = run_fingerprint(small_profile_graph, config, context, 1)
        retargeted = ChameleonConfig(trial_backend="process", n_workers=4,
                                     trial_timeout=1.0, max_retries=9,
                                     fault_plan="crash@0.0", **FAST)
        assert run_fingerprint(
            small_profile_graph, retargeted, context, 1) == base
        assert run_fingerprint(
            small_profile_graph, config, context, 2) != base
        changed = ChameleonConfig(**{**FAST, "n_trials": 3})
        assert run_fingerprint(
            small_profile_graph, changed, context, 1) != base


class TestFingerprintFieldDrift:
    """Every ``ChameleonConfig`` field must be deliberately classified.

    ``_FINGERPRINT_CONFIG_FIELDS`` is the checkpoint-journal's notion of
    "same run": algorithmic fields invalidate a journal when they change,
    execution/observability knobs must not (a checkpoint written by a
    process-backend run resumes on any backend).  Adding a config field
    without deciding which side it lands on silently produces either
    stale resumes (algorithmic field missing) or needless invalidation
    (execution knob included) -- so this test fails until the new field
    is added to exactly one of the two lists.
    """

    #: Knobs that change *how* a run executes or what it reports, never
    #: the sigma probes the journal checkpoints.  ``seed`` is excluded
    #: because the digest covers the resolved trial entropy directly;
    #: ``utility_samples`` is observational: its world-store seed is
    #: drawn from the pipeline RNG *after* the selection context and the
    #: trial entropy, so toggling it cannot perturb any probe.
    EXECUTION_ONLY = frozenset({
        "trial_backend", "n_workers",
        "utility_samples", "world_memory_budget", "trial_timeout",
        "max_retries", "retry_backoff", "fault_plan",
        "checkpoint_path", "resume", "seed",
    })

    #: One valid non-default value per field, to probe the digest with.
    ALTERNATES = {
        "k": 6, "epsilon": 0.25, "size_multiplier": 1.5,
        "white_noise": 0.2, "n_trials": 3, "relevance_samples": 60,
        "relevance_method": "grouped",
        "selection_mode": "uniqueness-only", "perturbation_mode": "naive",
        "sigma_initial": 2.0, "sigma_max": 32.0, "sigma_tolerance": 0.05,
        "uniqueness_bandwidth": 0.7, "name": "variant",
        "trial_backend": "process", "n_workers": 3, "utility_samples": 8,
        "world_memory_budget": 1 << 20, "trial_timeout": 5.0,
        "max_retries": 7, "retry_backoff": 0.3,
        "fault_plan": "delay@0.5:0.01", "checkpoint_path": "probes.jsonl",
        "resume": True, "seed": 123,
    }

    def test_every_config_field_is_classified(self):
        from repro.core.resilience import _FINGERPRINT_CONFIG_FIELDS

        all_fields = {f.name for f in dataclasses.fields(ChameleonConfig)}
        fingerprinted = set(_FINGERPRINT_CONFIG_FIELDS)
        assert fingerprinted & self.EXECUTION_ONLY == set(), (
            "field listed both as fingerprinted and as execution-only"
        )
        assert fingerprinted | self.EXECUTION_ONLY == all_fields, (
            "unclassified ChameleonConfig field(s): "
            f"{sorted(all_fields - fingerprinted - self.EXECUTION_ONLY)}; "
            "stale fingerprint entries: "
            f"{sorted((fingerprinted | self.EXECUTION_ONLY) - all_fields)}"
        )

    def test_digest_tracks_exactly_the_algorithmic_fields(
            self, small_profile_graph):
        """Flip every field one at a time: algorithmic flips must change
        the fingerprint, execution-knob flips must not."""
        from repro.core.resilience import _FINGERPRINT_CONFIG_FIELDS

        config = ChameleonConfig(**FAST)
        context = _context(small_profile_graph, config)
        base = run_fingerprint(small_profile_graph, config, context, 1)
        all_fields = [f.name for f in dataclasses.fields(ChameleonConfig)]
        assert set(self.ALTERNATES) == set(all_fields)
        for field in all_fields:
            alternate = self.ALTERNATES[field]
            assert alternate != getattr(config, field), field
            overrides = {field: alternate}
            if field == "resume":  # resume=True requires a journal path
                overrides["checkpoint_path"] = "probes.jsonl"
            flipped = dataclasses.replace(config, **overrides)
            digest = run_fingerprint(
                small_profile_graph, flipped, context, 1
            )
            if field in _FINGERPRINT_CONFIG_FIELDS:
                assert digest != base, (
                    f"algorithmic field {field!r} did not invalidate "
                    f"the checkpoint fingerprint"
                )
            elif field == "resume":
                cp_only = dataclasses.replace(
                    config, checkpoint_path="probes.jsonl"
                )
                assert digest == run_fingerprint(
                    small_profile_graph, cp_only, context, 1
                ), "execution knob 'resume' leaked into the fingerprint"
            else:
                assert digest == base, (
                    f"execution knob {field!r} leaked into the "
                    f"checkpoint fingerprint"
                )

    def test_journal_survives_injected_crashes(
        self, small_profile_graph, tmp_path
    ):
        """Checkpointing composes with supervision: a crash-ridden run
        still writes a journal a clean run can resume from."""
        path = tmp_path / "journal.jsonl"
        reference = anonymize(small_profile_graph, seed=7, **FAST)
        anonymize(small_profile_graph, seed=7, trial_backend="process",
                  n_workers=2, checkpoint_path=str(path),
                  fault_plan="crash@0.0", retry_backoff=0.0, **FAST)
        resumed = anonymize(small_profile_graph, seed=7,
                            checkpoint_path=str(path), resume=True, **FAST)
        assert resumed.resumed_probes == resumed.n_genobf_calls
        assert resumed.sigma == reference.sigma
        assert _segments.active_segments() == ()

    def test_journal_records_are_json(self, small_profile_graph, tmp_path):
        path = tmp_path / "journal.jsonl"
        anonymize(small_profile_graph, seed=7, checkpoint_path=str(path),
                  **FAST)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["version"] == 1
        probes = [json.loads(line) for line in lines[1:]]
        assert all(p["kind"] == "probe" for p in probes)
        assert any(p["success"] for p in probes)


# --------------------------------------------------------------------- #
# Shared-memory hygiene
# --------------------------------------------------------------------- #

class TestShmHygiene:
    def test_registry_tracks_and_releases(self):
        shm = _segments.create_segment(128)
        assert shm.name in _segments.active_segments()
        _segments.release_segment(shm)
        assert shm.name not in _segments.active_segments()

    def test_release_is_idempotent(self):
        shm = _segments.create_segment(64)
        _segments.release_segment(shm)
        _segments.release_segment(shm)  # must not raise

    def test_sweep_releases_owned_segments(self):
        shm = _segments.create_segment(64)
        assert _segments.sweep_segments("test") >= 1
        assert shm.name not in _segments.active_segments()

    def test_orphan_reaper_ignores_live_and_foreign(self, tmp_path):
        # A segment "owned" by a dead pid is reaped; one owned by this
        # (live) process and a non-repro file are left alone.
        dead_pid = 2 ** 22 + 12345  # beyond any default pid_max
        dead = tmp_path / f"repro-{dead_pid}-0-deadbeef"
        live = tmp_path / f"repro-{os.getpid()}-0-cafecafe"
        foreign = tmp_path / "psm_someothersegment"
        for f in (dead, live, foreign):
            f.write_bytes(b"x")
        report = _segments.reap_orphan_segments(str(tmp_path))
        assert report["reaped"] == [dead.name]
        assert not dead.exists()
        assert live.exists()
        assert foreign.exists()

    def test_execution_environment_reports_shm(self):
        env = execution_environment()
        assert "shm" in env
        assert env["shm"]["active_segments"] == []
        assert "REPRO_FAULTS" in str(env) or "env" in env
        json.dumps(env)  # JSON-serializable by contract


# --------------------------------------------------------------------- #
# Bounded shutdown
# --------------------------------------------------------------------- #

class TestBoundedClose:
    def test_process_close_kills_wedged_worker(self, small_profile_graph):
        """close() must return within the shutdown deadline even while a
        fault-delayed worker is still sleeping."""
        import time as _time

        config = ChameleonConfig(**FAST)
        context = _context(small_profile_graph, config)
        plan = FaultPlan.parse("delay@0.0:30")
        engine = create_trial_engine(
            small_profile_graph, config, context, entropy=123,
            trial_backend="process", n_workers=2, fault_plan=plan,
        )
        engine.shutdown_timeout = 0.3
        futures = engine._submit_probe(0, 1.0)
        _time.sleep(0.3)  # let the worker pick the task up and sleep
        started = _time.monotonic()
        engine.close()
        assert _time.monotonic() - started < 10.0
        del futures
        assert _segments.active_segments() == ()

    def test_close_never_kills_a_reaped_worker(
        self, small_profile_graph, monkeypatch, caplog
    ):
        """The executor's manager thread is the one reaper of the pool's
        workers.  A close that joined them as well raced its ``waitpid``:
        a worker the manager had already reaped then looked alive, and
        close logged an expired deadline and killed its stale pid."""
        import logging as _logging
        from multiprocessing.process import BaseProcess

        from repro.privacy import DegreeUncertaintyCache

        killed = []
        kill = BaseProcess.kill

        def recording_kill(process):
            killed.append(process.pid)
            kill(process)

        monkeypatch.setattr(BaseProcess, "kill", recording_kill)
        config = ChameleonConfig(**FAST)
        context = _context(small_profile_graph, config)
        cache = DegreeUncertaintyCache(
            small_profile_graph, knowledge=context.knowledge
        )
        with caplog.at_level(_logging.WARNING, logger="repro.core.parallel"):
            for cycle in range(CLOSE_CYCLES):
                engine = create_trial_engine(
                    small_profile_graph, config, context, cache=cache,
                    entropy=cycle, trial_backend="process", n_workers=2,
                )
                try:
                    engine.run_probe(0, 1.0)
                finally:
                    engine.close()
        assert killed == []
        assert not any(
            "shutdown deadline" in r.message for r in caplog.records
        )
        assert _segments.active_segments() == ()
