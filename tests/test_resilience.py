"""The sigma-search checkpoint journal: resume, fingerprint, bad input.

The determinism contract of the trial engine (every trial is a pure
function of its ``(entropy, probe, trial)`` coordinates) is what makes
checkpointing *testable*: a run that dies mid-search and resumes from
its journal must produce byte-for-byte the result of an undisturbed
run.  Every recovery scenario here asserts exactly that.  A journal is
also untrusted input: whatever its bytes, a resume ends in a result or
a :class:`~repro.exceptions.ReproError`.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChameleonConfig, anonymize, build_selection_context
from repro.core.resilience import run_fingerprint
from repro.datasets import load_profile
from repro.exceptions import ConfigurationError, ReproError, ResilienceError
from repro.privacy import expected_degree_knowledge
from tests.trial_faults import Killed, crash_at_probe

#: Small-but-nontrivial search configuration shared by the suite.
FAST = dict(
    k=5,
    epsilon=0.3,
    n_trials=2,
    relevance_samples=50,
    sigma_tolerance=0.1,
)


def _context(graph, config, seed=11):
    knowledge = expected_degree_knowledge(graph)
    return build_selection_context(graph, config, knowledge, seed=seed)


def _assert_same_run(result, reference):
    """Graph, report and search history of two runs are bit-identical."""
    assert result.sigma == reference.sigma
    assert result.epsilon_achieved == reference.epsilon_achieved
    assert result.sigma_history == reference.sigma_history
    np.testing.assert_array_equal(
        result.graph.edge_src, reference.graph.edge_src)
    np.testing.assert_array_equal(
        result.graph.edge_dst, reference.graph.edge_dst)
    np.testing.assert_array_equal(
        result.graph.edge_probabilities, reference.graph.edge_probabilities)
    np.testing.assert_array_equal(
        result.report.entropies, reference.report.entropies)
    np.testing.assert_array_equal(
        result.report.obfuscated, reference.report.obfuscated)


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
        retargeted = ChameleonConfig(utility_samples=8,
                                     checkpoint_path="probes.jsonl", **FAST)
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
    execution/observability knobs must not (a checkpoint written with
    one utility setting resumes under any other).  Adding a config field
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
        "utility_samples", "world_memory_budget",
        "checkpoint_path", "resume", "seed",
    })

    #: One valid non-default value per field, to probe the digest with.
    ALTERNATES = {
        "k": 6, "epsilon": 0.25, "size_multiplier": 1.5,
        "white_noise": 0.2, "n_trials": 3, "relevance_samples": 60,
        "relevance_method": "grouped",
        "selection_mode": "uniqueness-only", "perturbation_mode": "naive",
        "sigma_initial": 2.0, "sigma_max": 32.0, "sigma_tolerance": 0.05,
        "uniqueness_bandwidth": 0.7, "name": "variant", "utility_samples": 8,
        "world_memory_budget": 1 << 20, "checkpoint_path": "probes.jsonl",
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
        self, small_profile_graph, tmp_path, monkeypatch
    ):
        """Kill and resume: a run whose trials raise at probe 2 leaves a
        journal of probes 0-1, and resuming from it reproduces the clean
        run's graph, report and sigma history."""
        path = tmp_path / "journal.jsonl"
        reference = anonymize(small_profile_graph, seed=7, **FAST)
        assert reference.n_genobf_calls > 2
        with monkeypatch.context() as patch:
            crash_at_probe(patch, 2)
            with pytest.raises(Killed):
                anonymize(small_profile_graph, seed=7,
                          checkpoint_path=str(path), **FAST)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "header"
        assert [json.loads(line)["probe_index"] for line in lines[1:]] \
            == [0, 1]
        resumed = anonymize(small_profile_graph, seed=7,
                            checkpoint_path=str(path), resume=True, **FAST)
        assert resumed.resumed_probes == 2
        _assert_same_run(resumed, reference)

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
# The journal is untrusted input
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def journaled_run(tmp_path_factory):
    """A clean checkpointed run: ``(graph, journal lines, result)``."""
    graph = load_profile("ppi", scale=0.25, seed=42)
    path = tmp_path_factory.mktemp("journal") / "clean.jsonl"
    result = anonymize(graph, seed=7, checkpoint_path=str(path), **FAST)
    return graph, path.read_bytes().splitlines(), result


def _resume(graph, path):
    return anonymize(graph, seed=7, checkpoint_path=str(path), resume=True,
                     **FAST)


class TestJournalInput:
    """Whatever a journal holds, a resume ends in a result or a
    ``ReproError``; unreadable files and malformed records end in a
    ``ResilienceError`` naming the path and the bad line."""

    @pytest.mark.parametrize("body, problem", [
        (b"[1, 2]", "is not a JSON object"),
        (b'{"kind": "probe", "sigma": 1.0, "epsilon_achieved": 0.0, '
         b'"success": false}', "'probe_index' is missing"),
        (b'{"kind": "probe", "probe_index": 0, "sigma": 1.0, '
         b'"epsilon_achieved": 0.0, "success": true}', "'us' is missing"),
        (b'{"kind": "probe", "probe_index": 0, "sigma": "1.0", '
         b'"epsilon_achieved": 0.0, "success": false}', "'sigma' has"),
        (b'{"kind": "probe", "probe_index": "0", "sigma": 1.0, '
         b'"epsilon_achieved": 0.0, "success": false}', "'probe_index' has"),
        (b'{"kind": "probe", "probe_index": true, "sigma": 1.0, '
         b'"epsilon_achieved": 0.0, "success": false}', "'probe_index' has"),
        (b"\xff\xfe\x00", "is not UTF-8 text"),
        (b"[" * 5000, "cannot be decoded"),
        (b'{"probe_index": ' + b"9" * 5000 + b"}", "cannot be decoded"),
    ])
    def test_malformed_record_names_its_line(
        self, journaled_run, tmp_path, body, problem
    ):
        graph, lines, _ = journaled_run
        path = tmp_path / "bad.jsonl"
        path.write_bytes(lines[0] + b"\n" + body + b"\n")
        with pytest.raises(ResilienceError, match=problem) as exc:
            _resume(graph, path)
        assert f"{path} line 2 " in str(exc.value)

    def test_header_that_is_not_an_object(self, journaled_run, tmp_path):
        graph, lines, _ = journaled_run
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"[1, 2]\n" + b"\n".join(lines[1:]))
        with pytest.raises(ResilienceError, match="no recognizable header"):
            _resume(graph, path)

    @pytest.mark.parametrize("resume", [False, True])
    def test_unusable_path(self, journaled_run, tmp_path, resume):
        graph = journaled_run[0]
        for path, problem in ((tmp_path, "Is a directory"),
                              (tmp_path / "missing" / "j.jsonl",
                               "No such file or directory")):
            with pytest.raises(ResilienceError, match=problem) as exc:
                anonymize(graph, seed=7, checkpoint_path=str(path),
                          resume=resume, **FAST)
            assert str(path) in str(exc.value)

    def test_failed_write(self, journaled_run, tmp_path, monkeypatch):
        import errno

        import repro.core.resilience

        def full_disk(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(repro.core.resilience.os, "fsync", full_disk)
        path = tmp_path / "j.jsonl"
        with pytest.raises(ResilienceError, match="cannot write") as exc:
            anonymize(journaled_run[0], seed=7, checkpoint_path=str(path),
                      **FAST)
        assert str(path) in str(exc.value)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_fuzzed_probe_lines_end_in_result_or_repro_error(
        self, journaled_run, tmp_path_factory, data
    ):
        """Probe lines after a valid header: random bytes, arbitrary JSON,
        and probe records whose fields are mutated, dropped or replaced
        by any JSON value."""
        graph, lines, clean = journaled_run
        sigmas = [sigma for sigma, _ in clean.sigma_history]
        scalars = (st.none() | st.booleans() | st.integers()
                   | st.floats(allow_nan=True) | st.text(max_size=5))
        any_json = st.recursive(
            scalars,
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=5), inner, max_size=4),
            max_leaves=8,
        )
        ids = st.integers(-2, graph.n_nodes + 1)
        numbers = st.floats(allow_nan=True) | st.integers(-3, 3)
        n = graph.n_nodes
        well_typed = st.integers(0, len(sigmas) - 1).flatmap(
            lambda i: st.fixed_dictionaries({
                "kind": st.just("probe"),
                "probe_index": st.just(i),
                "sigma": st.just(sigmas[i]),
                "epsilon_achieved": numbers,
                "success": st.booleans(),
                "n_trials": st.integers(-1, 3),
                "us": st.lists(ids, max_size=3),
                "vs": st.lists(ids, max_size=3),
                "p_new": st.lists(st.floats(0, 1) | numbers, max_size=3),
                "entropies": st.lists(numbers, min_size=n, max_size=n)
                | st.lists(numbers, max_size=3),
                "obfuscated": st.lists(st.booleans(), min_size=n, max_size=n),
            })
        )

        def mutated(rec):
            keys = st.sampled_from(sorted(rec))
            return st.tuples(
                st.dictionaries(keys, any_json, max_size=2),
                st.sets(keys, max_size=1),
            ).map(lambda edit: {
                key: value for key, value in {**rec, **edit[0]}.items()
                if key not in edit[1]
            })

        record = well_typed.flatmap(mutated)
        line = (st.binary(max_size=60).map(lambda b: b.replace(b"\n", b""))
                | any_json.map(lambda v: json.dumps(v).encode())
                | record.map(lambda v: json.dumps(v).encode()))
        body = data.draw(st.lists(line, min_size=1, max_size=3))
        path = tmp_path_factory.mktemp("fuzz") / "journal.jsonl"
        path.write_bytes(b"\n".join([lines[0], *body]) + b"\n")
        try:
            result = _resume(graph, path)
        except ReproError:
            return
        assert result.n_genobf_calls >= 1
