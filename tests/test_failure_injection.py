"""Failure-injection and adversarial-input tests.

A production library must fail loudly and precisely on garbage input,
half-finished pipelines, and boundary abuse -- not deep inside numpy.
Every scenario here asserts a *library* exception (or a clean result),
never an unrelated traceback.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.exceptions import (
    ConfigurationError,
    EstimationError,
    GraphConstructionError,
    GraphFormatError,
    ObfuscationError,
    ReproError,
)
from repro.ugraph import UncertainGraph, loads_edge_list, read_json

#: A valid JSON graph document, the base every malformed one edits.
_DOCUMENT = {
    "format": "repro-uncertain-graph", "version": 1, "n_nodes": 3,
    "labels": None, "edges": [[0, 1, 0.5], [1, 2, 1.0]], "metadata": {},
}


class TestMalformedFiles:
    def test_binary_garbage_edge_list(self):
        with pytest.raises(GraphFormatError):
            loads_edge_list("\x00\x01\x02 binary \xff")

    def test_truncated_probability_field(self):
        # "0." parses as 0.0 (Python float grammar); a genuinely broken
        # token must fail with the library's format error.
        assert loads_edge_list("a b 0.").probability(0, 1) == 0.0
        with pytest.raises(GraphFormatError):
            loads_edge_list("a b 0..5")

    def test_negative_probability_in_file(self):
        with pytest.raises(GraphFormatError):
            loads_edge_list("a b -0.5")

    def test_json_with_corrupt_edges(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"format": "repro-uncertain-graph", "version": 1, '
            '"n_nodes": 2, "labels": null, '
            '"edges": [[0, 1, 7.5]], "metadata": {}}'
        )
        with pytest.raises(ReproError):
            read_json(path)

    def test_json_missing_fields(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text('{"format": "repro-uncertain-graph"}')
        with pytest.raises(GraphFormatError):
            read_json(path)

    @pytest.mark.parametrize("text", [
        "[]",
        "not json at all",
        json.dumps({**_DOCUMENT, "edges": [[0, 1]]}),
        json.dumps({**_DOCUMENT, "n_nodes": "x"}),
        json.dumps({**_DOCUMENT, "edges": 5}),
        json.dumps({**_DOCUMENT, "edges": [5]}),
        json.dumps({**_DOCUMENT, "labels": 5}),
        json.dumps({**_DOCUMENT, "metadata": []}),
        json.dumps({**_DOCUMENT, "edges": [[0.5, 1, 0.5]]}),
        json.dumps({**_DOCUMENT, "edges": [[0, 1, "0.5"]]}),
        json.dumps({**_DOCUMENT, "edges": [[0, 1, 10**400]]}),
        json.dumps({**_DOCUMENT, "n_nodes": 10**30,
                    "edges": [[10**29, 10**29 + 1, 0.5]]}),
        json.dumps(_DOCUMENT).replace('"n_nodes": 3', '"n_nodes": 1e999'),
        json.dumps(_DOCUMENT).replace("0.5", "NaN"),
        "[" * 100_000,
    ], ids=[
        "list", "not-json", "short-edge", "n_nodes-str", "edges-int",
        "edge-int", "labels-int", "metadata-list", "fractional-id",
        "p-str", "p-huge", "id-past-int64", "n_nodes-inf", "p-nan",
        "deep-nesting",
    ])
    def test_json_malformed_document_is_format_error(self, tmp_path, text):
        """Every malformed document -- wrong shape, wrong types, a
        fractional vertex id that used to be truncated, numbers past
        float or int64 -- ends in a ``GraphFormatError`` naming it."""
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(GraphFormatError, match="bad.json"):
            read_json(path)

    def test_json_unreadable_and_undecodable_files(self, tmp_path):
        with pytest.raises(GraphFormatError, match="cannot read"):
            read_json(tmp_path)  # a directory
        with pytest.raises(GraphFormatError, match="cannot read"):
            read_json(tmp_path / "missing.json")
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"format": "\xff"}')
        with pytest.raises(GraphFormatError, match="not a JSON document"):
            read_json(path)


#: Numbers of every size and kind a document or edge list may carry:
#: ints past int64 and double, special floats, fractions and literals.
_FUZZ_NUMBERS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(-(10**400), 10**400),
    st.integers(0, 6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.5, 1.0, -0.0, True, None, "1", [], {}]),
)


@st.composite
def _fuzz_documents(draw) -> bytes:
    """A JSON graph document with fuzzed fields, optionally truncated."""
    document = dict(_DOCUMENT)
    for key in draw(st.sets(st.sampled_from(sorted(_DOCUMENT)))):
        document[key] = draw(st.one_of(
            _FUZZ_NUMBERS,
            st.lists(st.lists(_FUZZ_NUMBERS, max_size=4), max_size=4),
        ))
    data = json.dumps(document).encode("utf-8")
    return data[:draw(st.integers(0, len(data)))]


@st.composite
def _fuzz_edge_lists(draw) -> bytes:
    """Edge-list rows of fuzzed tokens, optionally truncated."""
    token = st.one_of(
        _FUZZ_NUMBERS.map(str),
        st.sampled_from(["nan", "-inf", "1e999", "9" * 5000, "#", "\x00"]),
        st.text(max_size=4),
    )
    rows = draw(st.lists(st.lists(token, max_size=4), max_size=6))
    data = "\n".join(" ".join(row) for row in rows).encode("utf-8")
    return data[:draw(st.integers(0, len(data)))]


class TestReaderFuzz:
    """Random bytes, huge and special numbers, and truncation at any byte:
    each reader returns a graph or raises a ``ReproError`` -- never
    another exception."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.one_of(st.binary(max_size=300), _fuzz_documents()))
    def test_read_json_ends_in_graph_or_repro_error(
        self, tmp_path_factory, data
    ):
        path = tmp_path_factory.mktemp("fuzz") / "graph.json"
        path.write_bytes(data)
        try:
            graph, metadata = read_json(path)
        except ReproError:
            return
        assert isinstance(graph, UncertainGraph)
        assert isinstance(metadata, dict)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.one_of(st.binary(max_size=300), _fuzz_edge_lists()))
    def test_loads_edge_list_ends_in_graph_or_repro_error(self, data):
        try:
            graph = loads_edge_list(data.decode("latin-1"))
        except ReproError:
            return
        assert isinstance(graph, UncertainGraph)

class TestBoundaryAbuse:
    def test_nan_probability_cannot_enter_via_arrays(self, triangle):
        bad = triangle.edge_probabilities.copy()
        bad[0] = np.nan
        with pytest.raises(ReproError):
            triangle.with_probabilities(bad)

    def test_anonymize_two_vertex_graph(self):
        """The minimum legal input anonymizes or fails cleanly."""
        g = UncertainGraph(2, [(0, 1, 0.5)])
        result = repro.anonymize(g, k=2, epsilon=0.0, seed=0, n_trials=1,
                                 relevance_samples=20, sigma_max=2.0)
        # Either outcome is acceptable; no exception may escape.
        assert result.success in (True, False)

    def test_estimator_on_single_vertex(self):
        g = UncertainGraph(1)
        est = repro.ReliabilityEstimator(g, n_samples=5, seed=0)
        assert est.expected_connected_pairs() == 0.0
        assert est.average_all_pairs_reliability() == 0.0

    def test_discrepancy_between_empty_graphs(self):
        a, b = UncertainGraph(3), UncertainGraph(3)
        value = repro.reliability_discrepancy(a, b, n_samples=5, seed=0)
        assert value == 0.0

    def test_metrics_on_edgeless_graph(self):
        from repro.metrics import (
            expected_average_degree,
            expected_clustering_coefficient,
        )

        g = UncertainGraph(4)
        assert expected_average_degree(g) == 0.0
        assert expected_clustering_coefficient(g, n_samples=5, seed=0) == 0.0


class TestHalfFinishedPipelines:
    def test_failed_result_noise_is_nan(self):
        from repro.core.result import AnonymizationResult

        failed = AnonymizationResult(
            graph=None, method="rsme", k=5, epsilon=0.01, sigma=128.0,
            epsilon_achieved=1.0, report=None, n_genobf_calls=10,
        )
        g = UncertainGraph(3, [(0, 1, 0.5)])
        assert np.isnan(failed.noise_added(g))

    def test_refine_rejects_failure(self):
        from dataclasses import replace

        from repro.core import refine_anonymization
        from repro.core.result import AnonymizationResult

        g = UncertainGraph(3, [(0, 1, 0.5)])
        failed = AnonymizationResult(
            graph=None, method="rsme", k=2, epsilon=0.1, sigma=1.0,
            epsilon_achieved=1.0, report=None, n_genobf_calls=1,
        )
        with pytest.raises(ObfuscationError):
            refine_anonymization(g, failed)

    def test_report_on_mismatched_graphs_fails_cleanly(self):
        from repro.report import build_report

        a = UncertainGraph(3, [(0, 1, 0.5)])
        b = UncertainGraph(4, [(0, 1, 0.5)])
        with pytest.raises(ReproError):
            build_report(a, b, 2, 0.1, n_samples=5)


class TestRuntimeFaultInjection:
    """Deterministic runtime faults (``REPRO_FAULTS``) routed through the
    supervised trial engine -- the run must recover, not crash."""

    FAST = dict(k=5, epsilon=0.3, n_trials=2, relevance_samples=50,
                sigma_tolerance=0.1)

    def test_env_fault_plan_recovered_via_retry(
        self, small_profile_graph, monkeypatch
    ):
        reference = repro.anonymize(small_profile_graph, seed=3, **self.FAST)
        monkeypatch.setenv("REPRO_FAULTS", "crash@0.0")
        result = repro.anonymize(
            small_profile_graph, seed=3, retry_backoff=0.0, **self.FAST
        )
        assert result.trial_retries >= 1
        assert result.sigma == reference.sigma
        assert result.sigma_history == reference.sigma_history

    def test_config_plan_overrides_env(
        self, small_profile_graph, monkeypatch
    ):
        # An unparseable env plan must be ignored when the config carries
        # an explicit (empty = disabled) plan.
        monkeypatch.setenv("REPRO_FAULTS", "crash@0.0")
        result = repro.anonymize(
            small_profile_graph, seed=3, fault_plan="", **self.FAST
        )
        assert result.trial_retries == 0

    def test_invalid_env_plan_fails_loudly(
        self, small_profile_graph, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "explode@everywhere")
        with pytest.raises(ConfigurationError):
            repro.anonymize(small_profile_graph, seed=3, **self.FAST)

    def test_invalid_config_plan_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            repro.ChameleonConfig(fault_plan="crash@")


class TestAdversarialParameters:
    def test_extreme_epsilon_still_valid(self, small_profile_graph):
        result = repro.anonymize(
            small_profile_graph, k=2, epsilon=0.9, seed=0, n_trials=1,
            relevance_samples=30, sigma_tolerance=0.5,
        )
        assert result.success  # nearly everything may be skipped

    def test_huge_sample_request_is_bounded_by_memory_not_crash(self):
        g = UncertainGraph(3, [(0, 1, 0.5)])
        est = repro.ReliabilityEstimator(g, n_samples=100_000, seed=0)
        assert 0.45 < est.two_terminal(0, 1) < 0.55

    def test_zero_samples_rejected_everywhere(self, triangle):
        with pytest.raises((EstimationError, ValueError)):
            repro.ReliabilityEstimator(triangle, n_samples=0)
        from repro.ugraph import sample_edge_masks

        with pytest.raises((EstimationError, ValueError)):
            sample_edge_masks(triangle, 0)
