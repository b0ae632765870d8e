"""The committed-benchmark gate (``scripts/check_bench_baselines.py``).

The gate must flag every kind of violation it exists for -- a FAIL
verdict in any case table, nested ones included; a payload carrying no
verdict at all; a bench that recorded fewer cases than its baseline --
and must pass the committed artifacts.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "check_bench_baselines.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_bench_baselines",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def payload(**tables) -> dict:
    """A passing two-case bench payload, with ``tables`` merged in."""
    return {
        "bench": "demo",
        "identical": True,
        "cases": [{"strategy": "fresh"}, {"strategy": "store"}],
        **tables,
    }


def test_passing_payload_has_no_problems(gate):
    nested = {"cases": [{"kernel": "a", "identical": True}]}
    assert gate.check_payload(payload(pairwise=nested), {"cases": 2}) == []


@pytest.mark.parametrize("path, tables", [
    ("pairwise.cases[1].identical",
     {"pairwise": {"cases": [{"identical": True}, {"identical": False}]}}),
    ("outer.inner.cases[0].bit-identical",
     {"outer": {"inner": {"cases": [{"bit-identical": False}]}}}),
    ("sweep.cases[0].success", {"sweep": {"cases": [{"success": False}]}}),
])
def test_nested_fail_is_flagged(gate, path, tables):
    problems = gate.check_payload(payload(**tables), {"cases": 2})
    assert problems == [f"demo: bit-equality verdict '{path}' is FAIL"]


def test_top_level_fail_is_flagged(gate):
    bad = payload(cases=[{"identical": True}, {"identical": False}])
    assert gate.check_payload(bad, None) == [
        "demo: bit-equality verdict 'cases[1].identical' is FAIL"
    ]


def test_payload_without_a_verdict_is_flagged(gate):
    bare = {"bench": "demo", "cases": [{"strategy": "store"}],
            "pairwise": {"cases": [{"kernel": "a"}]}}
    problems = gate.check_payload(bare, None)
    assert len(problems) == 1
    assert "no bit-equality verdict found" in problems[0]


def test_dropped_case_count_is_flagged(gate):
    # Nested tables do not count toward the top-level floor.
    nested = {"cases": [{"identical": True}] * 5}
    problems = gate.check_payload(payload(pairwise=nested), {"cases": 3})
    assert problems == [
        "demo: 2 recorded cases, baseline requires >= 3 -- a bench "
        "dropped coverage"
    ]


def test_committed_artifacts_pass(gate, capsys):
    assert gate.main() == 0
    assert "bench baselines OK" in capsys.readouterr().out


def test_every_committed_case_table_is_read(gate):
    """The world-store artifact's nested ``pairwise`` verdicts are read
    -- the table a top-level-only walk skipped."""
    artifact = json.loads(
        (gate.RESULTS_DIR / "BENCH_bench_world_store.json").read_text()
    )
    prefixes = [prefix for prefix, __ in gate._case_tables(artifact)]
    assert prefixes == ["", "pairwise."]
