"""Smoke tests of the pipeline benchmark.

    python -m pytest benchmarks/pipeline

One traced ``--smoke`` run (n ~ 60, 2 jobs, 20 batches) exercises every
workload, every output check and the trace plumbing end to end.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--trace-out", str(out / "trace.json"),
         "--json-out", str(out / "record.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((out / "record.json").read_text())
    trace = json.loads((out / "trace.json").read_text())
    return last, record, trace


def test_smoke_runs_pass(smoke):
    last, record, __ = smoke
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == 0
    # Two passes (untraced, traced) of 2 + 2 jobs and 20 batches.
    assert last["attempted"] == 2 * (2 + 2 + 20)
    names = [r["workload"] for r in record["records"]]
    assert names == [w["name"] for w in SPEC["workloads"]]
    for r in record["records"]:
        assert len(r["untraced"]["digests"]) == (
            1 if r["workload"] == "update-stream" else 2)
        # Seeded runs are deterministic: both passes wrote the same bytes.
        assert r["untraced"]["digests"] == r["traced"]["digests"]
        assert set(r["inputs"]) == (
            {"input.edges", "published.json"}
            if r["workload"] == "update-stream" else {"input.edges"})


def test_every_named_metric_present(smoke):
    last, record, __ = smoke
    for r in record["records"]:
        end_to_end = run.metrics_of(r, trace=False)
        for metric in SPEC["end_to_end"]:
            value = end_to_end[metric["name"]]
            assert value["unit"] == metric["unit"]
            assert value["value"] > 0
        for metric in SPEC["per_layer"]:
            value = last["metrics"][f"{r['workload']}/{metric['name']}"]
            assert value["unit"] == metric["unit"]
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    reported = {key.split("/", 1)[1] for key in last["metrics"]}
    assert reported == per_layer


def test_self_times_sum_to_traced_wall_time(smoke):
    last, record, trace = smoke
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    for pid, r in enumerate(record["records"], start=1):
        spans = {e["args"]["span"]: e for e in events if e["pid"] == pid}
        own = {i: e["dur"] for i, e in spans.items()}
        for e in spans.values():
            if e["args"]["parent"] >= 0:
                own[e["args"]["parent"]] -= e["dur"]
        total = sum(t for i, t in own.items()
                    if spans[i]["args"]["job"] != "setup") / 1e6
        wall = last["metrics"][f"{r['workload']}/trace.wall_s"]["value"]
        assert total == pytest.approx(wall, rel=0.05)


def test_verdict_rules():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0,
              101.0]
    clean = (0, 0)
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1, clean, clean) \
        == (1.0, "better")
    slower = [v * 1.2 for v in parent]
    assert compare.verdict(parent, slower, "lower", 0.1, clean, clean) \
        == (0.0, "worse")
    assert compare.verdict(parent, parent, "lower", 0.1, clean, clean) \
        == (0.0, "same")
    noisy = [60.0, 140.0] * 5
    assert compare.verdict(noisy, noisy, "lower", 0.1, clean, clean)[1] \
        == "unresolved"


def test_verdict_with_a_failing_side():
    parent = [100.0] * 10
    faster = [50.0] * 10
    # A faster change that fails more operations, or crashes more runs,
    # is worse, whatever its timings.
    assert compare.verdict(parent, faster, "lower", 0.1, (0, 0), (1, 0)) \
        == (None, "worse (more failures)")
    assert compare.verdict(parent, faster, "lower", 0.1, (0, 0), (0, 1)) \
        == (None, "worse (more failures)")
    # A run whose every operation failed reports no latency: no crash.
    missing = [None] + faster[1:]
    assert compare.verdict(parent, missing, "lower", 0.1, (3, 0), (3, 0)) \
        == (None, "unresolved (missing values)")
    assert compare.summary([None, None]) == "-"


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        SPEC["command"] + ["--workload", "anonymize", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
