#!/usr/bin/env python
"""Gate committed benchmark artifacts on quality, never on wall-clock.

Every benchmark that emits a machine-readable ``BENCH_<name>.json`` twin
(``benchmarks/_harness.emit(..., data=...)``) carries two things CI can
assert without re-running the full-scale benchmark on shared runners:

* **bit-equality verdicts** -- a top-level ``identical`` flag and/or
  per-case ``bit-identical`` / ``success`` / ``identical`` fields, in
  the top-level ``cases`` table and in every nested ``{"cases": [...]}``
  table (a bench's second or third table).  These must all be true:
  they certify that the fast path reproduced the oracle bitwise when
  the numbers were recorded.
* **case counts** -- each bench's number of top-level recorded cases
  must not shrink below the committed baseline (``BASELINES.json``), so
  a bench cannot silently drop coverage (a fraction row, a backend, a
  worker count) while still looking green.

Timings are deliberately NOT gated: CI hosts are noisy, and wall-clock
assertions live inside the benchmarks themselves where the execution
environment is recorded alongside the numbers.

Exit status: 0 when every artifact passes, 1 otherwise (with one line
per violation on stderr).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
BASELINES_PATH = RESULTS_DIR / "BASELINES.json"

#: Per-case boolean fields that count as bit-equality verdicts.
CASE_VERDICT_FIELDS = ("bit-identical", "success", "identical")


def _case_verdicts(case: dict) -> list[tuple[str, bool]]:
    return [
        (field, bool(case[field]))
        for field in CASE_VERDICT_FIELDS
        if field in case
    ]


def _case_tables(table: dict, prefix: str = ""):
    """``(prefix, cases)`` of every ``{"cases": [...]}`` table in
    ``table``, itself first, then nested tables depth-first."""
    if isinstance(table.get("cases"), list):
        yield prefix, table["cases"]
    for key, value in table.items():
        if isinstance(value, dict):
            yield from _case_tables(value, f"{prefix}{key}.")


def check_payload(payload: dict, baseline: dict | None) -> list[str]:
    """All violations for one ``BENCH_*.json`` payload (empty == pass)."""
    name = payload.get("bench", "<unnamed>")
    problems: list[str] = []

    verdicts: list[tuple[str, bool]] = []
    if "identical" in payload:
        verdicts.append(("identical", bool(payload["identical"])))
    for prefix, cases in _case_tables(payload):
        for index, case in enumerate(cases):
            if isinstance(case, dict):
                verdicts.extend(
                    (f"{prefix}cases[{index}].{field}", value)
                    for field, value in _case_verdicts(case)
                )
    if not verdicts:
        problems.append(
            f"{name}: no bit-equality verdict found (expected a top-level "
            f"'identical' flag or per-case {CASE_VERDICT_FIELDS} fields)"
        )
    problems.extend(
        f"{name}: bit-equality verdict '{field}' is FAIL"
        for field, value in verdicts
        if not value
    )

    if baseline is not None:
        cases = payload.get("cases", [])
        floor = int(baseline.get("cases", 0))
        if len(cases) < floor:
            problems.append(
                f"{name}: {len(cases)} recorded cases, baseline requires "
                f">= {floor} -- a bench dropped coverage"
            )
    return problems


def main() -> int:
    if not BASELINES_PATH.exists():
        print(f"missing baseline manifest: {BASELINES_PATH}", file=sys.stderr)
        return 1
    baselines = json.loads(BASELINES_PATH.read_text())

    artifacts = {}
    for path in sorted(RESULTS_DIR.glob("BENCH_*.json")):
        payload = json.loads(path.read_text())
        artifacts[payload.get("bench", path.stem)] = payload

    problems: list[str] = []
    for name in baselines:
        if name not in artifacts:
            problems.append(
                f"{name}: listed in BASELINES.json but no BENCH json "
                f"artifact is committed"
            )
    for name, payload in artifacts.items():
        problems.extend(check_payload(payload, baselines.get(name)))

    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    if not problems:
        names = ", ".join(sorted(artifacts)) or "<none>"
        print(f"bench baselines OK ({len(artifacts)} artifacts: {names})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
