"""Compare two source checkouts on the pipeline benchmark, pair by pair.

    python3 benchmarks/pipeline/compare.py PARENT_DIR CHANGE_DIR --pairs 10

Both sides run this checkout's ``run.py`` (``--root`` selects the source
tree measured), so the benchmark code and settings are identical.  Pair
``i`` uses seed ``SEED_BASE + i`` on both sides and alternates which side
runs first.  Each row is one workload and end-to-end metric: both sides'
median and quartiles, the share of pairs the change won (ties count for
neither side), each side's failed and attempted operations (parent
first), and a verdict:

* ``worse (more failures)`` -- the change failed more operations than the
  parent, or more of its runs crashed; no timing can make up for that;
* ``unresolved (missing values)`` -- a run reported no value for the
  metric (every operation of it failed), so the sides cannot be compared;
* ``better``     -- the change won at least 9 pairs in 10 and the medians
  differ by more than the parent's own spread (the distance between its
  quartiles);
* ``worse``      -- the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- the parent's spread is wider than the bound, so a
  regression within it could not be seen; unless every run of the change
  reads better than every run of the parent;
* ``same``       -- none of the above.

Each workload also reports in how many pairs both sides generated the
same inputs and wrote the same outputs (sha256).  The inputs come from the
measured tree's own generator and, for ``update-stream``, its own
``anonymize``, so a change that alters either also changes what the other
metrics of that workload were measured on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"

#: Pair ``i`` runs seed ``SEED_BASE + i``: seeds the baseline does not use.
SEED_BASE = 1000


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run: its result line plus the input and output digests.

    A run that exits with an error counts as crashed, with no metrics.
    """
    scratch = HERE.parents[1] / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        record_path = Path(tmp) / "record.json"
        cmd = [sys.executable, str(HERE / "run.py"), "--root", str(root),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0",
               "--json-out", str(record_path)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return {"crashed": True, "attempted": 0, "failed": 0,
                    "metrics": {}, "inputs": None, "outputs": None}
        result = json.loads(done.stdout.strip().splitlines()[-1])
        record = json.loads(record_path.read_text())["records"][0]
    return dict(result, crashed=False, inputs=record["inputs"],
                outputs=record["untraced"]["digests"])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def failures(runs: list[dict]) -> tuple[int, int]:
    """``(failed operations, crashed runs)`` of one side."""
    return (sum(r["failed"] for r in runs),
            sum(1 for r in runs if r["crashed"]))


def verdict(parent, change, better: str, bound: float,
            parent_failures: tuple[int, int],
            change_failures: tuple[int, int]) -> tuple[float | None, str]:
    """Share of pairs the change won, and the row's verdict.

    ``parent`` and ``change`` hold one value per pair, ``None`` where a
    run reported none; the failures are :func:`failures` of each side.
    """
    if any(c > p for p, c in zip(parent_failures, change_failures)):
        return None, "worse (more failures)"
    if None in parent or None in change:
        return None, "unresolved (missing values)"
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    share = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    __, cm, __ = quartiles(change)
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    if share >= 0.9 and sign * (cm - pm) > p3 - p1:
        return share, "better"
    if pm and (p3 - p1) / abs(pm) > bound and not all_better:
        return share, "unresolved"
    if sign * (pm - cm) > bound * abs(pm):
        return share, "worse"
    return share, "same"


def summary(values: list) -> str:
    present = [v for v in values if v is not None]
    if not present:
        return "-"
    q1, median, q3 = quartiles(present)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs = {}
    for workload in workloads:
        for i in range(args.pairs):
            seed = SEED_BASE + i
            order = ("parent", "change")
            if i % 2:
                order = order[::-1]
            for side in order:
                result = run_side(sides[side], workload, seed, seconds)
                runs.setdefault((workload, side), []).append(result)
                print(f"{workload} pair {i} seed {seed} {side}: "
                      f"crashed={result['crashed']} "
                      f"failed={result['failed']}/{result['attempted']}",
                      file=sys.stderr, flush=True)

    print(f"{'workload':<18} {'metric':<15} "
          f"{'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'delta':>7} {'won':>5} {'failed/attempted':>17}  verdict")
    for workload in workloads:
        parent_runs = runs[(workload, "parent")]
        change_runs = runs[(workload, "change")]
        parent_failures = failures(parent_runs)
        change_failures = failures(change_runs)
        failed = " ".join(
            f"{fails[0]}/{sum(r['attempted'] for r in side_runs)}"
            for fails, side_runs in ((parent_failures, parent_runs),
                                     (change_failures, change_runs)))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"].get(name, {}).get("value")
                      for r in parent_runs]
            change = [r["metrics"].get(name, {}).get("value")
                      for r in change_runs]
            share, outcome = verdict(parent, change, metric["better"],
                                     metric["bound"], parent_failures,
                                     change_failures)
            delta = won = "-"
            if share is not None:
                pm = statistics.median(parent)
                delta = f"{100.0 * (statistics.median(change) - pm) / pm:.1f}%"
                won = f"{share:.0%}"
            print(f"{workload:<18} {name:<15} {summary(parent):>30} "
                  f"{summary(change):>30} {delta:>7} {won:>5} "
                  f"{failed:>17}  {outcome}")
        same_inputs = sum(1 for p, c in zip(parent_runs, change_runs)
                          if p["inputs"] is not None
                          and p["inputs"] == c["inputs"])
        same_outputs = sum(1 for p, c in zip(parent_runs, change_runs)
                           if p["outputs"] is not None
                           and p["outputs"] == c["outputs"])
        crashed = f"{parent_failures[1]}/{change_failures[1]}"
        print(f"{workload:<18} same inputs in {same_inputs} of {args.pairs} "
              f"pairs, same outputs in {same_outputs}; runs crashed "
              f"(parent/change) {crashed}"
              + ("" if same_inputs == args.pairs
                 else "  INPUTS DIFFER: the metrics above compare "
                      "different work"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
