"""Measure the committed baseline of the pipeline benchmark.

    python3 benchmarks/pipeline/baseline.py

Runs ``BENCHMARK.json``'s command the way an acceptance check does: for
each of two sets, every workload on ten seeds (set 1: seeds 1-10, set 2:
seeds 11-20).  For each workload and end-to-end metric it records each
set's median and quartiles, the spread (quartile distance over the
median) and the shift of set 2's median against set 1's, both judged
against the metric's bound.  One traced run of every workload then gives
the per-layer table and the tracing overhead, and its spans are written
to ``results/trace.json``.  Everything lands in ``results/baseline.json``;
the run takes about 40 minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from compare import quartiles  # noqa: E402

#: Seeds per workload in each set, and sets: what an acceptance check runs.
RUNS, SETS = 10, 2
OUT = HERE / "results"


def run(args: list[str], json_out: Path) -> tuple[dict, dict]:
    """One invocation of the benchmark command; ``(last line, record)``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + args + ["--json-out", str(json_out)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: {' '.join(cmd)} exited {done.returncode}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return last, json.loads(json_out.read_text())


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])
    workloads = [w["name"] for w in spec["workloads"]]
    sets = []
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        record_path = Path(tmp) / "record.json"
        for k in range(SETS):
            seeds = list(range(k * RUNS + 1, (k + 1) * RUNS + 1))
            per_workload = {}
            for workload in workloads:
                runs = []
                for seed in seeds:
                    last, record = run(
                        ["--workload", workload, "--seed", str(seed),
                         "--seconds", seconds, "--trace", "0"], record_path)
                    untraced = record["records"][0]["untraced"]
                    runs.append({
                        "seed": seed,
                        **last,
                        "latency_p50_ms": untraced.get("latency_p50_ms"),
                        "latency_tail_ms": untraced.get("latency_tail_ms"),
                        "quality": untraced["quality"],
                        "extra": untraced["extra"],
                        "input_sha256": record["records"][0]["inputs"],
                        "output_sha256": untraced["digests"],
                    })
                    print(f"set {k + 1} {workload} seed {seed}: "
                          f"correct={last['correct']}", file=sys.stderr,
                          flush=True)
                per_workload[workload] = runs
            sets.append({"seeds": seeds, "workloads": per_workload})
        environment = record["environment"]

        last, record = run(["--seed", "1", "--seconds", seconds,
                            "--trace-out", str(OUT / "trace.json")],
                           record_path)

    summary = {}
    for workload in workloads:
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            rows = []
            for s in sets:
                values = [r["metrics"][name]["value"]
                          for r in s["workloads"][workload]]
                q1, median, q3 = quartiles(values)
                rows.append({"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median})
            worse = sign * (rows[-1]["median"] - rows[0]["median"]) \
                / rows[0]["median"]
            summary[workload][name] = {
                "unit": metric["unit"], "bound": bound, "sets": rows,
                "second_median_worse_by": worse,
                "spread_within_bound": all(
                    r["spread"] <= bound for r in rows),
                "medians_agree": worse <= bound,
            }

    traced = {}
    for r in record["records"]:
        name = r["workload"]
        traced[name] = {
            "layer_table": [
                dict(zip(("layer", "calls", "self_s", "inclusive_s",
                          "rss_exit_max_mib"), row))
                for row in r["traced"]["layer_table"]
            ],
            "per_layer": {key.split("/", 1)[1]: value
                          for key, value in last["metrics"].items()
                          if key.startswith(name + "/")},
            "untraced_s": r["untraced"]["total_s"],
            "traced_s": r["traced"]["total_s"],
        }

    baseline = {
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "environment": environment,
        "summary": summary,
        "traced_run": {"seed": 1, "workloads": traced},
        "sets": sets,
    }
    (OUT / "baseline.json").write_text(
        json.dumps(baseline, indent=1) + "\n")
    for workload, metrics in summary.items():
        for name, row in metrics.items():
            spreads = ", ".join(f"{100 * r['spread']:.1f}%"
                                for r in row["sets"])
            print(f"{workload:<18} {name:<15} median "
                  f"{row['sets'][0]['median']:>10.4g} spreads {spreads} "
                  f"shift {100 * row['second_median_worse_by']:+.1f}% "
                  f"bound {100 * row['bound']:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
