"""End-to-end pipeline benchmark of ``repro``: anonymize, anonymize-utility
and update-stream.

    python3 benchmarks/pipeline/run.py --workload anonymize --seed 1 \\
        --seconds 20 --trace 0

This process writes each workload's inputs from ``--seed`` and then runs
the workload in fresh interpreters, one at a time (see ``workloads.py``):
four children each time the set-up alone, and one child sets up the same
way -- the fifth set-up sample -- and measures a closed loop of operations
with one client.  The run length is a fixed number of
operations, ``--seconds`` divided by the workload's per-operation cost on
the seed code, so every commit does the same work.  Every output is
checked outside the timed region.

With ``--trace 1`` the measured child is run a second time with the
benchmark's wrappers around public layer functions (``tracer.py``); the
per-layer metrics and the tracing overhead against the untraced child are
reported, and ``--trace-out FILE`` writes the spans as a Chrome trace.
End-to-end metrics always come from the untraced child.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``--workload`` every workload runs and metric names are prefixed with
``<workload>/``.  ``--smoke`` shrinks everything (n ~ 60, 2 jobs, 20
batches) to exercise each workload, check and the trace plumbing quickly.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    SMOKE_OPS, WORKLOADS, import_repro, prepare, workload,
)

#: Fresh-interpreter set-ups timed per workload, the measuring child's
#: included; ``setup_s`` is their median.  ``--smoke`` times only the
#: measuring child's.
SETUP_REPEATS = 5

#: Wall-clock cap of one invocation (all workloads, all children).
TIME_CAP_S = 175.0

#: End-to-end metrics, all from the untraced child.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

#: Reported with the per-layer metrics, from the untraced child of a
#: traced run, but not gated.  A job workload runs five jobs, and one
#: burst of load on a shared host slows a job by a quarter or more.  The
#: median of five jobs spread 25% over ten seeds, where the mean
#: (``ops_per_s``) stayed within its bound.  The tail is the slowest job.
UNGATED = (
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
)


class BenchError(RuntimeError):
    """A child failed or the run overran its cap: no result is printed."""


def pin_environment() -> None:
    """One thread per process and no ``REPRO_*`` knobs from the caller,
    for this process and every child."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        REPRO_NUM_WORKERS="1", PYTHONHASHSEED="0",
    )


def call(cmd: list[str], deadline: float, capture: bool = False) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"time cap reached before {cmd[2]}")
    try:
        done = subprocess.run(
            cmd, timeout=remaining, text=True,
            stdout=subprocess.PIPE if capture else sys.stderr,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[2]} child overran the time cap") from None
    if done.returncode != 0:
        raise BenchError(f"{cmd[2]} child exited {done.returncode}")
    return done.stdout or ""


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_workload(name: str, args, repro, workdir: Path,
                 deadline: float) -> dict:
    w = workload(name, args.smoke)
    inputs = prepare(repro, w, args.seed, workdir)
    child = [sys.executable, str(HERE / "workloads.py")]
    common = ["--root", str(args.root), "--workload", name, "--seed",
              str(args.seed), "--workdir", str(workdir)]
    if args.smoke:
        common.append("--smoke")

    setups = []
    for __ in range(0 if args.smoke else SETUP_REPEATS - 1):
        started = monotonic_ns()
        out = call(child + ["setup"] + common, deadline, capture=True)
        ready = [line for line in out.splitlines() if line.startswith("ready")]
        if not ready:
            raise BenchError("setup child did not report ready")
        setups.append((int(ready[-1].split()[1]) - started) / 1e9)

    n_ops = (SMOKE_OPS[name] if args.smoke
             else max(w.min_ops, round(args.seconds / w.op_seconds)))
    passes = {}
    for traced in ((False, True) if args.trace else (False,)):
        result_path = workdir / f"result-{int(traced)}.json"
        cmd = child + ["measure"] + common + [
            "--ops", str(n_ops), "--result", str(result_path)]
        if traced:
            cmd += ["--trace-out", str(workdir / "trace.json")]
        started = monotonic_ns()
        call(cmd, deadline)
        passes[traced] = json.loads(result_path.read_text())
        if not traced:
            setups.append((passes[traced]["ready_ns"] - started) / 1e9)
    record = {"workload": name, "ops": n_ops, "setup_s": setups,
              "inputs": inputs, "untraced": passes[False]}
    if args.trace:
        record["traced"] = passes[True]
        record["trace_events"] = json.loads(
            (workdir / "trace.json").read_text())
    return record


def metrics_of(record: dict, trace: bool) -> dict:
    """``name -> {"value", "unit"}`` of one workload record."""
    if trace:
        traced, untraced = record["traced"], record["untraced"]
        metrics = dict(traced.get("per_layer", {}))
        if traced.get("total_s") and untraced.get("total_s"):
            overhead = 100.0 * (traced["total_s"] / untraced["total_s"] - 1)
            metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        for name, unit in UNGATED:
            if name in untraced:
                metrics[f"e2e.{name}"] = {"value": untraced[name],
                                          "unit": unit}
        return metrics
    untraced = record["untraced"]
    values = dict(untraced, setup_s=statistics.median(record["setup_s"]))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END if name in values}


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "cpu": cpu,
    }


def print_record(record: dict, trace: bool) -> None:
    u = record["untraced"]
    print(f"== {record['workload']}: seed {u['seed']}, {record['ops']} ops, "
          f"{u['attempted']} attempted, {u['failed']} failed ==")
    for name, unit in END_TO_END + UNGATED:
        value = (statistics.median(record["setup_s"]) if name == "setup_s"
                 else u.get(name))
        if value is not None:
            print(f"  {name:<18} {value:>12.4f} {unit}")
    if "tail_rank" in u:
        print(f"  (tail = op {u['tail_rank']} by latency; not gated)")
    quality = u["quality"]
    print(f"  sigma_mean {quality['sigma_mean']:.6g}  utility_loss "
          f"{quality['utility_loss']:.6g}  epsilon_hat_mean "
          f"{quality['epsilon_hat_mean']:.6g}")
    for key, value in u.get("extra", {}).items():
        print(f"  {key}: {value}")
    for file_name, digest in record["inputs"].items():
        print(f"  sha256 input {file_name}: {digest}")
    for index, digest in enumerate(u["digests"]):
        print(f"  sha256 output {index}: {digest}")
    for error in u["errors"]:
        print(f"  ERROR {error.strip().splitlines()[-1]}")
    if trace:
        t = record["traced"]
        wall = t.get("total_s", 0.0)
        print(f"  traced pass: {wall:.3f} s timed, untraced "
              f"{u.get('total_s', 0.0):.3f} s")
        print(f"  {'layer':<26} {'calls':>8} {'self s':>9} {'share':>7} "
              f"{'incl s':>9} {'rss MiB':>8}")
        for layer, calls, self_s, incl_s, rss in t.get("layer_table", []):
            share = 100.0 * self_s / wall if wall else 0.0
            print(f"  {layer:<26} {calls:>8} {self_s:>9.3f} {share:>6.1f}% "
                  f"{incl_s:>9.3f} {rss:>8.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="run length on the seed code, per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path,
                        help="write the traced spans as a Chrome trace "
                             "(implies --trace 1)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--root", type=Path, default=HERE.parents[1],
                        help="source checkout to measure (default: the "
                             "one holding this benchmark)")
    parser.add_argument("--json-out", type=Path,
                        help="write every record (latencies, digests, "
                             "per-layer table) as JSON")
    args = parser.parse_args(argv)
    args.trace = bool(args.trace or args.trace_out)
    args.root = args.root.resolve()
    if not (args.root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {args.root} holds no src/repro package to benchmark",
              file=sys.stderr)
        return 2
    pin_environment()
    repro = import_repro(args.root)

    names = [args.workload] if args.workload else list(WORKLOADS)
    started = time.monotonic()
    n_passes = 2 if args.trace else 1
    deadline = started + max(TIME_CAP_S,
                             3 * n_passes * args.seconds * len(names))
    scratch = HERE.parents[1] / ".bench_work"
    scratch.mkdir(exist_ok=True)
    records = []
    try:
        for name in names:
            workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
            try:
                records.append(
                    run_workload(name, args, repro, workdir, deadline))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for record in records:
        print_record(record, args.trace)
    env = environment()
    env.update(records[0]["untraced"]["environment"])
    print(f"environment: {json.dumps(env)}; "
          f"wall {time.monotonic() - started:.1f} s")

    metrics = {}
    for record in records:
        prefix = "" if args.workload else f"{record['workload']}/"
        for key, value in metrics_of(record, args.trace).items():
            metrics[prefix + key] = value
    passes = [r["untraced"] for r in records]
    if args.trace:
        passes += [r["traced"] for r in records]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace_out:
        events = []
        for pid, record in enumerate(records, start=1):
            for event in record["trace_events"]:
                events.append(dict(event, pid=pid))
        args.trace_out.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"},
            separators=(",", ":")))
    if args.json_out:
        for record in records:
            record.pop("trace_events", None)
        args.json_out.write_text(json.dumps(
            {"environment": env, "seconds": args.seconds,
             "records": records, "metrics": metrics}, indent=1))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
