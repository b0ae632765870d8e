"""Shared benchmark harness: datasets, cached anonymization sweep, output.

Every figure bench consumes the same (dataset x method x k) anonymization
sweep; results are cached on disk under ``benchmarks/.bench_cache`` (never
committed) so the expensive runs happen exactly once per parameter set and
source tree no matter how many benches execute.  Tables are echoed to the real stdout (bypassing pytest
capture) and written to ``benchmarks/results/*.txt``.

Scaling knobs (environment variables):

* ``REPRO_BENCH_SCALE``   -- dataset size multiplier (default 0.6)
* ``REPRO_BENCH_SEED``    -- master seed (default 2018)
* ``REPRO_BENCH_SAMPLES`` -- Monte-Carlo worlds per metric (default 300)

Parameter choices vs. the paper (see EXPERIMENTS.md): the paper sweeps
k in [100, 300] on graphs of 12k-825k vertices; we sweep k in {3,6,10,15}
on ~250-550-vertex stand-ins, which covers the same k/|V| band.  The
candidate multiplier c = 2 matches the regime Boldi et al. report for
strong privacy levels.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import sys
import time
from pathlib import Path

import numpy as np

import repro
from repro.reliability import reliability_discrepancy

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.6"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "2018"))
METRIC_SAMPLES = int(os.environ.get("REPRO_BENCH_SAMPLES", "300"))

DATASETS = ("dblp", "brightkite", "ppi")
METHODS = ("rep-an", "rs", "me", "rsme")
K_VALUES = (3, 6, 10, 15)

#: Per-dataset tolerance, Table-I analogues rescaled to stand-in sizes.
EPSILONS = {"dblp": 0.02, "brightkite": 0.02, "ppi": 0.05}

#: Anonymizer settings shared by every sweep run.
RUN_KWARGS = dict(
    n_trials=4,
    relevance_samples=300,
    sigma_tolerance=0.01,
    size_multiplier=2.0,
)

_CACHE_DIR = Path(__file__).resolve().parent / ".bench_cache"
RESULTS_DIR = Path(__file__).resolve().parent / "results"


# --------------------------------------------------------------------- #
# Output plumbing
# --------------------------------------------------------------------- #

def environment_block() -> str:
    """One-line-per-fact execution environment footer for results files.

    Derived from :func:`repro.core.execution_environment` so every
    archived benchmark records which CPU budget and library versions
    produced its numbers.
    """
    from repro.core import execution_environment

    env = execution_environment()
    lines = [
        "environment:",
        f"  python {env['python']} / numpy {env['numpy']} / "
        f"scipy {env['scipy']}",
        f"  usable cpus: {env['cpus']['usable']} "
        f"(of {env['cpus']['total']})",
    ]
    peak = env["memory"]["peak_rss_bytes"]
    if peak is not None:
        lines.append(f"  peak rss: {peak / 1024**2:.1f} MiB")
    if env["env"]:
        knobs = ", ".join(f"{k}={v}" for k, v in sorted(env["env"].items()))
        lines.append(f"  repro env: {knobs}")
    return "\n".join(lines)


def emit(bench_name: str, text: str, data: dict | None = None) -> None:
    """Print a result table to the real stdout and archive it.

    The archived text file carries the execution-environment footer so
    numbers are never read without the backend/CPU context that produced
    them.  When ``data`` is given, a machine-readable twin
    ``BENCH_<name>.json`` is archived next to the text file -- the
    per-case timings/speedups plus the structured environment report and
    peak RSS -- so the perf trajectory is diffable across PRs without
    parsing tables.
    """
    from repro.core import execution_environment, peak_rss_bytes

    RESULTS_DIR.mkdir(exist_ok=True)
    banner = f"\n=== {bench_name} ===\n{text}\n"
    print(banner, file=sys.__stdout__, flush=True)
    archived = f"{text}\n\n{environment_block()}\n"
    (RESULTS_DIR / f"{bench_name}.txt").write_text(archived)
    if data is None:
        return
    payload = {
        "bench": bench_name,
        "version": repro.__version__,
        "scale": SCALE,
        "seed": SEED,
        "metric_samples": METRIC_SAMPLES,
        **data,
        "environment": execution_environment(),
        "peak_rss_bytes": peak_rss_bytes(),
    }
    (RESULTS_DIR / f"BENCH_{bench_name}.json").write_text(
        json.dumps(payload, indent=2, default=_json_default) + "\n"
    )


def _json_default(value):
    """Fallback encoder: NumPy scalars/arrays into plain JSON types."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


def table_data(headers: list[str], rows: list[list]) -> dict:
    """Rows as JSON-ready dicts for :func:`emit`'s ``data`` argument."""
    return {
        "cases": [dict(zip(headers, row)) for row in rows],
    }


def format_table(headers: list[str], rows: list[list], precision: int = 4) -> str:
    """Fixed-width text table."""
    def fmt(value):
        if isinstance(value, float):
            if np.isnan(value):
                return "nan"
            return f"{value:.{precision}f}"
        return str(value)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in cells]
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Datasets
# --------------------------------------------------------------------- #

@functools.lru_cache(maxsize=None)
def dataset(name: str):
    """The (seeded, in-memory-cached) stand-in graph for one dataset."""
    return repro.load_dataset(name, scale=SCALE, seed=SEED)


@functools.lru_cache(maxsize=None)
def knowledge(name: str):
    """Adversary degree knowledge extracted from the original dataset."""
    from repro.privacy import expected_degree_knowledge

    return expected_degree_knowledge(dataset(name))


# --------------------------------------------------------------------- #
# Cached anonymization sweep
# --------------------------------------------------------------------- #

@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """sha256 over every ``repro/**/*.py`` file (relative path + bytes).

    Cache entries are keyed by it, so any change to the library's source
    invalidates them; the package version stays put across changes.
    """
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cache_path(kind: str, **params) -> Path:
    payload = json.dumps(
        {"kind": kind, "scale": SCALE, "seed": SEED, "source": source_digest(),
         **params, "run": {k: v for k, v in sorted(RUN_KWARGS.items())}},
        sort_keys=True,
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()[:20]
    return _CACHE_DIR / f"{kind}-{digest}.pkl"


def _load_cached(path: Path) -> dict | None:
    """A cache entry's cell, or None when absent or unreadable."""
    try:
        with path.open("rb") as fh:
            return pickle.load(fh)
    except (OSError, EOFError, pickle.UnpicklingError, AttributeError,
            ImportError):
        # Missing, truncated, foreign bytes, or classes that moved since
        # the entry was written: recompute.
        return None


def anonymized(dataset_name: str, method: str, k: int) -> dict:
    """One sweep cell: anonymize ``dataset_name`` with ``method`` at ``k``.

    Returns ``{"graph": UncertainGraph | None, "sigma": float,
    "success": bool, "seconds": float}``; disk-cached.  An entry that
    does not unpickle counts as a miss and is overwritten.
    """
    path = _cache_path("anon", dataset=dataset_name, method=method, k=k)
    cell = _load_cached(path)
    if cell is not None:
        return cell

    graph = dataset(dataset_name)
    epsilon = EPSILONS[dataset_name]
    started = time.perf_counter()
    if method == "rep-an":
        result = repro.rep_an(graph, k, epsilon, seed=SEED, **RUN_KWARGS)
    else:
        result = repro.anonymize(graph, k, epsilon, method=method, seed=SEED,
                                 **RUN_KWARGS)
    cell = {
        "graph": result.graph,
        "sigma": result.sigma,
        "success": result.success,
        "seconds": time.perf_counter() - started,
    }
    _CACHE_DIR.mkdir(exist_ok=True)
    with path.open("wb") as fh:
        pickle.dump(cell, fh)
    return cell


def reliability_loss(dataset_name: str, anonymized_graph) -> float:
    """Average per-pair reliability discrepancy against the original."""
    if anonymized_graph is None:
        return float("nan")
    return reliability_discrepancy(
        dataset(dataset_name),
        anonymized_graph,
        n_samples=METRIC_SAMPLES,
        n_pairs=20_000,
        seed=SEED,
    )


def sweep_rows(metric_fn, metric_name: str) -> list[list]:
    """Evaluate ``metric_fn(dataset_name, graph)`` over the whole sweep.

    Returns table rows ``[dataset, k, method, value]``, NaN for failed
    anonymization runs (reported rather than hidden).
    """
    rows = []
    for ds in DATASETS:
        for k in K_VALUES:
            for method in METHODS:
                cell = anonymized(ds, method, k)
                value = metric_fn(ds, cell["graph"])
                rows.append([ds, k, method, value])
    return rows
