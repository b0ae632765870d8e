"""Benchmark-side layer tracer: spans around public ``repro`` functions.

The tracer belongs to the benchmark, not to the library.  Its
:meth:`Tracer.install` patches a wrapper onto the attribute each caller
actually looks up -- a module global such as
``repro.core.parallel.select_candidate_edges`` or a class attribute such
as ``DegreeUncertaintyCache.check_edge_arrays`` -- and
:meth:`Tracer.uninstall` puts the originals back.  Untraced runs never
call ``install``, so they execute the library untouched.

A span records its name, layer, start and end (``perf_counter_ns``), the
index of its parent span, the benchmark operation (job or batch) it ran
for, a few counts taken from the call's arguments or result, and the
process RSS read from ``/proc/self/statm`` at span exit.  Spans stay in
memory; :func:`group_spans`, :func:`layer_table` and :func:`chrome_trace`
turn them into per-layer numbers and a Chrome trace-event document when
the run ends.

Busy time is *self* time: a span's duration minus the durations of its
child spans.  Calls are single-threaded and strictly nested, so the
children never overlap and the self times of all spans under one root
add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time

import numpy as np

_PAGE_MIB = os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)

# Span record fields (lists, not objects, to keep the wrapper cheap).
NAME, LAYER, START, END, PARENT, JOB, COUNTS, RSS = range(8)


def rss_mib() -> float:
    """Current resident set size of this process, in MiB."""
    with open("/proc/self/statm", "rb") as handle:
        return int(handle.read().split()[1]) * _PAGE_MIB


# -- counts taken at span exit --------------------------------------------- #

def _check_counts(args, kwargs, report):
    """Distinct endpoints of the delta entries that change a probability."""
    us, vs, p_old, p_new = (np.asarray(a) for a in args[1:5])
    changed = p_new != p_old
    rows = np.unique(np.concatenate([us[changed], vs[changed]])).size
    return {"rows": int(rows), "satisfied": int(bool(report.satisfied))}


def _check_base_counts(args, kwargs, report):
    return {"satisfied": int(bool(report.satisfied))}


def _selection_counts(args, kwargs, pairs):
    return {"candidates": len(pairs)}


def _derive_counts(args, kwargs, view):
    return {"dirty": int(view.n_dirty), "worlds": int(view.n_samples)}


def _rebase_counts(args, kwargs, stats):
    return {"dirty": int(stats["n_dirty_worlds"] or 0)}


def _labeling_counts(args, kwargs, labels):
    return {"worlds": int(labels.shape[0])}


def _anonymize_counts(args, kwargs, result):
    return {"genobf_calls": int(result.n_genobf_calls)}


def _apply_counts(args, kwargs, outcome):
    return {"repaired": int(bool(outcome.repaired))}


def _repair_counts(args, kwargs, outcome):
    return {"trials": int(outcome.n_trials_run)}


#: ``(module, class or None, attribute, layer, span name, counts)``.  The
#: module/class pair is where the *caller* resolves the name, which is not
#: always where the function is defined.
PROBES = (
    ("repro.ugraph.io", None, "read_edge_list", "ugraph", "io", None),
    ("repro.ugraph.io", None, "write_edge_list", "ugraph", "io", None),
    ("repro.ugraph.io", None, "read_json", "ugraph", "io", None),
    ("repro.core.parallel", None, "apply_edge_updates", "ugraph",
     "materialize", None),
    ("repro.privacy.incremental", None, "apply_edge_updates", "ugraph",
     "materialize", None),
    ("repro.core.chameleon", "Chameleon", "anonymize", "core.chameleon",
     "anonymize", _anonymize_counts),
    ("repro.core.genobf", None, "compute_relevance",
     "reliability.relevance", "relevance", None),
    ("repro.core.genobf", None, "degree_uniqueness", "privacy.uniqueness",
     "uniqueness", None),
    ("repro.core.parallel", "SerialTrialEngine", "run_probe", "core.parallel",
     "probe", None),
    ("repro.core.parallel", None, "select_candidate_edges", "core.selection",
     "select", _selection_counts),
    ("repro.stream.repair", None, "select_candidate_edges", "core.selection",
     "select", _selection_counts),
    ("repro.core.parallel", None, "perturb_probabilities", "core.noise",
     "perturb", None),
    ("repro.stream.repair", None, "perturb_probabilities", "core.noise",
     "perturb", None),
    ("repro.privacy.incremental", "DegreeUncertaintyCache", "__init__",
     "privacy.incremental", "build", None),
    ("repro.privacy.incremental", "DegreeUncertaintyCache",
     "check_edge_arrays", "privacy.incremental", "check", _check_counts),
    ("repro.privacy.incremental", "DegreeUncertaintyCache", "check_base",
     "privacy.incremental", "check_base", _check_base_counts),
    ("repro.privacy.incremental", "DegreeUncertaintyCache",
     "apply_edge_arrays", "privacy.incremental", "apply", None),
    ("repro.reliability.worldstore", "WorldStore", "__init__",
     "reliability.worldstore", "build", None),
    ("repro.reliability.worldstore", "WorldStore", "warm",
     "reliability.worldstore", "build", None),
    ("repro.reliability.worldstore", "WorldStore", "derive",
     "reliability.worldstore", "derive", _derive_counts),
    ("repro.reliability.worldstore", "WorldStore", "discrepancy",
     "reliability.worldstore", "discrepancy", None),
    ("repro.reliability.worldstore", "WorldStore", "rebase",
     "reliability.worldstore", "rebase", _rebase_counts),
    ("repro.reliability.worldstore", None, "component_labels_for_edges",
     "reliability.connectivity", "label", _labeling_counts),
    ("repro.kernels", None, "rethreshold_masks", "kernels", "rethreshold",
     None),
    ("repro.stream.recertify", "IncrementalRecertifier", "apply", "stream",
     "apply", _apply_counts),
    ("repro.stream.recertify", None, "repair_violations", "stream", "repair",
     _repair_counts),
)


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, layer, time.perf_counter_ns(), 0, parent, self.job,
                  None, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _exit(self, record: list) -> None:
        record[END] = time.perf_counter_ns()
        self._stack.pop()
        record[RSS] = rss_mib()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Record one span around a block (the benchmark's own roots)."""
        record = self._enter(name, layer)
        try:
            yield record
        finally:
            self._exit(record)

    def wrap(self, fn, name: str, layer: str, counts=None):
        """``fn`` recorded as a span; ``counts`` runs after the span ends."""
        tracer = self

        def traced(*args, **kwargs):
            record = tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(record)
            if counts is not None:
                record[COUNTS] = counts(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Patch every probe in :data:`PROBES`."""
        for module_name, class_name, attr, layer, name, counts in PROBES:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(original, name, layer, counts))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus its children's durations."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def group_spans(spans: list[list], jobs=None) -> dict:
    """Aggregate spans by ``(layer, name)``.

    Returns ``{(layer, name): {"calls", "self_s", "outer_s", "rss_mib",
    <count>: sum}}``.  ``outer_s`` sums the durations of spans with no
    ancestor in the same layer, so a layer calling into itself is not
    counted twice.  ``jobs`` restricts the aggregation to spans of those
    benchmark operations (``None``: every span).
    """
    own = self_times_ns(spans)
    groups: dict = {}
    for span, self_ns in zip(spans, own):
        if jobs is not None and span[JOB] not in jobs:
            continue
        entry = groups.setdefault((span[LAYER], span[NAME]), {
            "calls": 0, "self_s": 0.0, "outer_s": 0.0, "rss_mib": 0.0,
        })
        entry["calls"] += 1
        entry["self_s"] += self_ns / 1e9
        ancestor = span[PARENT]
        while ancestor >= 0 and spans[ancestor][LAYER] != span[LAYER]:
            ancestor = spans[ancestor][PARENT]
        if ancestor < 0:
            entry["outer_s"] += (span[END] - span[START]) / 1e9
        entry["rss_mib"] = max(entry["rss_mib"], span[RSS])
        for key, value in (span[COUNTS] or {}).items():
            entry[key] = entry.get(key, 0) + value
    return groups


def layer_table(groups: dict) -> list[tuple[str, int, float, float, float]]:
    """``(layer, calls, self s, inclusive s, max RSS MiB)`` rows by layer,
    largest self time first."""
    by_layer: dict[str, list] = {}
    for (layer, __), entry in groups.items():
        row = by_layer.setdefault(layer, [0, 0.0, 0.0, 0.0])
        row[0] += entry["calls"]
        row[1] += entry["self_s"]
        row[2] += entry["outer_s"]
        row[3] = max(row[3], entry["rss_mib"])
    return sorted(
        ((layer, row[0], row[1], row[2], row[3])
         for layer, row in by_layer.items()),
        key=lambda row: -row[2],
    )


def chrome_trace(spans: list[list], label: str) -> list:
    """Spans as Chrome trace-event ``"X"`` events (microseconds).

    Any viewer that reads the trace-event format (``chrome://tracing``,
    Perfetto) opens the result.  Events carry ``pid`` 1 and a process
    named ``label``; a file holding several workloads renumbers them.
    """
    if not spans:
        return []
    origin = min(span[START] for span in spans)
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
               "args": {"name": label}}]
    for index, span in enumerate(spans):
        args = {"span": index, "parent": span[PARENT], "job": span[JOB],
                "rss_mib": round(span[RSS], 2)}
        if span[COUNTS]:
            args.update(span[COUNTS])
        events.append({
            "name": f"{span[LAYER]}.{span[NAME]}",
            "cat": span[LAYER],
            "ph": "X",
            "ts": (span[START] - origin) / 1000.0,
            "dur": (span[END] - span[START]) / 1000.0,
            "pid": 1,
            "tid": 1,
            "args": args,
        })
    return events
