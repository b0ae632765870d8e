"""Checkpoint/resume of the sigma search.

A long anonymization run can die mid-search: killed by a scheduler,
out of memory, or failing in a trial.  Every trial is a pure function
of its ``(entropy, probe_index, trial_index)`` coordinates
(:mod:`repro.core.parallel`), so a completed probe never needs to be
computed twice.  :class:`SigmaSearchJournal` persists every completed
probe (as delta arrays against the base graph) to an append-only JSONL
file keyed by a fingerprint of the run's graph, configuration,
selection context and entropy.  A resumed run replays journaled probes
instead of recomputing them and is bit-identical to the uninterrupted
run; a journal written by a *different* run is rejected up front.

The journal is untrusted input: a file that cannot be opened, read or
written, and a malformed record, end in
:class:`~repro.exceptions.ResilienceError` naming the path (and the
line of a bad record).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os

import numpy as np

from ..exceptions import ResilienceError
from ..privacy.obfuscation import ObfuscationReport
from ..reliability.worldstore import graph_delta
from ..ugraph.operations import apply_edge_updates
from .result import FAILURE_EPSILON, GenObfOutcome

__all__ = ["run_fingerprint", "SigmaSearchJournal"]

logger = logging.getLogger("repro.core.resilience")

#: Journal format version; bumped on any incompatible layout change.
_JOURNAL_VERSION = 1

#: Config fields that determine trial *results* (as opposed to execution
#: knobs like the checkpoint path or utility scoring, which must NOT
#: invalidate a checkpoint).
_FINGERPRINT_CONFIG_FIELDS = (
    "k", "epsilon", "size_multiplier", "white_noise", "n_trials",
    "relevance_samples", "relevance_method",
    "selection_mode", "perturbation_mode", "sigma_initial", "sigma_max",
    "sigma_tolerance", "uniqueness_bandwidth", "name",
)

#: Arrays a successful probe record carries: name, dtype, JSON type.
_CANDIDATE_ARRAYS = (
    ("us", np.int64, int),
    ("vs", np.int64, int),
    ("p_new", np.float64, (int, float)),
    ("entropies", np.float64, (int, float)),
    ("obfuscated", bool, bool),
)


def _typed(value, kinds, name: str):
    """``value`` if it is a JSON value of ``kinds``, else ``ValueError``.

    ``bool`` is an ``int`` subclass in Python but not in JSON, so a
    boolean passes only where ``kinds`` names ``bool``.
    """
    wants_bool = kinds is bool or (isinstance(kinds, tuple) and bool in kinds)
    if isinstance(value, bool) != wants_bool or not isinstance(value, kinds):
        raise ValueError(f"field {name!r} has the wrong JSON type")
    return value


def run_fingerprint(graph, config, context, entropy: int) -> str:
    """Digest of everything that determines the sigma search's results.

    Covers the graph's node count and edge arrays (endpoints and
    probabilities, in stored order), the selection context (whose arrays
    already embed the adversary knowledge and the run seed's relevance
    draws), the algorithmic configuration fields and the trial-stream
    entropy -- and deliberately *excludes* execution knobs (the
    checkpoint path, ``resume``, utility scoring), so a checkpoint
    written under one set of knobs resumes under any other.
    """
    digest = hashlib.sha256()
    digest.update(np.int64(graph.n_nodes).tobytes())
    for arr in (graph.edge_src, graph.edge_dst, graph.edge_probabilities,
                context.uniqueness, context.vertex_relevance,
                context.excluded, context.weights, context.knowledge):
        digest.update(np.ascontiguousarray(arr).tobytes())
    for name in _FINGERPRINT_CONFIG_FIELDS:
        digest.update(f"{name}={getattr(config, name)!r};".encode())
    digest.update(f"entropy={int(entropy)}".encode())
    return digest.hexdigest()


class SigmaSearchJournal:
    """Append-only JSONL checkpoint of completed sigma probes.

    Line 1 is a header carrying :func:`run_fingerprint`; each further
    line records one probe outcome -- failures as a flag, successes as
    the winning candidate's ``(u, v, p_old, p_new)`` delta against the
    base graph plus the obfuscation report's arrays.  Replay applies the
    delta through :func:`~repro.ugraph.operations.apply_edge_updates`,
    the exact materialization the live reduction used, and JSON's
    ``repr``-based float serialization round-trips float64 exactly, so
    a resumed probe is bit-identical to the recorded one.

    Records are flushed and fsynced as they are written: a run killed
    mid-probe loses at most the probe in flight (a torn final line is
    detected and discarded on load).
    """

    def __init__(self, path: str, *, graph, config, context, entropy: int,
                 resume: bool = False):
        self._path = str(path)
        self._graph = graph
        self._config = config
        self._fingerprint = run_fingerprint(graph, config, context, entropy)
        self._records: dict[int, dict] = {}
        self._fh = None
        if resume and os.path.exists(self._path):
            self._load()
        else:
            if resume:
                logger.warning(
                    "resume requested but journal %s does not exist; "
                    "starting a fresh search", self._path,
                )
            self._start_fresh()

    def _unusable(self, action: str, exc: OSError) -> ResilienceError:
        return ResilienceError(
            f"cannot {action} checkpoint journal {self._path}: "
            f"{exc.strerror or exc}"
        )

    def _open(self, mode: str):
        try:
            return open(self._path, mode, encoding="utf-8")
        except OSError as exc:
            raise self._unusable("open", exc) from exc

    def _start_fresh(self) -> None:
        self._fh = self._open("w")
        try:
            self._write_line({
                "kind": "header",
                "version": _JOURNAL_VERSION,
                "fingerprint": self._fingerprint,
            })
        except ResilienceError:
            self.close()  # no caller holds a half-built journal to close
            raise

    def _bad_line(self, lineno: int, problem: str) -> ResilienceError:
        return ResilienceError(
            f"checkpoint journal {self._path} line {lineno} {problem}; "
            "refusing to resume from it"
        )

    def _load(self) -> None:
        try:
            with open(self._path, "rb") as fh:
                lines = fh.read().split(b"\n")
        except OSError as exc:
            raise self._unusable("read", exc) from exc
        header_seen = False
        for lineno, raw in enumerate(lines, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise self._bad_line(lineno, "is not UTF-8 text") from None
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A torn write from a killed run: everything before
                # this line is intact, everything after is void.
                logger.warning(
                    "journal %s: discarding torn line %d (the previous "
                    "run died mid-write)", self._path, lineno,
                )
                break
            except (ValueError, RecursionError) as exc:
                # Well-formed JSON the decoder still refuses: an integer
                # past Python's digit limit, or nesting past its
                # recursion limit.
                raise self._bad_line(
                    lineno, f"cannot be decoded ({exc})"
                ) from None
            if not header_seen:
                if (not isinstance(record, dict)
                        or record.get("kind") != "header"
                        or record.get("version") != _JOURNAL_VERSION):
                    raise ResilienceError(
                        f"checkpoint journal {self._path} has no "
                        "recognizable header; refusing to resume from it"
                    )
                if record.get("fingerprint") != self._fingerprint:
                    raise ResilienceError(
                        f"checkpoint journal {self._path} belongs to a "
                        "different run (graph, configuration or seed "
                        "changed); replaying it could not be "
                        "bit-identical, refusing to resume"
                    )
                header_seen = True
                continue
            if not isinstance(record, dict):
                raise self._bad_line(lineno, "is not a JSON object")
            if record.get("kind") == "probe":
                try:
                    probe_index, parsed = self._parse_probe(record)
                except (ValueError, OverflowError) as exc:
                    raise self._bad_line(
                        lineno, f"is a malformed probe record: {exc}"
                    ) from None
                self._records[probe_index] = parsed
        if not header_seen:
            raise ResilienceError(
                f"checkpoint journal {self._path} is empty or torn before "
                "its header; refusing to resume from it"
            )
        logger.info(
            "resuming sigma search from %s: %d completed probe(s) will be "
            "replayed", self._path, len(self._records),
        )
        self._fh = self._open("a")

    def _parse_probe(self, record: dict) -> tuple[int, dict]:
        """``(probe_index, typed fields)`` of one probe record.

        Raises ``ValueError`` for a missing field, a field of the wrong
        JSON type or report arrays that do not cover the graph's
        vertices, and ``OverflowError`` for a number that does not fit
        its dtype.
        """
        def field(name, kinds):
            if name not in record:
                raise ValueError(f"field {name!r} is missing")
            return _typed(record[name], kinds, name)

        probe_index = field("probe_index", int)
        parsed = {
            "sigma": float(field("sigma", (int, float))),
            "epsilon_achieved": float(field("epsilon_achieved", (int, float))),
            "success": field("success", bool),
        }
        if parsed["success"]:
            for name, dtype, kinds in _CANDIDATE_ARRAYS:
                values = field(name, list)
                for value in values:
                    _typed(value, kinds, name)
                parsed[name] = np.asarray(values, dtype=dtype)
            n_nodes = self._graph.n_nodes
            if not (parsed["entropies"].size == parsed["obfuscated"].size
                    == n_nodes):
                raise ValueError(
                    f"its report arrays do not cover the {n_nodes} vertices"
                )
        return probe_index, parsed

    def _write_line(self, record: dict) -> None:
        try:
            self._fh.write(json.dumps(record) + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as exc:
            raise self._unusable("write", exc) from exc

    def get(self, probe_index: int, sigma: float) -> GenObfOutcome | None:
        """Replay a journaled probe, or ``None`` if it was never recorded."""
        record = self._records.get(int(probe_index))
        if record is None:
            return None
        if float(record["sigma"]) != float(sigma):
            raise ResilienceError(
                f"checkpoint journal {self._path} diverged: probe "
                f"{probe_index} was recorded at sigma={record['sigma']} but "
                f"this run probes sigma={sigma}"
            )
        return self._rebuild(record)

    def _rebuild(self, record: dict) -> GenObfOutcome:
        sigma = float(record["sigma"])
        if not record["success"]:
            return GenObfOutcome(
                sigma=sigma, epsilon_achieved=float(FAILURE_EPSILON),
                graph=None, report=None,
            )
        us = np.asarray(record["us"], dtype=np.int64)
        vs = np.asarray(record["vs"], dtype=np.int64)
        p_new = np.asarray(record["p_new"], dtype=np.float64)
        graph = apply_edge_updates(self._graph, us, vs, p_new)
        report = ObfuscationReport(
            k=self._config.k,
            epsilon=self._config.epsilon,
            entropies=np.asarray(record["entropies"], dtype=np.float64),
            obfuscated=np.asarray(record["obfuscated"], dtype=bool),
            epsilon_achieved=float(record["epsilon_achieved"]),
        )
        return GenObfOutcome(
            sigma=sigma,
            epsilon_achieved=float(record["epsilon_achieved"]),
            graph=graph,
            report=report,
        )

    def record(self, probe_index: int, outcome: GenObfOutcome) -> None:
        """Persist one completed probe (idempotent per probe index)."""
        probe_index = int(probe_index)
        if probe_index in self._records or self._fh is None:
            return
        record: dict = {
            "kind": "probe",
            "probe_index": probe_index,
            "sigma": float(outcome.sigma),
            "epsilon_achieved": float(outcome.epsilon_achieved),
            "success": bool(outcome.success),
            # The configured trial budget (a probe may stop earlier),
            # kept under its key so journal bytes stay stable.
            "n_trials": self._config.n_trials,
        }
        if outcome.success:
            # graph_delta lists changed pairs in the candidate's edge
            # order (overridden base edges in dense order, then appended
            # pairs in first-occurrence order), so re-applying it through
            # apply_edge_updates reproduces the candidate's edge universe,
            # ordering and probabilities exactly.
            delta = graph_delta(self._graph, outcome.graph)
            record["us"] = [d[0] for d in delta]
            record["vs"] = [d[1] for d in delta]
            record["p_new"] = [d[3] for d in delta]
            record["entropies"] = outcome.report.entropies.tolist()
            record["obfuscated"] = outcome.report.obfuscated.tolist()
        self._records[probe_index] = record
        self._write_line(record)

    def close(self) -> None:
        if self._fh is not None:
            fh, self._fh = self._fh, None
            try:
                fh.close()
            except OSError as exc:
                logger.warning("closing journal %s failed: %s",
                               self._path, exc)
