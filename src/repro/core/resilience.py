"""Supervised trial execution: retry and checkpoint/resume.

The trial engine (:mod:`repro.core.parallel`) runs the sigma search;
this module makes it *survivable*.  A long anonymization run can meet
a trial that overruns its deadline, a fault injected by the test
harness, or the death of the whole interpreter mid-search.  The
determinism contract turns each into a recoverable event: every trial
is a pure function of ``(entropy, probe_index, trial_index)``, so
*re-executing* a failed probe reproduces it bit for bit.

:class:`SupervisedTrialEngine` wraps the engine behind the same
``run_probe`` / ``run_ladder`` interface and adds:

* **Bounded deterministic retry** -- a retryable failure
  (:class:`~repro.exceptions.TrialTimeoutError`, raised after a trial
  overran its deadline, or :class:`~repro.exceptions.InjectedFault`)
  discards the engine, sleeps an exponential backoff, rebuilds it from
  the factory and re-runs the same probe coordinates.  Because trial
  streams are keyed by coordinates, the retried probe's outcome is
  identical to the one the failure ate.  When the retries are spent,
  :class:`~repro.exceptions.ResilienceError` escapes.
* **Checkpoint/resume** -- an optional :class:`SigmaSearchJournal`
  persists every completed probe (as delta arrays against the base
  graph) to an append-only JSONL file keyed by a fingerprint of the
  run's graph, configuration, selection context and entropy.  A resumed
  run replays journaled probes instead of recomputing them and is
  bit-identical to the uninterrupted run; a journal written by a
  *different* run is rejected up front.

Supervision composes with the fault-injection harness
(:mod:`repro.core.faults`): injected crashes and delays exercise
exactly these recovery paths in tests and CI.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time

import numpy as np

from ..exceptions import InjectedFault, ResilienceError, TrialTimeoutError
from ..privacy.obfuscation import ObfuscationReport
from ..reliability.worldstore import graph_delta
from ..ugraph.operations import apply_edge_updates
from .result import FAILURE_EPSILON, GenObfOutcome

__all__ = [
    "RETRYABLE_EXCEPTIONS",
    "RetryPolicy",
    "update_graph_digest",
    "run_fingerprint",
    "SigmaSearchJournal",
    "SupervisedTrialEngine",
]

logger = logging.getLogger("repro.core.resilience")

#: Failures worth re-executing: an overrun deadline or an injected
#: fault.  Everything else -- a genuine bug in trial code -- propagates
#: raw.
RETRYABLE_EXCEPTIONS = (TrialTimeoutError, InjectedFault)

#: Journal format version; bumped on any incompatible layout change.
_JOURNAL_VERSION = 1

#: Config fields that determine trial *results* (as opposed to execution
#: knobs like timeouts, retries or fault plans, which must NOT
#: invalidate a checkpoint).
_FINGERPRINT_CONFIG_FIELDS = (
    "k", "epsilon", "size_multiplier", "white_noise", "n_trials",
    "relevance_samples", "relevance_method",
    "selection_mode", "perturbation_mode", "sigma_initial", "sigma_max",
    "sigma_tolerance", "uniqueness_bandwidth", "name",
)


class RetryPolicy:
    """How much failure the supervisor absorbs before giving up.

    ``max_retries`` re-executions in all; attempt ``i`` sleeps
    ``backoff_seconds * 2**(i - 1)`` before rebuilding the engine.
    ``task_timeout`` is carried here for engine factories to consume.
    """

    def __init__(self, task_timeout: float | None = None,
                 max_retries: int = 2, backoff_seconds: float = 0.05):
        self.task_timeout = task_timeout
        self.max_retries = int(max_retries)
        self.backoff_seconds = float(backoff_seconds)

    @classmethod
    def from_config(cls, config) -> "RetryPolicy":
        return cls(
            task_timeout=config.trial_timeout,
            max_retries=config.max_retries,
            backoff_seconds=config.retry_backoff,
        )

    def backoff(self, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (1-based)."""
        return self.backoff_seconds * (2.0 ** (max(0, attempt - 1)))


def update_graph_digest(digest, graph) -> None:
    """Feed a graph's result-determining arrays into a hash object.

    The node count plus the raw edge arrays (endpoints and
    probabilities, in stored order) pin down everything a deterministic
    run derives from the graph.  Shared by the checkpoint-journal
    fingerprint below and the anonymization service's dataset / result
    cache keys, so "same graph" means the same thing everywhere.
    """
    digest.update(np.int64(graph.n_nodes).tobytes())
    for arr in (graph.edge_src, graph.edge_dst, graph.edge_probabilities):
        digest.update(np.ascontiguousarray(arr).tobytes())


def run_fingerprint(graph, config, context, entropy: int) -> str:
    """Digest of everything that determines the sigma search's results.

    Covers the graph's edge arrays, the selection context (whose arrays
    already embed the adversary knowledge and the run seed's relevance
    draws), the algorithmic configuration fields and the trial-stream
    entropy -- and deliberately *excludes* execution knobs
    (``trial_timeout``, ``max_retries``, fault plans), so a checkpoint
    written under one set of knobs resumes under any other.
    """
    digest = hashlib.sha256()
    update_graph_digest(digest, graph)
    for arr in (context.uniqueness, context.vertex_relevance,
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

    @property
    def path(self) -> str:
        return self._path

    @property
    def n_recorded(self) -> int:
        return len(self._records)

    def _start_fresh(self) -> None:
        self._fh = open(self._path, "w", encoding="utf-8")
        self._write_line({
            "kind": "header",
            "version": _JOURNAL_VERSION,
            "fingerprint": self._fingerprint,
        })

    def _load(self) -> None:
        header_seen = False
        with open(self._path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
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
                if not header_seen:
                    if (record.get("kind") != "header"
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
                if record.get("kind") == "probe":
                    self._records[int(record["probe_index"])] = record
        if not header_seen:
            raise ResilienceError(
                f"checkpoint journal {self._path} is empty or torn before "
                "its header; refusing to resume from it"
            )
        logger.info(
            "resuming sigma search from %s: %d completed probe(s) will be "
            "replayed", self._path, len(self._records),
        )
        self._fh = open(self._path, "a", encoding="utf-8")

    def _write_line(self, record: dict) -> None:
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

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
        n_trials = int(record.get("n_trials", self._config.n_trials))
        if not record["success"]:
            return GenObfOutcome(
                sigma=sigma, epsilon_achieved=float(FAILURE_EPSILON),
                graph=None, report=None, n_trials=n_trials,
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
            n_trials=n_trials,
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
            "n_trials": int(outcome.n_trials),
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


class SupervisedTrialEngine:
    """Retry / checkpoint supervisor over a trial engine.

    Parameters
    ----------
    factory:
        ``factory() -> SerialTrialEngine`` building a fresh engine;
        called lazily and again after every discard.
    policy:
        The run's :class:`RetryPolicy`.
    journal:
        Optional :class:`SigmaSearchJournal`.  Without one,
        :meth:`run_ladder` retries the bracketing ladder as a whole;
        with one it walks probe by probe, so each completed probe is
        durable (and replayable) immediately and a retry re-runs only
        the failed probe.
    """

    def __init__(self, factory, policy: RetryPolicy,
                 journal: SigmaSearchJournal | None = None):
        self._factory = factory
        self._policy = policy
        self._journal = journal
        self._engine = None
        self._privacy: tuple[int, float] | None = None
        self._entropy: int | None = None
        self._retries = 0
        self._resumed = 0

    def _ensure_engine(self):
        if self._engine is None:
            engine = self._factory()
            # Re-apply any retargeting a previous incarnation received,
            # so a rebuilt engine is indistinguishable from the original.
            if self._privacy is not None:
                engine.set_privacy(*self._privacy)
            if self._entropy is not None:
                engine.set_entropy(self._entropy)
            self._engine = engine
        return self._engine

    def _supervise(self, run):
        """Execute ``run(engine)`` under bounded retry.

        Determinism: ``run`` re-dispatches fixed probe coordinates, and
        every trial is a pure function of its coordinates, so however
        many times this loop re-executes, the value returned is the one
        a failure-free engine would have produced.
        """
        attempt = 0
        while True:
            engine = self._ensure_engine()
            try:
                return run(engine)
            except RETRYABLE_EXCEPTIONS as exc:
                reason = f"{type(exc).__name__}: {exc}"
                self._engine = None
                if attempt >= self._policy.max_retries:
                    raise ResilienceError(
                        "supervised execution exhausted every recovery "
                        f"option: the trials failed {attempt + 1} time(s); "
                        f"last failure: {reason}"
                    ) from exc
                attempt += 1
                self._retries += 1
                delay = self._policy.backoff(attempt)
                logger.warning(
                    "supervised trial engine failed (%s); retry %d/%d "
                    "after %.3fs backoff", reason, attempt,
                    self._policy.max_retries, delay,
                )
                if delay > 0.0:
                    time.sleep(delay)

    def run_probe(self, probe_index: int, sigma: float) -> GenObfOutcome:
        if self._journal is not None:
            replayed = self._journal.get(probe_index, sigma)
            if replayed is not None:
                self._resumed += 1
                return replayed
        outcome = self._supervise(
            lambda engine: engine.run_probe(probe_index, sigma)
        )
        if self._journal is not None:
            self._journal.record(probe_index, outcome)
        return outcome

    def run_ladder(self, sigmas, first_probe_index: int = 0):
        sigmas = list(sigmas)
        if self._journal is None:
            return self._supervise(
                lambda engine: engine.run_ladder(
                    sigmas, first_probe_index=first_probe_index
                )
            )
        outcomes: list[GenObfOutcome] = []
        for i, sigma in enumerate(sigmas):
            outcome = self.run_probe(first_probe_index + i, sigma)
            outcomes.append(outcome)
            if outcome.success:
                break
        return outcomes

    def set_privacy(self, k: int, epsilon: float) -> None:
        self._privacy = (int(k), float(epsilon))
        if self._engine is not None:
            self._engine.set_privacy(k, epsilon)

    def set_entropy(self, entropy: int) -> None:
        self._entropy = int(entropy)
        if self._engine is not None:
            self._engine.set_entropy(entropy)

    def close(self) -> None:
        """Close the checkpoint journal, if any (idempotent)."""
        if self._journal is not None:
            self._journal.close()

    @property
    def retry_count(self) -> int:
        """Probe re-executions performed."""
        return self._retries

    @property
    def resumed_probes(self) -> int:
        """Probes replayed from the journal instead of recomputed."""
        return self._resumed
