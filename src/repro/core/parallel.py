"""Deterministic parallel execution of GenObf trials (the sigma search).

PRs 1, 2 and 4 made each *per-candidate* evaluation cheap, leaving the
Algorithm 1/3 search itself -- ``t`` randomized trials per sigma probe,
across a serial probe ladder -- as the dominant wall-clock cost of
:meth:`repro.core.Chameleon.anonymize`.  The trials of one probe are
embarrassingly parallel (cf. the obfuscation scheme of Boldi et al.,
whose trial loop has the same shape), and the bracketing ladder's probe
levels are predetermined, so whole probe *waves* can run concurrently
too.  This module supplies the engine:

* :func:`run_trial` -- ONE GenObf trial (candidate selection, noise
  split, perturbation, (k, epsilon) check) producing a compact
  :class:`TrialResult`: the candidate's delta arrays plus the check
  report's arrays, never a materialized graph.
* :class:`SerialTrialEngine` -- the in-process reference executor.
* :class:`ProcessTrialEngine` -- a persistent per-run worker pool.  The
  run's read-only invariants (the graph's edge arrays, the
  ``SelectionContext`` arrays, the incremental checker's base pmf
  matrix) are published ONCE through a single
  :mod:`multiprocessing.shared_memory` segment; workers receive a
  ``(segment name, manifest)`` descriptor at pool initialization and
  never a pickled copy per task.  Tasks are
  ``(probe_index, trial_index, sigma, overrides)`` tuples.

Engines also expose :meth:`TrialEngine.set_privacy` and
:meth:`TrialEngine.set_entropy`, letting multi-target sweeps
(:func:`repro.core.sweep.sweep_anonymize`) amortize ONE engine -- pool,
published segment, degree-pmf cache and all -- across every k value
instead of rebuilding per run.

Determinism contract
--------------------
Every trial draws from its own :class:`numpy.random.SeedSequence`
stream, keyed by ``(probe_index, trial_index)`` under one per-run
entropy value (:func:`trial_generator`).  A trial's randomness therefore
depends only on its coordinates -- not on which worker runs it, in what
order, or how many workers exist -- and :func:`reduce_probe` folds
results with the sequential loop's exact ``(epsilon, trial index)``
tie-break.  ``anonymize`` output is bit-identical across
``trial_backend in {"serial", "process"}`` and every worker
count (asserted by ``tests/test_parallel_trials.py`` and audited by
``benchmarks/bench_parallel_trials.py``).
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_sentinels

import numpy as np

from .. import _segments
from ..exceptions import ConfigurationError, InjectedFault, TrialTimeoutError
from ..privacy.incremental import DegreeUncertaintyCache
from ..privacy.obfuscation import ObfuscationReport
from ..ugraph.graph import UncertainGraph
from ..ugraph.operations import apply_edge_updates
from .faults import execute_fault
from .noise import perturb_probabilities
from .result import FAILURE_EPSILON, GenObfOutcome
from .selection import select_candidate_edges

__all__ = [
    "TRIAL_BACKENDS",
    "NUM_WORKERS_ENV",
    "resolve_worker_count",
    "TrialResult",
    "trial_generator",
    "run_trial",
    "reduce_probe",
    "TrialEngine",
    "SerialTrialEngine",
    "ProcessTrialEngine",
    "create_trial_engine",
]

#: Selectable trial-execution backends for ``ChameleonConfig``.
TRIAL_BACKENDS = ("serial", "process")

#: Environment variable that sets the ``process`` engine's worker count.
NUM_WORKERS_ENV = "REPRO_NUM_WORKERS"

#: Default deadline for pool shutdown before workers are killed.
DEFAULT_SHUTDOWN_TIMEOUT = 2.0

logger = logging.getLogger("repro.core.parallel")


def resolve_worker_count(n_workers: int | None = None) -> int:
    """Worker count for the ``process`` trial engine.

    Resolution order: explicit ``n_workers`` argument, then the
    ``REPRO_NUM_WORKERS`` environment variable, then ``os.cpu_count()``.
    """
    if n_workers is None:
        env = os.environ.get(NUM_WORKERS_ENV)
        if env is not None and env.strip():
            try:
                n_workers = int(env)
            except ValueError:
                raise ConfigurationError(
                    f"{NUM_WORKERS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            n_workers = os.cpu_count() or 1
    n_workers = int(n_workers)
    if n_workers < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {n_workers}")
    return n_workers


def trial_generator(
    entropy: int, probe_index: int, trial_index: int
) -> np.random.Generator:
    """The stream of trial ``(probe_index, trial_index)`` under ``entropy``.

    Constructing the child :class:`~numpy.random.SeedSequence` directly
    from its spawn key makes the stream a pure function of the trial's
    coordinates: any executor, on any worker, reproduces it bitwise.
    """
    seq = np.random.SeedSequence(
        int(entropy), spawn_key=(int(probe_index), int(trial_index))
    )
    return np.random.default_rng(seq)


def _edge_noise_scales(
    us: np.ndarray,
    vs: np.ndarray,
    vertex_scores: np.ndarray,
    sigma: float,
) -> np.ndarray:
    """Per-edge scales ``sigma(e)`` with mean exactly ``sigma``.

    ``sigma(e) = sigma * |E_C| * Q^e / sum Q^e`` where
    ``Q^e = (Q^u + Q^v) / 2`` (Algorithm 3, "edge perturbation").  A
    degenerate all-zero score vector falls back to the uniform budget.
    """
    if us.size == 0:
        return np.zeros(0, dtype=np.float64)
    q_edge = (vertex_scores[us] + vertex_scores[vs]) / 2.0
    total = q_edge.sum()
    if total <= 0.0:
        return np.full(us.size, sigma, dtype=np.float64)
    return sigma * us.size * q_edge / total


@dataclass(frozen=True)
class TrialResult:
    """Compact outcome of one GenObf trial.

    Carries the candidate as delta arrays against the base graph plus
    the obfuscation report's arrays -- never a materialized
    :class:`~repro.ugraph.UncertainGraph` -- so results stay cheap to
    ship across a process boundary.  ``us``/``vs``/``p_old``/``p_new``
    are ``None`` when candidate selection produced no pairs;
    ``entropies``/``obfuscated`` are kept only for satisfying trials
    (failures contribute nothing to the reduction).
    """

    probe_index: int
    trial_index: int
    epsilon_achieved: float
    satisfied: bool
    us: np.ndarray | None
    vs: np.ndarray | None
    p_old: np.ndarray | None
    p_new: np.ndarray | None
    entropies: np.ndarray | None
    obfuscated: np.ndarray | None


def run_trial(
    graph: UncertainGraph,
    config,
    context,
    sigma: float,
    probe_index: int,
    trial_index: int,
    entropy: int,
    cache: DegreeUncertaintyCache,
) -> TrialResult:
    """One GenObf trial on its own deterministic stream.

    Selection, noise splitting, perturbation and the (k, epsilon) check
    mirror the sequential Algorithm 3 loop body; the candidate is
    described by delta arrays shared between the incremental checker
    (:meth:`DegreeUncertaintyCache.check_edge_arrays`) and the eventual
    materialization (:func:`~repro.ugraph.operations.apply_edge_updates`
    in :func:`reduce_probe`).  The checker's report equals
    :func:`~repro.privacy.check_obfuscation` of the materialized
    candidate bit for bit (``tests/test_genobf.py``).
    """
    rng = trial_generator(entropy, probe_index, trial_index)
    failure = TrialResult(
        probe_index, trial_index, FAILURE_EPSILON, False,
        None, None, None, None, None, None,
    )
    pairs = select_candidate_edges(
        graph, context.weights, config.size_multiplier, seed=rng
    )
    if len(pairs) == 0:
        return failure
    us, vs = pairs.T
    current = graph.pair_probabilities(us, vs)
    scales = _edge_noise_scales(us, vs, context.weights, sigma)
    perturbed = perturb_probabilities(
        current,
        scales,
        mode=config.perturbation_mode,
        white_noise=config.white_noise,
        seed=rng,
    )
    report = cache.check_edge_arrays(
        us, vs, current, perturbed, config.k, config.epsilon,
        knowledge=context.knowledge,
    )
    satisfied = bool(report.satisfied)
    return TrialResult(
        probe_index,
        trial_index,
        float(report.epsilon_achieved),
        satisfied,
        us,
        vs,
        current,
        perturbed,
        report.entropies if satisfied else None,
        report.obfuscated if satisfied else None,
    )


def reduce_probe(
    graph: UncertainGraph, config, sigma: float, results
) -> GenObfOutcome:
    """Fold one probe's trial results into a :class:`GenObfOutcome`.

    ``results`` must be in trial-index order; the winner is the first
    satisfying trial with the strictly lowest achieved epsilon -- the
    exact tie-break the sequential loop applies -- and only the winner
    is materialized into a graph.
    """
    best: TrialResult | None = None
    best_epsilon = FAILURE_EPSILON
    for result in results:
        if result.satisfied and result.epsilon_achieved < best_epsilon:
            best_epsilon = result.epsilon_achieved
            best = result
    if best is None:
        return GenObfOutcome(
            sigma=float(sigma),
            epsilon_achieved=float(FAILURE_EPSILON),
            graph=None,
            report=None,
            n_trials=config.n_trials,
        )
    candidate = apply_edge_updates(graph, best.us, best.vs, best.p_new)
    report = ObfuscationReport(
        k=config.k,
        epsilon=config.epsilon,
        entropies=best.entropies,
        obfuscated=best.obfuscated,
        epsilon_achieved=best.epsilon_achieved,
    )
    return GenObfOutcome(
        sigma=float(sigma),
        epsilon_achieved=float(best.epsilon_achieved),
        graph=candidate,
        report=report,
        n_trials=config.n_trials,
    )


class TrialEngine:
    """Common state and the serial ladder walk; backends override probes.

    Parameters
    ----------
    graph, config, context:
        The run's base graph, configuration and sigma-independent
        selection invariants.
    cache:
        The run's :class:`DegreeUncertaintyCache`; built here when none
        is passed.
    entropy:
        Per-run root entropy of the trial streams (see
        :func:`trial_generator`).
    fault_plan:
        Optional :class:`repro.core.faults.FaultPlan`; consulted (and
        consumed) at dispatch time for every trial, in deterministic
        submission order.  ``None`` disables injection.
    task_timeout:
        Per-trial deadline in seconds.  The process engine enforces it on
        the future wait (:class:`~repro.exceptions.TrialTimeoutError`);
        the serial engine can only check it *after* each trial completes.
        ``None`` (default) waits forever.
    """

    backend = "abstract"

    #: Bounded deadline :meth:`close` grants a pool before escalating.
    shutdown_timeout = DEFAULT_SHUTDOWN_TIMEOUT

    def __init__(self, graph, config, context, cache=None, entropy=0,
                 fault_plan=None, task_timeout=None):
        self._graph = graph
        self._config = config
        self._context = context
        if cache is None:
            cache = DegreeUncertaintyCache(graph, knowledge=context.knowledge)
        self._cache = cache
        self._entropy = int(entropy)
        self._fault_plan = fault_plan
        self._task_timeout = task_timeout
        self._trials_executed = 0
        self._trials_cancelled = 0

    def _draw_fault(self, probe_index: int, trial_index: int):
        if self._fault_plan is None:
            return None
        return self._fault_plan.draw(probe_index, trial_index)

    @property
    def n_workers(self) -> int:
        return 1

    @property
    def trials_executed(self) -> int:
        """Trials whose results entered a reduction."""
        return self._trials_executed

    @property
    def trials_cancelled(self) -> int:
        """Speculative ladder trials cancelled before they ran."""
        return self._trials_cancelled

    def set_privacy(self, k: int, epsilon: float) -> None:
        """Retarget the engine to a new (k, epsilon) without rebuilding.

        Only the privacy target changes; the graph, context, cache and
        any worker pool stay amortized.  Must not be called while a
        probe is in flight.
        """
        self._config = self._config.with_privacy(k, epsilon)
        self._on_mutation()

    def set_entropy(self, entropy: int) -> None:
        """Re-root the per-trial ``SeedSequence`` streams.

        Sweeps draw a fresh entropy per GenObf call (mirroring
        :func:`repro.core.genobf.gen_obf`'s historical consumption
        order), so probe indices may repeat across calls without stream
        collisions.  Must not be called while a probe is in flight.
        """
        self._entropy = int(entropy)
        self._on_mutation()

    def _on_mutation(self) -> None:
        """Hook for backends that must propagate mutated run state."""

    def run_probe(self, probe_index: int, sigma: float) -> GenObfOutcome:
        raise NotImplementedError

    def run_ladder(
        self, sigmas, first_probe_index: int = 0
    ) -> list[GenObfOutcome]:
        """Probe ``sigmas`` in order, stopping at the first success.

        Returns the outcomes of every evaluated probe, ending with the
        first successful one (or every failure when none succeeds).
        Backends may execute later probes speculatively, but the
        returned list -- and therefore the search history -- is
        identical to the sequential walk.
        """
        outcomes: list[GenObfOutcome] = []
        for i, sigma in enumerate(sigmas):
            outcome = self.run_probe(first_probe_index + i, sigma)
            outcomes.append(outcome)
            if outcome.success:
                break
        return outcomes

    def close(self) -> None:
        """Release pool / shared-memory resources (idempotent)."""

    def __enter__(self) -> "TrialEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialTrialEngine(TrialEngine):
    """The in-process reference executor (``trial_backend="serial"``).

    Timeout semantics: a single-threaded engine cannot preempt a running
    trial, so ``task_timeout`` is checked *after* each trial; a trial
    that overran still raises :class:`TrialTimeoutError` (the
    supervisor's retry re-runs the same deterministic coordinates).
    """

    backend = "serial"

    def run_probe(self, probe_index: int, sigma: float) -> GenObfOutcome:
        results = []
        for t in range(self._config.n_trials):
            started = time.perf_counter()
            execute_fault(self._draw_fault(probe_index, t))
            results.append(run_trial(
                self._graph, self._config, self._context, sigma,
                probe_index, t, self._entropy, self._cache,
            ))
            elapsed = time.perf_counter() - started
            if self._task_timeout is not None and elapsed > self._task_timeout:
                raise TrialTimeoutError(
                    f"trial (probe {probe_index}, trial {t}) took "
                    f"{elapsed:.3f}s, over the {self._task_timeout}s deadline"
                )
        self._trials_executed += len(results)
        return reduce_probe(self._graph, self._config, sigma, results)


# --------------------------------------------------------------------- #
# Shared-memory publication
# --------------------------------------------------------------------- #

def _pack_arrays(arrays: dict[str, np.ndarray]):
    """Copy named arrays into ONE shared segment; return (shm, manifest).

    The manifest -- ``(name, dtype, shape, offset)`` tuples -- is the
    only thing pickled to workers; the array payload crosses the process
    boundary through the named segment.  The segment comes from the
    :mod:`repro._segments` registry, so an interpreter death between
    here and :meth:`ProcessTrialEngine.close` is swept at exit instead of
    leaking.
    """
    contiguous = {
        name: np.ascontiguousarray(arr) for name, arr in arrays.items()
    }
    total = sum(arr.nbytes for arr in contiguous.values())
    shm = _segments.create_segment(total, kind=_segments.publish_kind())
    manifest: list[tuple[str, str, tuple, int]] = []
    offset = 0
    for name, arr in contiguous.items():
        if arr.nbytes:
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf,
                              offset=offset)
            view[:] = arr
            del view
        manifest.append((name, arr.dtype.str, arr.shape, offset))
        offset += arr.nbytes
    return shm, manifest


def _unpack_arrays(shm_name: str, manifest) -> dict[str, np.ndarray]:
    """Attach to the published segment and copy every array out.

    Copying lets the worker detach immediately, so the parent's
    ``close()``/``unlink()`` never races a live view.
    """
    shm = _segments.attach_segment(shm_name)
    try:
        out: dict[str, np.ndarray] = {}
        for name, dtype, shape, offset in manifest:
            dtype = np.dtype(dtype)
            if int(np.prod(shape)) == 0:
                out[name] = np.empty(shape, dtype=dtype)
                continue
            view = np.ndarray(shape, dtype=dtype, buffer=shm.buf,
                              offset=offset)
            out[name] = np.array(view, copy=True)
            del view
    finally:
        shm.close()
    return out


def _graph_from_arrays(
    n_nodes: int, src: np.ndarray, dst: np.ndarray, prob: np.ndarray
) -> UncertainGraph:
    """Rebuild a validated parent graph from its published edge arrays.

    The arrays already passed the parent's constructor checks, so the
    per-edge validation loop is replaced by one dict comprehension.
    """
    graph = object.__new__(UncertainGraph)
    graph._n = int(n_nodes)
    graph._src = src
    graph._dst = dst
    graph._prob = prob
    graph._index = {
        pair: i for i, pair in enumerate(zip(src.tolist(), dst.tolist()))
    }
    graph._labels = None
    graph._adjacency_cache = None
    graph._pair_key_cache = None
    return graph


#: Per-worker state installed by :func:`_init_trial_worker`.
_WORKER_STATE: dict | None = None


def _init_trial_worker(
    shm_name: str, manifest, n_nodes: int, config, entropy: int,
    poison_attach: bool = False,
) -> None:
    """Pool initializer: attach, rebuild the run invariants, detach.

    Runs once per worker process.  The published base pmf matrix skips
    the per-vertex DP via :meth:`DegreeUncertaintyCache.from_base_matrix`.
    ``poison_attach`` is the fault-injection hook: the initializer dies
    before touching the segment, so the parent's first dispatched wave
    observes a ``BrokenProcessPool`` -- the signature of a bad shm
    attach.
    """
    global _WORKER_STATE
    from .genobf import SelectionContext

    if poison_attach:
        raise InjectedFault(
            "injected shm-attach poisoning (fault plan): worker refused "
            f"to attach segment {shm_name}"
        )
    arrays = _unpack_arrays(shm_name, manifest)
    graph = _graph_from_arrays(
        n_nodes, arrays["edge_src"], arrays["edge_dst"], arrays["edge_prob"]
    )
    context = SelectionContext(
        uniqueness=arrays["uniqueness"],
        vertex_relevance=arrays["vertex_relevance"],
        excluded=arrays["excluded"],
        weights=arrays["weights"],
        knowledge=arrays["knowledge"],
    )
    _WORKER_STATE = {
        "graph": graph,
        "config": config,
        "context": context,
        "cache": DegreeUncertaintyCache.from_base_matrix(
            graph, arrays["base_pmf"], knowledge=arrays["knowledge"]
        ),
        "entropy": int(entropy),
        "configs": {},
    }


def _trial_task(payload) -> TrialResult:
    """Module-level (picklable) task: one trial against the worker state.

    ``overrides`` is ``None`` on the single-run path (the worker-state
    defaults apply) or an ``(entropy, k, epsilon)`` tuple when a sweep
    retargeted the engine after pool start-up; retargeted configs are
    memoized per worker so each (k, epsilon) pays ``with_privacy``'s
    validation once.  An optional fifth element carries an injected
    :class:`~repro.core.faults.FaultAction` (decided parent-side).
    """
    probe_index, trial_index, sigma, overrides, *rest = payload
    execute_fault(rest[0] if rest else None)
    state = _WORKER_STATE
    config = state["config"]
    entropy = state["entropy"]
    if overrides is not None:
        entropy, k, epsilon = overrides
        config = state["configs"].get((k, epsilon))
        if config is None:
            config = state["config"].with_privacy(k, epsilon)
            state["configs"][(k, epsilon)] = config
    return run_trial(
        state["graph"], config, state["context"], sigma,
        probe_index, trial_index, entropy, state["cache"],
    )


class ProcessTrialEngine(TrialEngine):
    """Persistent per-run worker pool over shared-memory base state.

    The pool and the published segment live for the whole anonymization
    run (every sigma probe reuses them); :meth:`close` -- called by
    ``Chameleon.anonymize``'s ``finally`` even when a worker crashes --
    shuts the pool down and unlinks the segment.  :meth:`run_ladder`
    dispatches the whole bracketing ladder as one speculative task wave.
    """

    backend = "process"

    def __init__(
        self, graph, config, context, cache=None, entropy=0,
        n_workers: int | None = None, fault_plan=None, task_timeout=None,
    ):
        super().__init__(graph, config, context, cache=cache, entropy=entropy,
                         fault_plan=fault_plan, task_timeout=task_timeout)
        self._n_workers = resolve_worker_count(
            n_workers if n_workers is not None else config.n_workers
        )
        self._shm = None
        self._pool: ProcessPoolExecutor | None = None
        arrays = {
            "edge_src": graph.edge_src,
            "edge_dst": graph.edge_dst,
            "edge_prob": graph.edge_probabilities,
            "uniqueness": context.uniqueness,
            "vertex_relevance": context.vertex_relevance,
            "excluded": context.excluded,
            "weights": context.weights,
            "knowledge": context.knowledge,
            "base_pmf": self._cache.base_matrix,
        }
        self._shm, manifest = _pack_arrays(arrays)
        # None until set_privacy/set_entropy retargets the run; then the
        # (entropy, k, epsilon) triple rides along in every task payload,
        # overriding the worker-state defaults baked in at pool start-up.
        self._overrides: tuple[int, int, float] | None = None
        poison = fault_plan.take_shm_poison() if fault_plan else False
        try:
            self._pool = ProcessPoolExecutor(
                max_workers=self._n_workers,
                initializer=_init_trial_worker,
                initargs=(self._shm.name, manifest, graph.n_nodes, config,
                          self._entropy, poison),
            )
        except BaseException:
            self.close()
            raise

    @property
    def n_workers(self) -> int:
        return self._n_workers

    def _on_mutation(self) -> None:
        self._overrides = (self._entropy, self._config.k,
                           self._config.epsilon)

    def _submit_probe(self, probe_index: int, sigma: float):
        overrides = self._overrides
        return [
            self._pool.submit(
                _trial_task,
                (probe_index, t, sigma, overrides,
                 self._draw_fault(probe_index, t)),
            )
            for t in range(self._config.n_trials)
        ]

    def _await(self, future, probe_index: int, trial_index: int):
        """One future's result under the per-task deadline."""
        try:
            return future.result(timeout=self._task_timeout)
        except _FuturesTimeout:
            raise TrialTimeoutError(
                f"trial (probe {probe_index}, trial {trial_index}) exceeded "
                f"its {self._task_timeout}s deadline on the "
                f"{self.backend!r} backend"
            ) from None

    def run_probe(self, probe_index: int, sigma: float) -> GenObfOutcome:
        futures = self._submit_probe(probe_index, sigma)
        try:
            results = [
                self._await(future, probe_index, t)
                for t, future in enumerate(futures)
            ]
        except BaseException:
            self._trials_cancelled += sum(
                1 for future in futures if future.cancel()
            )
            raise
        self._trials_executed += len(results)
        return reduce_probe(self._graph, self._config, sigma, results)

    def run_ladder(
        self, sigmas, first_probe_index: int = 0
    ) -> list[GenObfOutcome]:
        """Dispatch the whole ladder as one task wave.

        Probe levels are predetermined, so every probe's trials are
        submitted up front (probe-major order keeps the decision path
        first in the queue); as soon as a probe succeeds, outstanding
        speculative trials are cancelled and their results discarded --
        the returned outcome list matches the sequential walk exactly.
        """
        sigmas = list(sigmas)
        n_trials = self._config.n_trials
        futures = []
        for i, sigma in enumerate(sigmas):
            futures.extend(self._submit_probe(first_probe_index + i, sigma))
        outcomes: list[GenObfOutcome] = []
        try:
            for i, sigma in enumerate(sigmas):
                results = [
                    self._await(futures[i * n_trials + t], first_probe_index + i, t)
                    for t in range(n_trials)
                ]
                self._trials_executed += len(results)
                outcomes.append(
                    reduce_probe(self._graph, self._config, sigma, results)
                )
                if outcomes[-1].success:
                    break
        finally:
            self._trials_cancelled += sum(
                1 for future in futures if future.cancel()
            )
        return outcomes

    def close(self) -> None:
        """Shut down the pool (bounded) and unlink the published segment.

        The executor's manager thread is the one reaper of the workers.
        Joining them here as well would race its ``waitpid``: a worker
        it had already reaped would then look alive and be killed by a
        pid the kernel may have reused.  So ``close`` gives that thread
        ``shutdown_timeout`` seconds, and only if it is still running at
        the deadline -- a wedged or fault-delayed trial must not hang
        interpreter exit -- kills the workers that have not exited and
        lets the manager reap them.
        """
        if self._pool is not None:
            pool, self._pool = self._pool, None
            manager = getattr(pool, "_executor_manager_thread", None)
            workers = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            if manager is not None:
                manager.join(self.shutdown_timeout)
            if manager is not None and manager.is_alive():
                # A worker whose sentinel is not ready has not exited,
                # so nobody has reaped it and its pid is still its own.
                exited = set(_wait_sentinels([w.sentinel for w in workers], 0))
                survivors = [w for w in workers if w.sentinel not in exited]
                for worker in survivors:
                    worker.kill()
                if survivors:
                    logger.warning(
                        "pool shutdown deadline (%.1fs) expired; killed %d "
                        "worker process(es): %s", self.shutdown_timeout,
                        len(survivors), [w.pid for w in survivors],
                    )
                manager.join(1.0)  # it reaps the corpses, no zombies
        if self._shm is not None:
            shm, self._shm = self._shm, None
            _segments.release_segment(shm)

    def __del__(self):  # best-effort backstop; close() is the contract
        try:
            self.close()
        except (OSError, ValueError, RuntimeError) as exc:
            # Interpreter-teardown close can fail (pool machinery or the
            # shm file already gone); say so instead of hiding it.
            logger.warning("ProcessTrialEngine.__del__ cleanup failed: %s",
                           exc)


def create_trial_engine(
    graph, config, context, cache=None, entropy=0,
    trial_backend: str | None = None, n_workers: int | None = None,
    fault_plan=None, task_timeout=None,
) -> TrialEngine:
    """Build the engine ``trial_backend`` (default: the config's) names."""
    if trial_backend is None:
        trial_backend = config.trial_backend
    if trial_backend not in TRIAL_BACKENDS:
        raise ConfigurationError(
            f"unknown trial backend {trial_backend!r}; expected one of "
            f"{TRIAL_BACKENDS}"
        )
    if trial_backend == "process":
        return ProcessTrialEngine(
            graph, config, context, cache=cache, entropy=entropy,
            n_workers=n_workers, fault_plan=fault_plan,
            task_timeout=task_timeout,
        )
    return SerialTrialEngine(
        graph, config, context, cache=cache, entropy=entropy,
        fault_plan=fault_plan, task_timeout=task_timeout,
    )
