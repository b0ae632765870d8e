"""GenObf trial execution for the sigma search (Algorithms 1 and 3).

Each sigma probe runs up to ``t`` randomized GenObf trials -- the trial
loop of Boldi et al.'s obfuscation scheme -- and keeps the best
satisfying candidate; a trial that reaches epsilon-hat 0 ends the loop,
since no later trial can beat it.  This module supplies that loop:

* :func:`run_trial` -- ONE GenObf trial (candidate selection, noise
  split, perturbation, (k, epsilon) check) producing a compact
  :class:`TrialResult`: the candidate's delta arrays plus the check
  report's arrays, never a materialized graph.
* :func:`reduce_probe` -- folds one probe's results and materializes
  only the winner.
* :class:`SerialTrialEngine` -- runs the trials of each probe in
  process; the bracketing and bisection around it live in
  :mod:`repro.core.chameleon`.  Its
  :meth:`~SerialTrialEngine.set_privacy` and
  :meth:`~SerialTrialEngine.set_entropy` let multi-target sweeps
  (:func:`repro.core.sweep.sweep_anonymize`) amortize ONE engine and
  its degree-pmf cache across every k value.

Determinism contract
--------------------
Every trial draws from its own :class:`numpy.random.SeedSequence`
stream, keyed by ``(probe_index, trial_index)`` under one per-run
entropy value (:func:`trial_generator`).  A trial's randomness therefore
depends only on its coordinates -- not on how often or in what order it
runs -- and :func:`reduce_probe` folds results with the sequential
loop's exact ``(epsilon, trial index)`` tie-break.  That is what lets
a resumed run replay a journaled probe (:mod:`repro.core.resilience`)
bit for bit.

The module keeps its name from when it also held a process pool: the
pipeline benchmark's tracer patches ``SerialTrialEngine.run_probe`` and
this module's ``select_candidate_edges``, ``perturb_probabilities`` and
``apply_edge_updates`` under ``repro.core.parallel``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..privacy.incremental import DegreeUncertaintyCache
from ..privacy.obfuscation import ObfuscationReport
from ..ugraph.graph import UncertainGraph
from ..ugraph.operations import apply_edge_updates
from .noise import perturb_probabilities
from .result import FAILURE_EPSILON, GenObfOutcome
from .selection import select_candidate_edges

__all__ = [
    "TrialResult",
    "trial_generator",
    "run_trial",
    "reduce_probe",
    "SerialTrialEngine",
]


def trial_generator(
    entropy: int, probe_index: int, trial_index: int
) -> np.random.Generator:
    """The stream of trial ``(probe_index, trial_index)`` under ``entropy``.

    Constructing the child :class:`~numpy.random.SeedSequence` directly
    from its spawn key makes the stream a pure function of the trial's
    coordinates: a resumed trial reproduces it bitwise.
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
    :class:`~repro.ugraph.UncertainGraph` -- so a losing trial costs no
    graph copy.  ``us``/``vs``/``p_old``/``p_new``
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
    )


class SerialTrialEngine:
    """Runs each sigma probe's GenObf trials in process, in trial order.

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
    """

    def __init__(self, graph, config, context, cache=None, entropy=0):
        self._graph = graph
        self._config = config
        self._context = context
        if cache is None:
            cache = DegreeUncertaintyCache(graph, knowledge=context.knowledge)
        self._cache = cache
        self._entropy = int(entropy)

    def set_privacy(self, k: int, epsilon: float) -> None:
        """Retarget the engine to a new (k, epsilon) without rebuilding.

        Only the privacy target changes; the graph, context and cache
        stay amortized.
        """
        self._config = self._config.with_privacy(k, epsilon)

    def set_entropy(self, entropy: int) -> None:
        """Re-root the per-trial ``SeedSequence`` streams.

        Sweeps draw a fresh entropy per GenObf call (mirroring
        :func:`repro.core.genobf.gen_obf`'s historical consumption
        order), so probe indices may repeat across calls without stream
        collisions.
        """
        self._entropy = int(entropy)

    def run_probe(self, probe_index: int, sigma: float) -> GenObfOutcome:
        """Run probe ``probe_index``'s trials at ``sigma`` and reduce them.

        The loop ends at the first satisfying trial with epsilon-hat 0:
        under :func:`reduce_probe`'s strict tie-break no later trial can
        beat it, and trial streams are keyed by coordinates, so skipping
        the rest cannot change the outcome.
        """
        results = []
        for t in range(self._config.n_trials):
            result = run_trial(
                self._graph, self._config, self._context, sigma,
                probe_index, t, self._entropy, self._cache,
            )
            results.append(result)
            if result.satisfied and result.epsilon_achieved == 0.0:
                break
        return reduce_probe(self._graph, self._config, sigma, results)
