"""The Chameleon anonymizer: noise-level search skeleton (Algorithm 1).

Chameleon wraps GenObf in a search for the *smallest* noise parameter
``sigma`` that still yields a (k, epsilon)-obfuscation:

1. **Bracketing**: starting from ``sigma_initial``, probe alternating
   ``2^i`` and ``2^-i`` multiples until GenObf succeeds (the paper only
   doubles upward; on uncertain graphs excessive noise can also fail --
   see EXPERIMENTS.md deviation 4).  Exhausting both directions is a
   hard failure.
2. **Bisection**: shrink ``[sigma_l, sigma_u]`` until the bracket is
   narrower than ``sigma_tolerance``, keeping the best (smallest-sigma)
   successful graph seen.

Because smaller ``sigma`` means less perturbation, the accepted output is
the highest-utility obfuscation the randomized search can certify.

Use :func:`anonymize` for a one-call API or :class:`Chameleon` when the
same configuration is applied to several graphs.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from .._rng import as_generator
from ..exceptions import ObfuscationError
from ..privacy.degree_distribution import expected_degree_knowledge
from ..privacy.incremental import DegreeUncertaintyCache
from ..reliability.worldstore import (
    DEFAULT_PAIR_SAMPLE,
    FULL_MATRIX_LIMIT,
    WorldStore,
    graph_delta_rows,
    sample_vertex_pairs,
)
from ..ugraph.graph import UncertainGraph
from ..ugraph.validation import validate_graph, validate_privacy_parameters
from .config import ChameleonConfig, variant_config
from .faults import FaultPlan
from .genobf import build_selection_context
from .parallel import SerialTrialEngine
from .resilience import RetryPolicy, SigmaSearchJournal, SupervisedTrialEngine
from .result import AnonymizationResult, GenObfOutcome

__all__ = ["Chameleon", "anonymize"]

#: Smallest noise level the bracketing phase probes downward to.
_SIGMA_FLOOR = 1e-4

logger = logging.getLogger("repro.core.chameleon")


def _sigma_ladder(config: ChameleonConfig) -> list[float]:
    """Bracketing probe levels, shared by ``anonymize`` and the sweeps.

    ``sigma_initial``, then alternating ``2^i`` and ``2^-i`` multiples
    of it within ``[_SIGMA_FLOOR, sigma_max]``.  The last probe is the
    *smallest* downward one, so a search that exhausts the ladder
    reports ``max(probes)``, the noise range it actually tried.
    """
    probes = [config.sigma_initial]
    factor = 2.0
    while (
        config.sigma_initial * factor <= config.sigma_max
        or config.sigma_initial / factor >= _SIGMA_FLOOR
    ):
        if config.sigma_initial * factor <= config.sigma_max:
            probes.append(config.sigma_initial * factor)
        if config.sigma_initial / factor >= _SIGMA_FLOOR:
            probes.append(config.sigma_initial / factor)
        factor *= 2.0
    return probes


class Chameleon:
    """Reusable anonymizer bound to one :class:`ChameleonConfig`.

    Example
    -------
    >>> from repro.core import Chameleon, variant_config
    >>> anonymizer = Chameleon(variant_config("rsme", k=10, epsilon=0.05))
    >>> result = anonymizer.anonymize(graph)      # doctest: +SKIP
    >>> result.success, result.sigma              # doctest: +SKIP
    """

    def __init__(self, config: ChameleonConfig):
        self._config = config

    @property
    def config(self) -> ChameleonConfig:
        return self._config

    def anonymize(
        self,
        graph: UncertainGraph,
        knowledge: np.ndarray | None = None,
        seed=None,
        *,
        degree_cache: DegreeUncertaintyCache | None = None,
        observer=None,
    ) -> AnonymizationResult:
        """Run the full Algorithm 1 search on ``graph``.

        Parameters
        ----------
        graph:
            The original uncertain graph.
        knowledge:
            Adversary degree knowledge; defaults to the rounded expected
            degrees of ``graph`` (the paper's attack model).
        seed:
            Overrides ``config.seed`` for this run.
        degree_cache:
            Pre-built :class:`DegreeUncertaintyCache` for ``graph``.
            Building the cache is the O(n * d^2) dynamic program a warm
            service wants to pay once per dataset; the cache's output is
            bit-identical to an internally built one, so reuse cannot
            change results.  It must describe this exact graph and
            knowledge vector -- anything else raises.
        observer:
            Optional callable receiving a progress event dict after every
            sigma probe (``{"type": "probe", "probe": i, "sigma": ...,
            "epsilon_achieved": ..., "success": ...}``).  Exceptions it
            raises propagate, which is how a service cancels a running
            job at a probe boundary.

        Returns an :class:`AnonymizationResult`; ``result.success`` is
        False only when even ``sigma_max`` noise cannot reach the target.
        """
        config = self._config
        validate_graph(graph)
        validate_privacy_parameters(graph, config.k, config.epsilon)
        rng = as_generator(seed if seed is not None else config.seed)
        if knowledge is None:
            knowledge = expected_degree_knowledge(graph)

        started = time.perf_counter()
        context = build_selection_context(graph, config, knowledge, seed=rng)
        # Root entropy of the per-trial SeedSequence streams (see
        # repro.core.parallel): drawn once from the run generator, so the
        # whole search stays seed-reproducible while a retried or resumed
        # trial reproduces its stream exactly.
        trial_entropy = int(rng.integers(0, 2**63 - 1))
        # One degree-pmf cache serves every GenObf trial of every sigma
        # probe: all candidates are deltas against the same base graph.
        if degree_cache is not None:
            if degree_cache.graph is not graph or not np.array_equal(
                degree_cache.knowledge, context.knowledge
            ):
                raise ObfuscationError(
                    "degree_cache was built for a different graph or "
                    "knowledge vector than this run's"
                )
            cache = degree_cache
        else:
            cache = DegreeUncertaintyCache(graph, knowledge=context.knowledge)
        history: list[tuple[float, float]] = []
        calls = 0

        # Utility verification: one persistent CRN world store of the
        # input graph scores every successful candidate's reliability
        # discrepancy incrementally -- only worlds where a perturbed
        # edge's realization flipped are relabeled.
        store: WorldStore | None = None
        utility_pairs = None
        utility_base_counts = None
        utility_history: list[tuple[float, float]] = []
        utility_scores: dict[int, float] = {}
        if config.utility_samples > 0:
            store = WorldStore(
                graph, config.utility_samples,
                seed=int(rng.integers(0, 2**63 - 1)),
                memory_budget=config.world_memory_budget,
            )
            if graph.n_nodes > FULL_MATRIX_LIMIT:
                # One fixed pair set scores every candidate, keeping the
                # sigma search's utility signal comparable across probes.
                utility_pairs = sample_vertex_pairs(
                    graph.n_nodes, DEFAULT_PAIR_SAMPLE, seed=rng
                )

        def score_utility(probe_index: int, outcome: GenObfOutcome) -> None:
            nonlocal utility_base_counts
            if store is None or outcome.graph is None:
                return
            if utility_pairs is not None and utility_base_counts is None:
                utility_base_counts = store.base_pair_equal_counts(utility_pairs)
            view = store.derive(graph_delta_rows(graph, outcome.graph))
            value = store.discrepancy(
                view, pairs=utility_pairs, base_counts=utility_base_counts
            )
            # Keyed by the stable probe counter: id(outcome) is only
            # unique while the outcome object is alive, so a recycled id
            # could silently attach another probe's score to the winner.
            utility_scores[probe_index] = value
            utility_history.append((outcome.sigma, value))
            logger.debug(
                "utility sigma=%.5g -> Delta=%.6g (%d/%d dirty worlds)",
                outcome.sigma, value, view.n_dirty, store.n_samples,
            )

        logger.debug(
            "anonymize start: method=%s k=%d eps=%g n=%d |E|=%d",
            config.name, config.k, config.epsilon,
            graph.n_nodes, graph.n_edges,
        )

        def record(probe_index: int, outcome: GenObfOutcome) -> GenObfOutcome:
            nonlocal calls
            calls += 1
            history.append((outcome.sigma, outcome.epsilon_achieved))
            score_utility(probe_index, outcome)
            logger.debug(
                "GenObf sigma=%.5g -> eps_hat=%.4g (%s)",
                outcome.sigma, outcome.epsilon_achieved,
                "ok" if outcome.success else "fail",
            )
            if observer is not None:
                observer({
                    "type": "probe",
                    "probe": probe_index,
                    "sigma": float(outcome.sigma),
                    "epsilon_achieved": float(outcome.epsilon_achieved),
                    "success": bool(outcome.success),
                })
            return outcome

        # Phase 1 -- exponential bracketing (Algorithm 1, lines 1-5),
        # extended to probe in BOTH directions.  The paper doubles sigma on
        # failure, which assumes privacy is monotone in noise; on uncertain
        # graphs the max-entropy rule reflects past r = 1/2 (p~ -> 1 - p),
        # so excessive noise can also fail and the feasible region is a
        # band.  We alternate 2^i and 2^-i multiples of sigma_initial until
        # one succeeds (see DESIGN.md, documented deviations).
        best: GenObfOutcome | None = None
        best_probe = -1
        sigma_high = config.sigma_initial
        probes = _sigma_ladder(config)

        # Supervised execution: retryable failures (trial timeouts,
        # injected faults) rebuild the engine from this factory and
        # re-run the probe -- bit-identically, since trials are pure
        # functions of their coordinates.
        fault_plan = FaultPlan.from_config(config)
        policy = RetryPolicy.from_config(config)
        journal = (
            SigmaSearchJournal(
                config.checkpoint_path, graph=graph, config=config,
                context=context, entropy=trial_entropy, resume=config.resume,
            )
            if config.checkpoint_path is not None
            else None
        )

        def engine_factory():
            return SerialTrialEngine(
                graph, config, context, cache=cache, entropy=trial_entropy,
                fault_plan=fault_plan, task_timeout=config.trial_timeout,
            )

        engine = SupervisedTrialEngine(engine_factory, policy, journal=journal)
        search_started = time.perf_counter()
        try:
            outcomes = engine.run_ladder(probes, first_probe_index=0)
            for i, outcome in enumerate(outcomes):
                record(i, outcome)
            if outcomes and outcomes[-1].success:
                best = outcomes[-1]
                best_probe = len(outcomes) - 1
                sigma_high = best.sigma
            if best is None:
                search_seconds = time.perf_counter() - search_started
                elapsed = time.perf_counter() - started
                logger.warning(
                    "anonymize FAILED: no (k=%d, eps=%g)-obfuscation at any "
                    "probed sigma (%d GenObf calls)",
                    config.k, config.epsilon, calls,
                )
                return AnonymizationResult(
                    graph=None,
                    method=config.name,
                    k=config.k,
                    epsilon=config.epsilon,
                    sigma=float(max(probes)),
                    epsilon_achieved=1.0,
                    report=None,
                    n_genobf_calls=calls,
                    sigma_history=tuple(history),
                    elapsed_seconds=elapsed,
                    search_seconds=search_seconds,
                    utility_history=tuple(utility_history),
                    trial_retries=engine.retry_count,
                    resumed_probes=engine.resumed_probes,
                )
            sigma_low = 0.0

            # Phase 2 -- bisection (Algorithm 1, lines 6-11).  Probe
            # indices continue past the ladder's, keeping every trial
            # stream unique within the run.
            probe_counter = len(outcomes)
            while sigma_high - sigma_low > config.sigma_tolerance:
                sigma_mid = (sigma_high + sigma_low) / 2.0
                outcome = record(
                    probe_counter, engine.run_probe(probe_counter, sigma_mid)
                )
                if outcome.success:
                    sigma_high = sigma_mid
                    best = outcome
                    best_probe = probe_counter
                else:
                    sigma_low = sigma_mid
                probe_counter += 1
            search_seconds = time.perf_counter() - search_started
        finally:
            engine.close()

        elapsed = time.perf_counter() - started
        assert best is not None and best.graph is not None
        logger.info(
            "anonymize ok: method=%s k=%d sigma=%.5g eps_hat=%.4g "
            "(%d GenObf calls, %.2fs search %.2fs)",
            config.name, config.k, best.sigma, best.epsilon_achieved,
            calls, elapsed, search_seconds,
        )
        return AnonymizationResult(
            graph=best.graph,
            method=config.name,
            k=config.k,
            epsilon=config.epsilon,
            sigma=best.sigma,
            epsilon_achieved=best.epsilon_achieved,
            report=best.report,
            n_genobf_calls=calls,
            sigma_history=tuple(history),
            elapsed_seconds=elapsed,
            search_seconds=search_seconds,
            utility_discrepancy=utility_scores.get(best_probe),
            utility_history=tuple(utility_history),
            trial_retries=engine.retry_count,
            resumed_probes=engine.resumed_probes,
        )


def anonymize(
    graph: UncertainGraph,
    k: int,
    epsilon: float,
    method: str = "rsme",
    seed=None,
    degree_cache: DegreeUncertaintyCache | None = None,
    observer=None,
    **config_overrides,
) -> AnonymizationResult:
    """One-call anonymization with a named Chameleon variant.

    Parameters
    ----------
    graph:
        The uncertain graph to anonymize.
    k, epsilon:
        The (k, epsilon)-obfuscation target.
    method:
        ``"rsme"`` (full Chameleon), ``"rs"`` or ``"me"`` (ablations); for
        the Rep-An baseline see :func:`repro.baselines.rep_an`.
    seed:
        Reproducibility seed.
    degree_cache, observer:
        Passed through to :meth:`Chameleon.anonymize` (warm checker
        state and per-probe progress events).
    config_overrides:
        Any other :class:`ChameleonConfig` field.
    """
    config = variant_config(
        method, k=k, epsilon=epsilon, seed=None, **config_overrides
    )
    return Chameleon(config).anonymize(
        graph, seed=seed, degree_cache=degree_cache, observer=observer
    )
