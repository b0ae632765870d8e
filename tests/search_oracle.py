"""The exhaustive sigma search as a test oracle for ``anonymize``.

Production :meth:`Chameleon.anonymize` takes two shortcuts: a probe's
trial loop ends at the first trial that reaches epsilon-hat 0, and
utility is scored once, for the accepted candidate.  The oracle takes
neither.  It runs all ``n_trials`` trials of every probe through
:func:`~repro.core.parallel.run_trial` and
:func:`~repro.core.parallel.reduce_probe`, and it scores every
successful probe on one world store, in search order, keeping the
accepted probe's score.  A run equal to the oracle's bit for bit shows
that neither shortcut changes a result.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._rng import as_generator
from repro.core import variant_config
from repro.core.chameleon import _sigma_ladder
from repro.core.genobf import build_selection_context
from repro.core.parallel import reduce_probe, run_trial
from repro.core.result import GenObfOutcome
from repro.privacy import expected_degree_knowledge
from repro.privacy.incremental import DegreeUncertaintyCache
from repro.reliability.worldstore import (
    DEFAULT_PAIR_SAMPLE,
    FULL_MATRIX_LIMIT,
    WorldStore,
    graph_delta_rows,
    sample_vertex_pairs,
)


@dataclass
class OracleRun:
    """The oracle's accepted outcome and everything it computed."""

    best: GenObfOutcome
    sigma_history: tuple[tuple[float, float], ...]
    utility_discrepancy: float | None
    #: Every probe's trial results, in search order.
    trials: list[list]


def oracle_anonymize(graph, k, epsilon, method="rsme", seed=None,
                     **overrides) -> OracleRun:
    """Algorithm 1 with every trial run and every success scored."""
    config = variant_config(method, k=k, epsilon=epsilon, seed=None,
                            **overrides)
    rng = as_generator(seed)
    knowledge = expected_degree_knowledge(graph)
    context = build_selection_context(graph, config, knowledge, seed=rng)
    entropy = int(rng.integers(0, 2**63 - 1))
    cache = DegreeUncertaintyCache(graph, knowledge=context.knowledge)
    store = pairs = None
    if config.utility_samples > 0:
        store = WorldStore(
            graph, config.utility_samples,
            seed=int(rng.integers(0, 2**63 - 1)),
            memory_budget=config.world_memory_budget,
        )
        if graph.n_nodes > FULL_MATRIX_LIMIT:
            pairs = sample_vertex_pairs(
                graph.n_nodes, DEFAULT_PAIR_SAMPLE, seed=rng
            )

    history: list[tuple[float, float]] = []
    trials: list[list] = []
    scores: dict[int, float] = {}

    def probe(sigma: float) -> tuple[GenObfOutcome, int]:
        index = len(history)
        results = [
            run_trial(graph, config, context, sigma, index, t, entropy,
                      cache)
            for t in range(config.n_trials)
        ]
        outcome = reduce_probe(graph, config, sigma, results)
        trials.append(results)
        history.append((outcome.sigma, outcome.epsilon_achieved))
        if store is not None and outcome.success:
            view = store.derive(graph_delta_rows(graph, outcome.graph))
            scores[index] = store.discrepancy(view, pairs=pairs)
        return outcome, index

    ladder = _sigma_ladder(config)
    best = None
    for sigma in ladder:
        outcome, index = probe(sigma)
        if outcome.success:
            best, best_index = outcome, index
            break
    if best is None:
        best = reduce_probe(graph, config, float(max(ladder)), [])
        best_index = -1
    else:
        low, high = 0.0, best.sigma
        while high - low > config.sigma_tolerance:
            mid = (high + low) / 2.0
            outcome, index = probe(mid)
            if outcome.success:
                high, best, best_index = mid, outcome, index
            else:
                low = mid
    return OracleRun(
        best=best,
        sigma_history=tuple(history),
        utility_discrepancy=scores.get(best_index),
        trials=trials,
    )


def early_exit_trial_count(results, n_trials: int) -> int:
    """Trials a probe runs when it stops at the first epsilon-hat 0."""
    for t, result in enumerate(results):
        if result.satisfied and result.epsilon_achieved == 0.0:
            return t + 1
    return n_trials
