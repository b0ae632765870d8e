"""Multi-target anonymization sweeps with shared precomputation.

Parameter studies (this repo's benchmark harness, the paper's k-sweeps,
any practitioner tuning a release) anonymize the *same* graph at many
privacy levels.  The expensive per-graph invariants -- uniqueness scores
and reliability relevance -- do not depend on ``k``, so a sweep that
recomputes them per run wastes most of its time.

:func:`sweep_anonymize` computes the selection context once per
(graph, variant) and reuses it across every k, delegating the sigma
search to the same code path as :class:`repro.core.Chameleon`.  One
trial engine (:class:`repro.core.parallel.SerialTrialEngine`) is
likewise amortized across every k: its degree-pmf cache is built once,
and :meth:`~repro.core.parallel.SerialTrialEngine.set_privacy` /
:meth:`~repro.core.parallel.SerialTrialEngine.set_entropy` retarget it
per run without a rebuild.  Per GenObf call the sweep draws one entropy
value from the sweep generator -- the exact consumption order of the
historical per-call :func:`repro.core.genobf.gen_obf` path -- so
results are bit-identical to the unamortized sweep.
"""

from __future__ import annotations

import time

from .._rng import as_generator
from ..exceptions import ConfigurationError
from ..privacy.degree_distribution import expected_degree_knowledge
from ..ugraph.graph import UncertainGraph
from ..ugraph.validation import validate_graph, validate_privacy_parameters
from .chameleon import _sigma_ladder
from .config import variant_config
from .faults import FaultPlan
from .genobf import build_selection_context
from .parallel import SerialTrialEngine
from .resilience import RetryPolicy, SupervisedTrialEngine
from .result import AnonymizationResult

__all__ = ["sweep_anonymize"]


def _search_sigma(engine, config, rng):
    """Bracketing + bisection identical to Chameleon.anonymize.

    ``engine`` must already be retargeted to ``config``'s (k, epsilon);
    each probe re-roots the trial streams with a fresh entropy draw
    (mirroring one ``gen_obf`` call) and reuses probe index 0, exactly
    as the historical per-call path did.
    """
    history: list[tuple[float, float]] = []
    calls = 0

    def run(sigma):
        nonlocal calls
        calls += 1
        engine.set_entropy(int(rng.integers(0, 2**63 - 1)))
        outcome = engine.run_probe(0, sigma)
        history.append((outcome.sigma, outcome.epsilon_achieved))
        return outcome

    probes = _sigma_ladder(config)
    best = None
    for sigma in probes:
        outcome = run(sigma)
        if outcome.success:
            best = outcome
            sigma_high = sigma
            break
    if best is None:
        return None, max(probes), history, calls

    sigma_low = 0.0
    while sigma_high - sigma_low > config.sigma_tolerance:
        sigma_mid = (sigma_high + sigma_low) / 2.0
        outcome = run(sigma_mid)
        if outcome.success:
            sigma_high = sigma_mid
            best = outcome
        else:
            sigma_low = sigma_mid
    return best, sigma_high, history, calls


def sweep_anonymize(
    graph: UncertainGraph,
    k_values,
    epsilon: float,
    method: str = "rsme",
    seed=None,
    observer=None,
    **config_overrides,
) -> dict[int, AnonymizationResult]:
    """Anonymize one graph at several privacy levels, sharing context.

    Parameters
    ----------
    graph:
        The uncertain graph.
    k_values:
        Iterable of k targets (each validated against the graph).
    epsilon:
        Shared tolerance.
    method:
        Chameleon variant name.
    observer:
        Optional callable receiving ``{"type": "k_done", "k": k,
        "index": i, "total": len(ks), "success": ...}`` after each
        completed privacy level; exceptions it raises propagate (a
        service's cancellation hook).
    config_overrides:
        Forwarded to :func:`variant_config`.

    Returns ``{k: AnonymizationResult}`` in the order given.  Uniqueness
    and reliability relevance are computed once; note the exclusion set
    depends only on ``epsilon``, so sharing is exact (not approximate).
    The trial engine and its degree-pmf cache are also built once and
    retargeted per k.
    """
    ks = [int(k) for k in k_values]
    if not ks:
        raise ConfigurationError("k_values must be non-empty")
    validate_graph(graph)
    for k in ks:
        validate_privacy_parameters(graph, k, epsilon)
    rng = as_generator(seed)
    knowledge = expected_degree_knowledge(graph)

    base_config = variant_config(method, k=ks[0], epsilon=epsilon,
                                 **config_overrides)
    context = build_selection_context(graph, base_config, knowledge, seed=rng)

    results: dict[int, AnonymizationResult] = {}
    # The amortized engine runs supervised (bounded retry) like the
    # single-run path; checkpointing is a per-run feature and does not
    # apply to sweeps.
    fault_plan = FaultPlan.from_config(base_config)

    def engine_factory():
        return SerialTrialEngine(
            graph, base_config, context, fault_plan=fault_plan,
            task_timeout=base_config.trial_timeout,
        )

    engine = SupervisedTrialEngine(
        engine_factory, RetryPolicy.from_config(base_config)
    )
    try:
        for index, k in enumerate(ks):
            config = base_config.with_privacy(k, epsilon)
            engine.set_privacy(k, epsilon)
            started = time.perf_counter()
            best, sigma_high, history, calls = _search_sigma(
                engine, config, rng
            )
            elapsed = time.perf_counter() - started
            if best is None:
                results[k] = AnonymizationResult(
                    graph=None, method=config.name, k=k, epsilon=epsilon,
                    sigma=float(sigma_high), epsilon_achieved=1.0, report=None,
                    n_genobf_calls=calls, sigma_history=tuple(history),
                    elapsed_seconds=elapsed,
                )
            else:
                results[k] = AnonymizationResult(
                    graph=best.graph, method=config.name, k=k, epsilon=epsilon,
                    sigma=best.sigma, epsilon_achieved=best.epsilon_achieved,
                    report=best.report, n_genobf_calls=calls,
                    sigma_history=tuple(history), elapsed_seconds=elapsed,
                )
            if observer is not None:
                observer({
                    "type": "k_done",
                    "k": k,
                    "index": index,
                    "total": len(ks),
                    "success": results[k].success,
                })
    finally:
        engine.close()
    return results
