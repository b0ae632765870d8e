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
from .chameleon import _search_sigma
from .config import variant_config
from .genobf import build_selection_context
from .parallel import SerialTrialEngine
from .result import AnonymizationResult

__all__ = ["sweep_anonymize"]


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
    engine = SerialTrialEngine(graph, base_config, context)

    def probe(_index: int, sigma: float):
        # Each GenObf call re-roots the trial streams with a fresh
        # entropy draw and reuses probe index 0, exactly as the
        # historical per-call gen_obf path did.
        engine.set_entropy(int(rng.integers(0, 2**63 - 1)))
        return engine.run_probe(0, sigma)

    for index, k in enumerate(ks):
        config = base_config.with_privacy(k, epsilon)
        engine.set_privacy(k, epsilon)
        started = time.perf_counter()
        best, history = _search_sigma(config, probe)
        results[k] = AnonymizationResult(
            graph=best.graph, method=config.name, k=k, epsilon=epsilon,
            sigma=best.sigma, epsilon_achieved=best.epsilon_achieved,
            report=best.report, n_genobf_calls=len(history),
            sigma_history=tuple(history),
            elapsed_seconds=time.perf_counter() - started,
        )
        if observer is not None:
            observer({
                "type": "k_done",
                "k": k,
                "index": index,
                "total": len(ks),
                "success": results[k].success,
            })
    return results
