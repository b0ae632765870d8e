"""Targeted local GenObf repair for under-obfuscated vertices.

When an update batch drops some vertices below the ``log2(k)`` entropy
floor, restarting the global sigma ladder (``gen_obf``) would redo work
for the ~99% of the graph the batch never touched.  Instead this module
re-runs the *trial body* of Algorithm 3 with a violator-localized
selection distribution: the candidate pool is drawn with vertex weights
massively biased toward the violating vertices and then filtered to
edges with at least one violating endpoint, so the perturbation only
ever rewrites probabilities incident to the vertices that actually need
more noise.

The deterministic trial primitives are reused verbatim --
:func:`~repro.core.parallel.trial_generator` seed streams,
:func:`~repro.core.selection.select_candidate_edges` sampling,
:func:`~repro.core.parallel._edge_noise_scales` budget splitting,
:func:`~repro.core.noise.perturb_probabilities`, and the incremental
``(k, epsilon)`` check -- but the pooled trial *engines* are not:
:func:`~repro.core.parallel.run_trial` hard-wires the unfiltered global
candidate walk, and a repair is a handful of trials over a bounded pool,
well below the scale where process fan-out pays for itself.  The loop
here is the serial reduction (first satisfying trial with the strictly
lowest achieved epsilon wins, lowest sigma rung wins) so a repair is a
pure function of ``(policy, violators, cache state)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.noise import perturb_probabilities
from ..core.parallel import _edge_noise_scales, trial_generator
from ..core.result import FAILURE_EPSILON
from ..core.selection import select_candidate_edges
from ..exceptions import ObfuscationError
from ..privacy.incremental import DegreeUncertaintyCache
from ..privacy.obfuscation import ObfuscationReport
from ..ugraph.graph import UncertainGraph

__all__ = ["RepairPolicy", "RepairOutcome", "repair_violations",
           "violator_weights"]


@dataclass(frozen=True)
class RepairPolicy:
    """Knobs of the targeted repair ladder.

    Defaults mirror :class:`~repro.core.config.ChameleonConfig`; the
    sigma ladder walks ``sigma_initial * 2**j`` up to ``sigma_max`` and
    stops at the first rung with a satisfying trial (least added noise,
    like the outer GenObf search).  ``entropy`` seeds the deterministic
    trial streams -- two repairs with the same entropy over the same
    cache state are bit-identical.
    """

    n_trials: int = 5
    sigma_initial: float = 1.0
    sigma_max: float = 64.0
    size_multiplier: float = 1.3
    white_noise: float = 0.01
    perturbation_mode: str = "max-entropy"
    entropy: int = 0

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise ObfuscationError(
                f"repair needs at least one trial, got {self.n_trials}"
            )
        if not 0.0 < self.sigma_initial <= self.sigma_max < math.inf:
            raise ObfuscationError(
                f"repair sigma ladder [{self.sigma_initial}, "
                f"{self.sigma_max}] is empty, non-positive or not finite"
            )
        if not 1.0 <= self.size_multiplier < math.inf:
            raise ObfuscationError(
                "repair size_multiplier must be finite and >= 1, got "
                f"{self.size_multiplier}"
            )


@dataclass(frozen=True)
class RepairOutcome:
    """Result of one :func:`repair_violations` run.

    ``us``/``vs``/``p_old``/``p_new`` describe the winning perturbation
    as delta arrays against the cache's current base graph (``None``
    when no rung produced a satisfying trial); the caller decides
    whether to adopt it.  ``report`` is the winner's ``(k, epsilon)``
    report, or the pre-repair report when the ladder was exhausted.
    """

    satisfied: bool
    report: ObfuscationReport
    us: np.ndarray | None
    vs: np.ndarray | None
    p_old: np.ndarray | None
    p_new: np.ndarray | None
    sigma: float | None
    n_trials_run: int
    n_candidate_edges: int
    violators: np.ndarray


def violator_weights(n: int, violators: np.ndarray) -> np.ndarray:
    """Selection distribution concentrated on the violating vertices.

    Every vertex keeps a floor weight of 1 (the candidate walk must be
    able to propose the *other* endpoint of a repair edge anywhere in
    the graph), while each violator gets ``n`` extra mass -- the
    violator set collectively dominates the draw regardless of its
    size.  Sums to 1, like :func:`~repro.core.selection.selection_weights`.
    """
    if violators.size == 0:
        raise ObfuscationError("repair called with no violating vertices")
    q = np.ones(n, dtype=np.float64)
    q[violators] += float(n)
    return q / q.sum()


def repair_violations(
    graph: UncertainGraph,
    cache: DegreeUncertaintyCache,
    report: ObfuscationReport,
    k: int,
    epsilon: float,
    policy: RepairPolicy,
    knowledge: np.ndarray | None = None,
) -> RepairOutcome:
    """Search for a local perturbation restoring ``(k, epsilon)``.

    ``graph`` must be the cache's current base graph and ``report`` its
    failing base check.  The returned winner (if any) is *not* applied
    -- it is delta arrays the caller feeds to
    :meth:`~repro.privacy.incremental.DegreeUncertaintyCache.apply_edge_arrays`
    and :meth:`~repro.reliability.worldstore.WorldStore.rebase`.
    """
    violator_mask = ~np.asarray(report.obfuscated, dtype=bool)
    violators = np.flatnonzero(violator_mask)
    if violators.size == 0:
        raise ObfuscationError(
            "repair_violations needs a failing report; every vertex is "
            "already obfuscated"
        )
    weights = violator_weights(graph.n_nodes, violators)

    n_trials_run = 0
    max_pool = 0
    rung = 0
    sigma = float(policy.sigma_initial)
    while sigma <= policy.sigma_max:
        best: tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                    ObfuscationReport] | None = None
        best_epsilon = FAILURE_EPSILON
        for trial in range(policy.n_trials):
            rng = trial_generator(policy.entropy, rung, trial)
            pairs = select_candidate_edges(
                graph, weights, policy.size_multiplier, seed=rng
            )
            # Keep only candidate edges touching at least one violator.
            pairs = pairs[violator_mask[pairs].any(axis=1)]
            n_trials_run += 1
            if len(pairs) == 0:
                continue
            max_pool = max(max_pool, len(pairs))
            us, vs = pairs.T
            current = graph.pair_probabilities(us, vs)
            scales = _edge_noise_scales(us, vs, weights, sigma)
            perturbed = perturb_probabilities(
                current,
                scales,
                mode=policy.perturbation_mode,
                white_noise=policy.white_noise,
                seed=rng,
            )
            trial_report = cache.check_edge_arrays(
                us, vs, current, perturbed, k, epsilon, knowledge=knowledge
            )
            if (
                trial_report.satisfied
                and trial_report.epsilon_achieved < best_epsilon
            ):
                best = (sigma, us, vs, current, perturbed, trial_report)
                best_epsilon = float(trial_report.epsilon_achieved)
        if best is not None:
            won_sigma, us, vs, current, perturbed, trial_report = best
            return RepairOutcome(
                satisfied=True,
                report=trial_report,
                us=us,
                vs=vs,
                p_old=current,
                p_new=perturbed,
                sigma=won_sigma,
                n_trials_run=n_trials_run,
                n_candidate_edges=max_pool,
                violators=violators,
            )
        rung += 1
        sigma = float(policy.sigma_initial) * (2.0 ** rung)
    return RepairOutcome(
        satisfied=False,
        report=report,
        us=None,
        vs=None,
        p_old=None,
        p_new=None,
        sigma=None,
        n_trials_run=n_trials_run,
        n_candidate_edges=max_pool,
        violators=violators,
    )
