"""Feasibility diagnostics for anonymization targets.

A failed Chameleon run reports *that* no (k, epsilon)-obfuscation was
found, not *why*.  At publication scale the dominant cause is structural:
a vertex whose known degree exceeds what almost every other vertex could
ever realize cannot be blended, no matter how much noise is injected --
the normalized column ``Y_w`` stays concentrated on it.  (These are the
paper's "extremely unique nodes, e.g. Trump in a Twitter network", the
reason the epsilon tolerance exists.)

:func:`diagnose_feasibility` performs that analysis up front: for each
vertex it counts the *support* of its knowledge value -- how many
vertices have enough potential incident edges to realize that degree --
and derives the set of structurally hard vertices, the minimal viable
epsilon, and the largest k the graph can support at a given epsilon.

The analysis is a necessary-condition bound for anonymizers that
re-weight the existing edge universe; candidate-edge addition (the ``c``
multiplier) relaxes it by raising potential degrees, which the report
quantifies through the ``candidate_multiplier`` parameter.

:func:`execution_environment` answers the complementary operational
question -- *what will actually run*: library versions, how many CPUs
the process may use, and which ``REPRO_*`` knobs are set.  Benchmark
results embed it so numbers are never read without their environment.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from ..exceptions import ObfuscationError
from ..kernels import usable_cpu_count
from ..privacy.degree_distribution import expected_degree_knowledge
from ..ugraph.graph import UncertainGraph

__all__ = [
    "FeasibilityReport",
    "diagnose_feasibility",
    "execution_environment",
    "peak_rss_bytes",
]

#: Environment variables that change repro's execution behavior.
_REPRO_ENV_VARS = ("REPRO_WORLD_CHUNK",)


def peak_rss_bytes() -> int | None:
    """This process's peak resident set size, in bytes (None if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; the report
    normalizes to bytes so memory-budget claims are comparable.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - resource is POSIX-only
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return int(peak)
    return int(peak) * 1024


def execution_environment() -> dict:
    """Capability report of the running interpreter.

    Combines library versions, the usable and total CPU counts and the
    ``REPRO_*`` environment knobs in effect.  JSON-serializable by
    construction; surfaced by the ``chameleon capabilities`` subcommand
    and embedded in every benchmark results file.
    """
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:  # pragma: no cover - scipy is a hard dependency
        scipy_version = None
    return {
        "python": sys.version.split()[0],
        "platform": sys.platform,
        "numpy": np.__version__,
        "scipy": scipy_version,
        "cpus": {
            "usable": usable_cpu_count(),
            "total": os.cpu_count() or 1,
        },
        "env": {
            name: os.environ[name]
            for name in _REPRO_ENV_VARS
            if name in os.environ
        },
        "memory": {
            "peak_rss_bytes": peak_rss_bytes(),
        },
    }


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a structural feasibility analysis.

    Attributes
    ----------
    k, epsilon:
        The analyzed target.
    support:
        Per-vertex count of vertices whose potential degree reaches the
        vertex's knowledge value (the ceiling of its anonymity set).
    hard_vertices:
        Vertices whose support is below ``k`` -- they cannot reach
        ``log2 k`` entropy under any perturbation of this universe.
    min_epsilon:
        Fraction of hard vertices: the smallest tolerance under which the
        target *could* be met.
    max_feasible_k:
        The largest k whose hard-vertex fraction stays within ``epsilon``.
    """

    k: int
    epsilon: float
    support: np.ndarray
    hard_vertices: np.ndarray
    min_epsilon: float
    max_feasible_k: int

    @property
    def feasible(self) -> bool:
        """True when the structural necessary condition is satisfied."""
        return self.min_epsilon <= self.epsilon

    def summary(self) -> dict:
        return {
            "k": self.k,
            "epsilon": self.epsilon,
            "feasible": self.feasible,
            "n_hard_vertices": int(self.hard_vertices.shape[0]),
            "min_epsilon": self.min_epsilon,
            "max_feasible_k": self.max_feasible_k,
        }

    def __repr__(self) -> str:
        status = "feasible" if self.feasible else "INFEASIBLE"
        return (
            f"FeasibilityReport(k={self.k}, eps={self.epsilon:g}, {status}, "
            f"hard={self.hard_vertices.shape[0]}, "
            f"min_eps={self.min_epsilon:.4g}, "
            f"max_k={self.max_feasible_k})"
        )


def _potential_degrees(
    graph: UncertainGraph, candidate_multiplier: float
) -> np.ndarray:
    """Upper bound on each vertex's realizable degree.

    Incident stored edges, plus the vertex's share of the extra candidate
    budget ``(c - 1) |E|`` under the optimistic assumption that additions
    spread evenly over the vertices (each new edge raises two potential
    degrees), capped at ``n - 1``.
    """
    n = graph.n_nodes
    incident = np.zeros(n, dtype=np.float64)
    np.add.at(incident, graph.edge_src, 1.0)
    np.add.at(incident, graph.edge_dst, 1.0)
    extra_edges = (candidate_multiplier - 1.0) * graph.n_edges
    per_vertex_bonus = 2.0 * extra_edges / max(n, 1)
    return np.minimum(incident + per_vertex_bonus, n - 1)


def diagnose_feasibility(
    graph: UncertainGraph,
    k: int,
    epsilon: float,
    knowledge: np.ndarray | None = None,
    candidate_multiplier: float = 1.0,
) -> FeasibilityReport:
    """Structural necessary-condition analysis for a (k, epsilon) target.

    Parameters
    ----------
    graph:
        The original uncertain graph.
    k, epsilon:
        The intended privacy target.
    knowledge:
        Adversary property values; defaults to rounded expected degrees.
    candidate_multiplier:
        The ``c`` the anonymizer will use: finite and ``>= 1``, the
        domain of ``ChameleonConfig.size_multiplier``.  Values above 1
        credit every vertex with its share of the added candidate edges.

    The analysis is conservative in the anonymizer's favor (it may call
    feasible a target the randomized search still fails), but an
    infeasible verdict is definitive for this edge universe.
    """
    if k < 1:
        raise ObfuscationError(f"k must be >= 1, got {k}")
    if not 0.0 <= epsilon < 1.0:
        raise ObfuscationError(f"epsilon must be in [0, 1), got {epsilon}")
    if not 1.0 <= candidate_multiplier < math.inf:
        raise ObfuscationError(
            "candidate_multiplier must be finite and >= 1, got "
            f"{candidate_multiplier}"
        )
    if knowledge is None:
        knowledge = expected_degree_knowledge(graph)
    knowledge = np.asarray(knowledge, dtype=np.int64)
    if knowledge.shape != (graph.n_nodes,):
        raise ObfuscationError(
            f"knowledge has shape {knowledge.shape}, expected "
            f"({graph.n_nodes},)"
        )

    potential = _potential_degrees(graph, candidate_multiplier)
    # support[v] = #vertices whose potential degree reaches knowledge[v].
    sorted_potential = np.sort(potential)
    positions = np.searchsorted(sorted_potential, knowledge, side="left")
    support = graph.n_nodes - positions

    hard = np.flatnonzero(support < k)
    n = graph.n_nodes
    min_epsilon = hard.shape[0] / n if n else 0.0

    # Largest k with hard fraction <= epsilon: vertex v tolerates k up to
    # support[v]; sort supports, allow floor(eps * n) vertices to fall
    # below, so max k is the (allowed+1)-th smallest support.
    allowed = int(np.floor(epsilon * n))
    sorted_support = np.sort(support)
    if n == 0:
        max_k = 1
    elif allowed >= n:
        max_k = n
    else:
        max_k = int(sorted_support[allowed])
    max_k = max(1, min(max_k, n))

    return FeasibilityReport(
        k=int(k),
        epsilon=float(epsilon),
        support=support,
        hard_vertices=hard,
        min_epsilon=float(min_epsilon),
        max_feasible_k=max_k,
    )
