"""Reliability machinery: connectivity under possible-world semantics.

* :class:`WorldStore` -- one shared set of sampled possible worlds; its
  :meth:`~WorldStore.base_view` (a :class:`DerivedWorlds`) answers
  two-terminal reliability, expected connected pairs and the full
  pairwise reliability matrix, and :meth:`~WorldStore.derive` answers
  them for a candidate graph given as a probability delta.
* :func:`reliability_discrepancy` -- the paper's utility-loss metric
  (Definition 2).
* :func:`edge_reliability_relevance` / :func:`vertex_reliability_relevance`
  -- Algorithm 2 and its aggregation (Section V-D).
* :mod:`repro.reliability.exact` -- enumeration oracle for small graphs.
"""

from .connectivity import (
    batch_component_labels,
    batch_pair_counts,
    component_labels_for_edges,
    pair_counts_from_labels,
)
from .estimator import reliability_discrepancy
from .worldstore import (
    DerivedWorlds,
    WorldStore,
    graph_delta,
    sample_vertex_pairs,
)
from .exact import (
    enumerate_worlds,
    exact_edge_reliability_relevance,
    exact_expected_connected_pairs,
    exact_pairwise_reliability,
    exact_reliability_discrepancy,
    exact_two_terminal,
)
from .relevance import (
    RelevanceResult,
    compute_relevance,
    edge_reliability_relevance,
    vertex_reliability_relevance,
)
from .bounds import (
    reliability_bounds,
    reliability_lower_bound,
    reliability_upper_bound,
)
from .union_find import UnionFind, component_labels, connected_pair_count

__all__ = [
    "UnionFind",
    "component_labels",
    "connected_pair_count",
    "batch_component_labels",
    "batch_pair_counts",
    "component_labels_for_edges",
    "pair_counts_from_labels",
    "reliability_discrepancy",
    "sample_vertex_pairs",
    "WorldStore",
    "DerivedWorlds",
    "graph_delta",
    "enumerate_worlds",
    "exact_two_terminal",
    "exact_pairwise_reliability",
    "exact_expected_connected_pairs",
    "exact_reliability_discrepancy",
    "exact_edge_reliability_relevance",
    "RelevanceResult",
    "compute_relevance",
    "edge_reliability_relevance",
    "vertex_reliability_relevance",
    "reliability_bounds",
    "reliability_lower_bound",
    "reliability_upper_bound",
]
