"""Graph metrics for utility-preservation evaluation (Section VI).

Degree group, node-separation group (ANF-based) and clustering group,
plus :func:`compare_graphs`, which bundles them with the reliability
utility-loss metric (Definition 2) into the per-figure relative-error
rows.
"""

from .components import (
    expected_component_count,
    isolation_probabilities,
    largest_component_statistics,
)
from .spectral import (
    expected_adjacency_spectrum,
    expected_laplacian_spectrum,
    spectral_distance,
)
from .clustering import (
    expected_clustering_coefficient,
    expected_triangle_count,
    local_clustering_from_edges,
    sampled_triangle_count,
)
from .degree import (
    degree_distribution_l1_error,
    expected_average_degree,
    expected_degree_histogram,
    expected_max_degree,
    sampled_degree_matrix,
)
from .distance import average_distance, distance_statistics, effective_diameter
from .suite import (
    DEFAULT_METRICS,
    EXTENDED_METRICS,
    MetricComparison,
    compare_graphs,
)

__all__ = [
    "expected_average_degree",
    "expected_degree_histogram",
    "expected_max_degree",
    "sampled_degree_matrix",
    "degree_distribution_l1_error",
    "average_distance",
    "effective_diameter",
    "distance_statistics",
    "expected_clustering_coefficient",
    "expected_triangle_count",
    "sampled_triangle_count",
    "local_clustering_from_edges",
    "MetricComparison",
    "compare_graphs",
    "DEFAULT_METRICS",
    "EXTENDED_METRICS",
    "isolation_probabilities",
    "expected_component_count",
    "largest_component_statistics",
    "expected_adjacency_spectrum",
    "expected_laplacian_spectrum",
    "spectral_distance",
]
