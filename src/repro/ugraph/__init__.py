"""Uncertain-graph substrate: the data model everything else builds on.

* :class:`UncertainGraph` -- the immutable graph type (possible-world
  semantics, independent edges).
* :class:`UncertainGraphBuilder` -- incremental construction with
  arbitrary vertex identifiers.
* :class:`WorldSampler` / :func:`sample_edge_masks` -- vectorized
  possible-world sampling.
* :mod:`repro.ugraph.io` -- edge-list / JSON round-trips.
* :mod:`repro.ugraph.operations` -- subgraphs, relabeling, edge-universe
  alignment, noise measurement.
"""

from .builder import UncertainGraphBuilder
from .graph import Edge, UncertainGraph
from .io import (
    dumps_edge_list,
    loads_edge_list,
    read_edge_list,
    read_json,
    write_edge_list,
    write_json,
)
from .operations import (
    align_edge_universe,
    apply_edge_updates,
    edge_probability_map,
    induced_subgraph,
    overlay,
    probability_l1_distance,
    relabel,
)
from .paths import (
    distance_constrained_reachability,
    expected_hop_distance,
    most_probable_path,
)
from .validation import summarize, validate_graph, validate_privacy_parameters
from .worlds import WorldSampler, sample_edge_masks, world_log_probability

__all__ = [
    "Edge",
    "UncertainGraph",
    "UncertainGraphBuilder",
    "WorldSampler",
    "sample_edge_masks",
    "world_log_probability",
    "read_edge_list",
    "write_edge_list",
    "loads_edge_list",
    "dumps_edge_list",
    "read_json",
    "write_json",
    "induced_subgraph",
    "relabel",
    "overlay",
    "apply_edge_updates",
    "align_edge_universe",
    "edge_probability_map",
    "probability_l1_distance",
    "validate_graph",
    "validate_privacy_parameters",
    "summarize",
    "most_probable_path",
    "distance_constrained_reachability",
    "expected_hop_distance",
]
