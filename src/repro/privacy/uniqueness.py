"""Uniqueness scores (Definition 4, after Boldi et al.).

The *theta-commonness* of a property value ``w`` is a Gaussian-kernel
density estimate of how typical ``w`` is among all vertices:

    C_theta(w) = sum_u  phi_{0,theta}( d(w, P(u)) )

and the *uniqueness* is its reciprocal.  Vertices with rare property
values (e.g. the heavy tail of a degree distribution) score high and need
more noise to blend in; GenObf samples them more aggressively.

Following Section V-C we default the bandwidth ``theta`` to the spread
(standard deviation) of the property values in the uncertain graph
itself, rather than to the noise parameter ``sigma`` as in the
deterministic-graph original.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from ..ugraph.graph import UncertainGraph

__all__ = [
    "default_bandwidth",
    "commonness_scores",
    "uniqueness_scores",
    "degree_uniqueness",
]

_MIN_BANDWIDTH = 1e-6
#: Element budget of one ``(rows, n)`` kernel temporary (64 MiB of
#: float64); up to three are live at once.
_CHUNK_ELEMENTS = 8_000_000


def default_bandwidth(values: np.ndarray) -> float:
    """Paper default: the standard deviation of the property values.

    Floored at a tiny positive value so constant property vectors (every
    vertex identical -- nothing is unique) stay well-defined.
    """
    values = np.asarray(values, dtype=np.float64)
    return max(float(values.std()), _MIN_BANDWIDTH)


def commonness_scores(values: np.ndarray, theta: float | None = None) -> np.ndarray:
    """theta-commonness ``C_theta`` of each vertex's property value.

    Uses the full Gaussian kernel sum, evaluated in chunks of rows so no
    ``(rows, n)`` temporary exceeds ``_CHUNK_ELEMENTS`` elements (at
    least one row).  A row's sum does not depend on how rows are
    chunked, so the scores are bit-identical at every budget.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ConfigurationError(f"values must be 1-D, got shape {values.shape}")
    if theta is None:
        theta = default_bandwidth(values)
    if theta <= 0:
        raise ConfigurationError(f"theta must be positive, got {theta}")
    n = values.shape[0]
    norm = 1.0 / (theta * np.sqrt(2.0 * np.pi))
    inv_two_theta_sq = 1.0 / (2.0 * theta * theta)
    out = np.empty(n, dtype=np.float64)
    chunk = max(1, _CHUNK_ELEMENTS // max(n, 1))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        diff = values[start:stop, None] - values[None, :]
        out[start:stop] = norm * np.exp(-(diff * diff) * inv_two_theta_sq).sum(axis=1)
    return out


def uniqueness_scores(values: np.ndarray, theta: float | None = None) -> np.ndarray:
    """theta-uniqueness ``U_theta = 1 / C_theta`` per vertex.

    The kernel sum always includes the vertex's own contribution, so the
    commonness is strictly positive and the reciprocal is safe.
    """
    return 1.0 / commonness_scores(values, theta=theta)


def degree_uniqueness(
    graph: UncertainGraph, theta: float | None = None
) -> np.ndarray:
    """Uniqueness over the paper's property of interest: vertex degree.

    Uses expected degrees (exact degrees for deterministic graphs) and the
    uncertain-graph bandwidth default.
    """
    return uniqueness_scores(graph.expected_degrees(), theta=theta)
