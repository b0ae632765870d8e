"""Two independently built world stores as a reliability-discrepancy oracle.

Production :func:`repro.reliability.reliability_discrepancy` samples one
world store of the original graph and derives the anonymized graph from
it as a delta.  The oracle builds one :class:`WorldStore` per graph from
the same seed, derives no candidate, and differences the answers of the
two stores' base views.  Each graph's uniforms are drawn per edge
column, so the two stores' worlds stay paired only while both graphs
have the same edge universe: on such a pair the two paths must agree
bit for bit.  Once the anonymized graph
adds or drops a pair, the oracle's worlds decouple and its estimate
carries independent sampling noise on every pair, which is why it is a
test reference and not a production path.
"""

from __future__ import annotations

import numpy as np

from repro._rng import as_generator
from repro.reliability import WorldStore, sample_vertex_pairs
from repro.reliability.worldstore import DEFAULT_PAIR_SAMPLE, FULL_MATRIX_LIMIT


def two_estimator_discrepancy(
    original, anonymized, n_samples=1000, n_pairs=None, seed=None,
    per_pair=True, antithetic=False, memory_budget=None,
) -> float:
    """``reliability_discrepancy`` from two same-seeded stores."""
    n = original.n_nodes
    rng = as_generator(seed)
    shared_seed = int(rng.integers(0, 2**63 - 1))
    est_a, est_b = (
        WorldStore(
            graph, n_samples, seed=shared_seed, antithetic=antithetic,
            memory_budget=memory_budget,
        ).base_view()
        for graph in (original, anonymized)
    )
    total_pairs = n * (n - 1) / 2
    use_all = n_pairs is None and n <= FULL_MATRIX_LIMIT
    if use_all:
        diff = np.abs(est_a.pairwise_reliability() - est_b.pairwise_reliability())
        total = float(np.triu(diff, k=1).sum())
        evaluated = total_pairs
    else:
        m = int(n_pairs) if n_pairs is not None else DEFAULT_PAIR_SAMPLE
        pairs = sample_vertex_pairs(n, m, seed=rng)
        diff = np.abs(
            est_a.reliability_of_pairs(pairs) - est_b.reliability_of_pairs(pairs)
        )
        total = float(diff.sum())
        evaluated = m
    if per_pair:
        return total / evaluated
    if use_all:
        return total
    return total / evaluated * total_pairs
