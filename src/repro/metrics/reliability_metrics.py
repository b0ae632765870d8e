"""Reliability metrics packaged for the evaluation harness.

A thin wrapper around :mod:`repro.reliability` exposing the quantity the
paper's figures plot: the average (per-pair) reliability discrepancy.
"""

from __future__ import annotations

from ..reliability.estimator import reliability_discrepancy
from ..ugraph.graph import UncertainGraph

__all__ = ["average_reliability_discrepancy"]


def average_reliability_discrepancy(
    original: UncertainGraph,
    anonymized: UncertainGraph,
    n_samples: int = 500,
    n_pairs: int | None = None,
    seed=None,
    antithetic: bool = False,
) -> float:
    """Average per-pair reliability discrepancy (the Figure 4/8 y-axis).

    See :func:`repro.reliability.reliability_discrepancy`; this wrapper
    fixes ``per_pair=True`` which is the scale-free quantity the paper
    reports.  ``antithetic`` selects antithetic world pairing.
    """
    return reliability_discrepancy(
        original,
        anonymized,
        n_samples=n_samples,
        n_pairs=n_pairs,
        seed=seed,
        per_pair=True,
        antithetic=antithetic,
    )
