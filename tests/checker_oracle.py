"""The full (k, epsilon) checker as a test oracle for the GenObf trial.

Production trials check candidates through the incremental
:meth:`DegreeUncertaintyCache.check_edge_arrays`.  The oracle behind the
same signature materializes the candidate and runs
:func:`repro.privacy.check_obfuscation` on it from scratch.  Tests patch
it in two ways:

* :func:`use_full_checker` replaces the incremental check outright, so a
  whole GenObf call or ``anonymize`` run can be compared against an
  unpatched one;
* :func:`record_checks` keeps the incremental check and records, for
  every trial, its report next to the oracle's.
"""

from __future__ import annotations

import numpy as np

from repro.privacy import DegreeUncertaintyCache, check_obfuscation
from repro.ugraph import apply_edge_updates


def full_check_edge_arrays(cache, us, vs, p_old, p_new, k, epsilon,
                           knowledge=None):
    """Definition 3 on the materialized candidate ``base + delta``."""
    if knowledge is None:
        knowledge = cache.knowledge
    candidate = apply_edge_updates(cache.graph, us, vs, p_new)
    return check_obfuscation(candidate, k, epsilon, knowledge=knowledge)


def use_full_checker(monkeypatch) -> None:
    """Route every trial check through :func:`full_check_edge_arrays`."""
    monkeypatch.setattr(
        DegreeUncertaintyCache, "check_edge_arrays", full_check_edge_arrays
    )


def record_checks(monkeypatch) -> list:
    """Record ``(incremental report, oracle report)`` per trial check."""
    pairs = []
    incremental = DegreeUncertaintyCache.check_edge_arrays

    def spy(cache, us, vs, p_old, p_new, k, epsilon, knowledge=None):
        report = incremental(cache, us, vs, p_old, p_new, k, epsilon,
                             knowledge=knowledge)
        pairs.append((report, full_check_edge_arrays(
            cache, us, vs, p_old, p_new, k, epsilon, knowledge
        )))
        return report

    monkeypatch.setattr(DegreeUncertaintyCache, "check_edge_arrays", spy)
    return pairs


def assert_reports_identical(got, expected) -> None:
    """Two obfuscation reports agree bit for bit."""
    assert (got.k, got.epsilon) == (expected.k, expected.epsilon)
    assert got.epsilon_achieved == expected.epsilon_achieved
    assert got.satisfied == expected.satisfied
    np.testing.assert_array_equal(got.entropies, expected.entropies)
    np.testing.assert_array_equal(got.obfuscated, expected.obfuscated)
