"""Entropy helpers shared by the privacy machinery.

All entropies are in bits (base 2) unless stated otherwise, matching the
``H(Y) >= log2 k`` form of the (k, epsilon)-obfuscation criterion.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "shannon_entropy",
    "column_entropies",
    "entropy_terms",
    "entropies_from_terms",
    "normal_differential_entropy",
    "effective_anonymity",
]


def shannon_entropy(distribution: np.ndarray, base: float = 2.0) -> float:
    """Shannon entropy of a (possibly unnormalized) distribution.

    Zero entries contribute nothing (``0 log 0 == 0``).  An all-zero
    vector has entropy 0 by convention.
    """
    p = np.asarray(distribution, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"expected a 1-D distribution, got shape {p.shape}")
    if np.any(p < 0):
        raise ValueError("probabilities must be non-negative")
    total = p.sum()
    if total <= 0.0:
        return 0.0
    p = p / total
    nonzero = p[p > 0]
    return float(-(nonzero * (np.log(nonzero) / np.log(base))).sum())


def entropy_terms(matrix: np.ndarray) -> np.ndarray:
    """Per-entry ``m ln m`` of a non-negative matrix (``0 ln 0 == 0``).

    The summand of :func:`column_entropies`.  Degree-pmf matrices are
    mostly zeros, so the log is taken only on the positive entries;
    scattering the products back yields exactly the array
    ``np.where(m > 0, m * np.log(m), 0.0)`` builds, at a fraction of
    the log calls.  Each entry depends on that entry alone, so the terms
    of a row subset equal the same rows of the whole matrix's terms.
    """
    positive = matrix > 0
    terms = np.zeros_like(matrix, dtype=np.float64)
    vals = matrix[positive]
    terms[positive] = vals * np.log(vals)
    return terms


def entropies_from_terms(
    matrix: np.ndarray, terms: np.ndarray, base: float = 2.0
) -> np.ndarray:
    """Column entropies of ``matrix`` given its :func:`entropy_terms`.

    ``H = log(S) - sum(m log m) / S`` per column with mass ``S > 0``,
    converted to ``base``; zero-mass columns get ``+inf``.  Callers that
    keep the terms of a matrix they patch row by row (the incremental
    checker) sum them here instead of taking every log again; the column
    sums run over the same arrays, so the entropies are bit-identical.
    """
    sums = matrix.sum(axis=0)
    plogp = terms.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        natural = np.where(
            sums > 0,
            np.log(sums) - plogp / np.where(sums > 0, sums, 1.0),
            np.inf,
        )
    return natural / np.log(base)


def column_entropies(matrix: np.ndarray, base: float = 2.0) -> np.ndarray:
    """Entropy of each *column* of a non-negative matrix after normalization.

    This is the bulk operation behind the obfuscation check: the matrix is
    the degree-uncertainty matrix ``M[u, w] = Pr[deg(u) = w]`` and column
    ``w`` normalized is the distribution ``Y_w`` over vertices.  Columns
    with zero mass get entropy ``+inf`` -- no vertex can exhibit that
    property value, so an adversary holding it has an empty candidate set
    (maximally obfuscated; see Definition 3 discussion).
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if np.any(m < 0):
        raise ValueError("matrix entries must be non-negative")
    return entropies_from_terms(m, entropy_terms(m), base)


def normal_differential_entropy(variance: np.ndarray | float) -> np.ndarray | float:
    """Differential entropy (nats) of a normal with the given variance.

    ``0.5 * ln(2 pi sigma^2) + 0.5`` -- the approximation Lemma 6 applies
    to a vertex's Poisson-binomial degree via the CLT.  Zero variance maps
    to ``-inf`` (a point mass).
    """
    variance = np.asarray(variance, dtype=np.float64)
    with np.errstate(divide="ignore"):
        result = 0.5 * np.log(2.0 * np.pi * variance) + 0.5
    if result.ndim == 0:
        return float(result)
    return result


def effective_anonymity(entropy_bits: float) -> float:
    """Effective anonymity-set size ``2^H`` implied by an entropy in bits."""
    if np.isinf(entropy_bits):
        return float("inf")
    return float(2.0**entropy_bits)
