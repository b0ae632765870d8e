"""Pure-NumPy kernel implementations (the always-available fallback).

These are the bit-compatibility references: the numba backend must
reproduce every function here exactly (asserted by
``tests/test_kernels.py``).  Where bit-parity cannot be engineered --
transcendental-heavy math -- the implementation lives in
:mod:`repro.kernels._shared` and is registered under both backends
instead of being duplicated.

Argument validation happens in the public call sites
(``repro.privacy.degree_distribution`` etc.), never here: kernels assume
clean inputs so both backends run the same unguarded hot path.
"""

from __future__ import annotations

import numpy as np

from ._shared import truncnorm_transform

__all__ = [
    "poisson_binomial_pmf",
    "rethreshold_masks",
    "masked_component_labels",
    "truncnorm_transform",
]


def poisson_binomial_pmf(p: np.ndarray) -> np.ndarray:
    """Exact Poisson-binomial pmf by the ``O(d^2)`` convolution DP.

    Each step convolves with the two-tap kernel ``[1 - p_i, p_i]``; a
    two-term IEEE sum is order-independent, which is what lets the numba
    backend's in-place loop match this bitwise.
    """
    pmf = np.ones(1, dtype=np.float64)
    for pi in p:
        pmf = np.convolve(pmf, (1.0 - pi, pi))
    return pmf


def rethreshold_masks(
    uniforms: np.ndarray,
    base_masks: np.ndarray,
    cols: np.ndarray,
    new_p: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Re-threshold changed columns and find the dirty worlds.

    Returns ``(new_cols, dirty)``: the ``(N, len(cols))`` boolean
    realization of the changed columns under their new probabilities,
    and the int64 row indices where any changed edge flipped relative to
    ``base_masks``.  Pure comparisons -- exact on every backend.
    """
    new_cols = uniforms[:, cols] < new_p
    flipped = new_cols != base_masks[:, cols]
    return new_cols, np.flatnonzero(flipped.any(axis=1))


def masked_component_labels(
    n_nodes: int, src: np.ndarray, dst: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """Canonical per-world component labels for a mask batch.

    Canonical means: scanning vertices ``0 .. n-1``, a component receives
    the next consecutive id the first time one of its vertices appears.
    That is exactly what the block-diagonal scipy path produces (global
    component ids ascend with first appearance, so subtracting each
    row's first id leaves per-row consecutive ids), so this fallback
    simply delegates to it.  Imported lazily --
    ``reliability.connectivity`` itself imports the kernel registry.
    """
    from ..reliability.connectivity import _batched_labels_chunked

    return _batched_labels_chunked(n_nodes, src, dst, masks)
