"""The world store's mask re-threshold kernel and the host CPU probe.

:func:`rethreshold_masks` is the one array kernel still called through
this module (``kernels.rethreshold_masks``) rather than defined beside
its caller: the pipeline benchmark's tracer patches it here as the
``kernels`` layer.  The other hot kernels live next to their one
caller -- the Poisson-binomial DP in
:func:`repro.privacy.degree_distribution.poisson_binomial_pmf`, the
truncated-normal transform in
:func:`repro.core.noise.truncated_normal_noise` and the batched
component labeling in :mod:`repro.reliability.connectivity`.

Every kernel is plain NumPy; :func:`active_backend` and
:func:`numba_available` report that constant for benchmark metadata.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "active_backend",
    "numba_available",
    "usable_cpu_count",
    "rethreshold_masks",
]


def active_backend() -> str:
    """Name of the kernel implementation: always ``"numpy"``."""
    return "numpy"


def numba_available() -> bool:
    """False: no compiled kernel backend exists."""
    return False


def usable_cpu_count() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


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
    ``base_masks``.
    """
    new_cols = uniforms[:, cols] < new_p
    flipped = new_cols != base_masks[:, cols]
    return new_cols, np.flatnonzero(flipped.any(axis=1))
