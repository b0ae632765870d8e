"""Random-number-generator plumbing shared across the library.

Every stochastic component in repro accepts a ``seed`` argument that may be:

* ``None`` -- fresh OS entropy,
* an ``int`` -- a reproducible seed,
* a :class:`numpy.random.Generator` -- used as-is (allows streams to be
  shared or split by the caller).

:func:`as_generator` normalizes all three into a ``Generator`` so internal
code never has to special-case.  :func:`spawn` derives independent child
generators, used when an algorithm needs separate streams for separate
subsystems (e.g. edge selection vs. noise drawing) without coupling their
consumption patterns.
"""

from __future__ import annotations

import numpy as np


def as_generator(seed=None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``Generator`` instances are passed through untouched so callers can
    share one stream across several components when they want coupled
    randomness.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators from ``rng``."""
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
