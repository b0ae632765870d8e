"""Per-pair grown-column draws as a test oracle.

Production draws every column a growth call adds in one batch
(:func:`repro.reliability.worldstore._pair_keyed_uniforms`): a NumPy
port of ``SeedSequence``'s seeding hash runs over all pairs at once,
then each pair draws raw PCG64 words.  The oracle is the definition
those draws reproduce bit for bit: one
``np.random.default_rng((growth_entropy, u, v))`` per grown column.
"""

from __future__ import annotations

import numpy as np


def growth_uniform_column(
    entropy: int, u: int, v: int, n_samples: int, antithetic: bool = False
) -> np.ndarray:
    """The ``(n_samples,)`` uniforms behind grown column ``(u, v)``.

    Under antithetic pairing, ``n_samples // 2`` draws interleaved with
    their complements, like the store's base rows.
    """
    rng = np.random.default_rng((entropy, u, v))
    if not antithetic:
        return rng.random(n_samples)
    half = rng.random(n_samples // 2)
    out = np.empty(n_samples, dtype=np.float64)
    out[0::2] = half
    out[1::2] = 1.0 - half
    return out
