"""Noise generation and edge-probability perturbation (Section V-F).

The noise primitive is the truncated normal ``R_sigma``: density
proportional to ``N(0, sigma^2)`` restricted to ``[0, 1]`` (Boldi et
al.).  GenObf assigns each candidate edge its own scale ``sigma(e)`` and,
with probability ``q`` ("white noise"), replaces the draw by U(0, 1) so a
small fraction of edges always receives strong perturbation.

Two perturbation rules turn a noise magnitude ``r`` into a new edge
probability:

* **max-entropy** (the paper's anonymity-oriented rule, Lemma 6):
  ``p~ = p + (1 - 2p) r``.  The gradient of the vertex degree entropy
  w.r.t. ``p`` is proportional to ``1 - 2p``, so this moves every
  probability toward 1/2 -- maximum per-edge uncertainty -- and reduces
  to the deterministic-graph rule when ``p`` is 0 or 1.
* **naive**: ``p~ = clip(p +/- r)`` with a random sign -- the un-guided
  injection the RS ablation uses.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri

from .._rng import as_generator
from ..exceptions import ConfigurationError

__all__ = [
    "truncated_normal_noise",
    "draw_noise",
    "apply_max_entropy",
    "apply_naive",
    "perturb_probabilities",
]

#: Largest scale the sampler uses.  From here on the density of ``R_s``
#: on [0, 1] is flat to within ``1 / (2 s^2) < 2^-53``, i.e. U(0, 1) in
#: doubles, while at larger scales the span ``Phi(1 / s) - 1/2``
#: cancels (every draw 0 from s ~ 1e16) and ``s = inf`` draws NaN.
_MAX_SCALE = 1e8


def truncated_normal_noise(
    sigma: np.ndarray | float, size: int | None = None, seed=None
) -> np.ndarray:
    """Draw from ``R_sigma``: half-normal scale ``sigma`` truncated to [0, 1].

    ``sigma`` may be a scalar or a per-draw array; zero scales yield zero
    noise exactly.

    Sampling is inverse-CDF: one ``rng.random`` block for the positive
    scales, then ``x = s * Phi^-1(1/2 + u * (Phi(1 / s) - 1/2))``, since
    ``R_s`` has CDF ``(Phi(x / s) - 1/2) / (Phi(1 / s) - 1/2)`` on
    ``[0, 1]``.  The clip only matters when ``u`` rounds to 1 and
    ``ndtri`` saturates to ``inf``.  Scales above ``_MAX_SCALE`` draw
    as ``_MAX_SCALE``: ``R_s`` is U(0, 1) to double precision there.
    """
    rng = as_generator(seed)
    sigma = np.asarray(sigma, dtype=np.float64)
    if size is None:
        if sigma.ndim == 0:
            raise ConfigurationError("size is required for scalar sigma")
        size = sigma.shape[0]
    sigma = np.broadcast_to(sigma, (size,)).copy()
    out = np.zeros(size, dtype=np.float64)
    positive = sigma > 0
    if positive.any():
        scale = np.minimum(sigma[positive], _MAX_SCALE)
        u = rng.random(scale.shape[0])
        span = ndtr(1.0 / scale) - 0.5
        out[positive] = np.clip(scale * ndtri(0.5 + u * span), 0.0, 1.0)
    return out


def draw_noise(
    sigma: np.ndarray, white_noise: float, seed=None
) -> np.ndarray:
    """Per-edge noise magnitudes: truncated normal with white-noise mixing.

    Each edge independently receives U(0, 1) noise with probability
    ``white_noise`` (line 20 of Algorithm 3) and ``R_{sigma(e)}``
    otherwise.
    """
    rng = as_generator(seed)
    sigma = np.asarray(sigma, dtype=np.float64)
    r = truncated_normal_noise(sigma, seed=rng)
    if white_noise > 0.0:
        white = rng.random(sigma.shape[0]) < white_noise
        if white.any():
            r[white] = rng.random(int(white.sum()))
    return r


def apply_max_entropy(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Anonymity-oriented update ``p~ = p + (1 - 2p) r``.

    For ``r`` in [0, 1] the result stays in [0, 1] and never moves away
    from 1/2, the entropy-maximizing probability.
    """
    p = np.asarray(p, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    return np.clip(p + (1.0 - 2.0 * p) * r, 0.0, 1.0)


def apply_naive(p: np.ndarray, r: np.ndarray, seed=None) -> np.ndarray:
    """Un-guided update ``p~ = clip(p +/- r)`` with random signs."""
    rng = as_generator(seed)
    p = np.asarray(p, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    signs = np.where(rng.random(p.shape[0]) < 0.5, -1.0, 1.0)
    return np.clip(p + signs * r, 0.0, 1.0)


def perturb_probabilities(
    p: np.ndarray,
    sigma: np.ndarray,
    mode: str = "max-entropy",
    white_noise: float = 0.0,
    seed=None,
) -> np.ndarray:
    """Full perturbation step: draw noise, apply the configured rule."""
    rng = as_generator(seed)
    r = draw_noise(sigma, white_noise, seed=rng)
    if mode == "max-entropy":
        return apply_max_entropy(p, r)
    if mode == "naive":
        return apply_naive(p, r, seed=rng)
    raise ConfigurationError(f"unknown perturbation mode {mode!r}")
