"""Configuration for the Chameleon anonymizer and its variants.

:class:`ChameleonConfig` gathers every knob of Algorithms 1 and 3 with
the paper's defaults.  The three uncertainty-aware variants evaluated in
Section VI (Table II) are expressed as two orthogonal switches:

======  =======================  ==========================
name    edge selection           probability perturbation
======  =======================  ==========================
RSME    reliability-sensitive    max-entropy (anonymity-oriented)
RS      reliability-sensitive    naive random-direction
ME      uniqueness-only          max-entropy (anonymity-oriented)
======  =======================  ==========================

(The fourth method, Rep-An, lives in :mod:`repro.baselines`.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..exceptions import ConfigurationError

__all__ = ["ChameleonConfig", "variant_config", "VARIANTS"]

_SELECTION_MODES = ("reliability-sensitive", "uniqueness-only")
_PERTURBATION_MODES = ("max-entropy", "naive")


@dataclass(frozen=True)
class ChameleonConfig:
    """All tunables of the Chameleon anonymization pipeline.

    Attributes
    ----------
    k:
        Required obfuscation level (``H(Y) >= log2 k``).
    epsilon:
        Tolerated fraction of non-obfuscated vertices.
    size_multiplier:
        ``c`` of Algorithm 3 -- the candidate edge set grows (or shrinks)
        to ``c * |E|`` edges before perturbation.
    white_noise:
        ``q`` -- probability that an edge receives uniform U(0,1) noise
        instead of the truncated-normal draw, which guarantees a fat tail
        of strong perturbations.
    n_trials:
        ``t`` -- randomized attempts per GenObf call.
    relevance_samples:
        Possible worlds used to estimate reliability relevance.
    relevance_method:
        ``"merge-gain"`` (default) or ``"grouped"`` (Algorithm 2 verbatim).
    utility_samples:
        Possible worlds for utility verification.  When positive, the
        anonymizer builds a :class:`repro.reliability.WorldStore` of the
        input graph and, once the sigma search is over, scores the
        accepted candidate's reliability discrepancy on it (dirty-world
        relabeling); ``AnonymizationResult.utility_discrepancy`` reports
        it.  The search steers sigma by privacy alone, so no other
        probe is scored.  0 (default) skips utility verification.
    world_memory_budget:
        Soft cap, in bytes, on the per-chunk temporaries and the
        ``(N, M)`` pair-equality cache of any single
        :class:`repro.reliability.WorldStore` -- not on the process:
        the store's blocks all stay resident on the heap.  When set,
        stores partition their uniform/mask/label matrices into
        world-chunks sized to the budget and skip the pair-equality
        cache when it alone would exceed it; results are bit-identical
        at every chunk size.  ``None`` (default) keeps the single-chunk
        layout.  ``REPRO_WORLD_CHUNK`` overrides the chunk size
        directly.
    selection_mode:
        ``"reliability-sensitive"`` folds (1 - normalized VRR) into the
        vertex sampling weights; ``"uniqueness-only"`` uses uniqueness
        alone (the ME ablation).
    perturbation_mode:
        ``"max-entropy"`` applies ``p + (1 - 2p) r`` (Section V-F);
        ``"naive"`` applies ``p +/- r`` clipped to [0, 1] (the RS
        ablation).
    sigma_initial / sigma_max / sigma_tolerance:
        Binary-search bracket of Algorithm 1: the upper bound starts at
        ``sigma_initial``, doubles until a feasible noise level is found
        (capped at ``sigma_max``), then bisects until the bracket is
        narrower than ``sigma_tolerance``.
    uniqueness_bandwidth:
        Kernel bandwidth ``theta`` for uniqueness scores; ``None`` uses
        the spread of the graph's expected degrees (Section V-C).
    seed:
        Reproducibility seed for the whole pipeline.
    checkpoint_path:
        Path of the sigma-search checkpoint journal.  When set, every
        completed probe is appended to the journal so an interrupted run
        can resume bit-identically.
    resume:
        Replay completed probes from ``checkpoint_path`` instead of
        recomputing them.  Requires ``checkpoint_path``; the journal
        must match this run's graph, configuration and entropy.
    """

    k: int = 20
    epsilon: float = 1e-2
    size_multiplier: float = 1.3
    white_noise: float = 0.01
    n_trials: int = 5
    relevance_samples: int = 400
    relevance_method: str = "merge-gain"
    utility_samples: int = 0
    world_memory_budget: int | None = None
    selection_mode: str = "reliability-sensitive"
    perturbation_mode: str = "max-entropy"
    sigma_initial: float = 1.0
    sigma_max: float = 64.0
    sigma_tolerance: float = 0.02
    uniqueness_bandwidth: float | None = None
    seed: int | None = None
    checkpoint_path: str | None = None
    resume: bool = False
    name: str = "rsme"

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ConfigurationError(
                f"epsilon must be in [0, 1), got {self.epsilon}"
            )
        if not 1.0 <= self.size_multiplier < math.inf:
            raise ConfigurationError(
                "size_multiplier must be finite and >= 1 (the candidate-"
                "selection walk of Algorithm 3 needs c >= 1), got "
                f"{self.size_multiplier}"
            )
        if not 0.0 <= self.white_noise <= 1.0:
            raise ConfigurationError(
                f"white_noise must be in [0, 1], got {self.white_noise}"
            )
        if self.n_trials < 1:
            raise ConfigurationError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.relevance_samples < 1:
            raise ConfigurationError(
                f"relevance_samples must be >= 1, got {self.relevance_samples}"
            )
        if self.utility_samples < 0:
            raise ConfigurationError(
                f"utility_samples must be >= 0, got {self.utility_samples}"
            )
        if self.world_memory_budget is not None \
                and self.world_memory_budget < 1:
            raise ConfigurationError(
                "world_memory_budget must be a positive byte count (or None "
                f"for unbounded), got {self.world_memory_budget}"
            )
        if self.selection_mode not in _SELECTION_MODES:
            raise ConfigurationError(
                f"selection_mode must be one of {_SELECTION_MODES}, "
                f"got {self.selection_mode!r}"
            )
        if self.perturbation_mode not in _PERTURBATION_MODES:
            raise ConfigurationError(
                f"perturbation_mode must be one of {_PERTURBATION_MODES}, "
                f"got {self.perturbation_mode!r}"
            )
        if not 0.0 < self.sigma_initial <= self.sigma_max < math.inf:
            raise ConfigurationError(
                "need 0 < sigma_initial <= sigma_max, both finite, got "
                f"{self.sigma_initial} / {self.sigma_max}"
            )
        if not 0.0 < self.sigma_tolerance < math.inf:
            raise ConfigurationError(
                "sigma_tolerance must be finite and positive, got "
                f"{self.sigma_tolerance}"
            )
        if self.resume and self.checkpoint_path is None:
            raise ConfigurationError(
                "resume=True needs checkpoint_path: there is no journal to "
                "replay without one"
            )

    @property
    def reliability_oriented(self) -> bool:
        """True when reliability relevance steers edge selection."""
        return self.selection_mode == "reliability-sensitive"

    @property
    def anonymity_oriented(self) -> bool:
        """True when the max-entropy perturbation rule is active."""
        return self.perturbation_mode == "max-entropy"

    def with_privacy(self, k: int, epsilon: float) -> "ChameleonConfig":
        """Copy with a different privacy target."""
        return replace(self, k=k, epsilon=epsilon)


#: Variant presets of Table II, keyed by their paper names.
VARIANTS: dict[str, dict] = {
    "rsme": {
        "selection_mode": "reliability-sensitive",
        "perturbation_mode": "max-entropy",
    },
    "rs": {
        "selection_mode": "reliability-sensitive",
        "perturbation_mode": "naive",
    },
    "me": {
        "selection_mode": "uniqueness-only",
        "perturbation_mode": "max-entropy",
    },
}


def variant_config(name: str, **overrides) -> ChameleonConfig:
    """Build the configuration of a named Chameleon variant.

    ``name`` is one of ``"rsme"``, ``"rs"``, ``"me"`` (case-insensitive);
    remaining keyword arguments override any :class:`ChameleonConfig`
    field.
    """
    key = name.lower()
    preset = VARIANTS.get(key)
    if preset is None:
        raise ConfigurationError(
            f"unknown variant {name!r}; expected one of {sorted(VARIANTS)}"
        )
    fields = dict(preset)
    fields["name"] = key
    fields.update(overrides)
    return ChameleonConfig(**fields)
