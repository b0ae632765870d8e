"""The paper's primary contribution: the Chameleon anonymizer.

* :class:`ChameleonConfig` / :func:`variant_config` -- configuration and
  the RSME / RS / ME variant presets (Table II).
* :func:`anonymize` / :class:`Chameleon` -- Algorithm 1 (noise search).
* :func:`gen_obf` -- Algorithm 3 (randomized obfuscation attempt).
* :mod:`repro.core.parallel` -- deterministic execution of the GenObf
  trials (per-trial ``SeedSequence`` streams, one serial engine).
* :mod:`repro.core.noise` -- truncated-normal noise and the max-entropy
  perturbation rule (Section V-F).
* :mod:`repro.core.selection` -- uncertainty-aware edge selection.
* :mod:`repro.core.resilience` -- the sigma-search checkpoint journal
  (bit-identical resume of an interrupted run).
"""

from .chameleon import Chameleon, anonymize
from .config import VARIANTS, ChameleonConfig, variant_config
from .diagnostics import (
    FeasibilityReport,
    diagnose_feasibility,
    execution_environment,
    peak_rss_bytes,
)
from .refine import RefinementStats, refine_anonymization
from .sweep import sweep_anonymize
from .genobf import SelectionContext, build_selection_context, gen_obf
from .noise import (
    apply_max_entropy,
    apply_naive,
    draw_noise,
    perturb_probabilities,
    truncated_normal_noise,
)
from .parallel import SerialTrialEngine, TrialResult
from .resilience import SigmaSearchJournal
from .result import AnonymizationResult, GenObfOutcome
from .selection import exclusion_set, select_candidate_edges, selection_weights

__all__ = [
    "Chameleon",
    "anonymize",
    "ChameleonConfig",
    "variant_config",
    "VARIANTS",
    "SelectionContext",
    "build_selection_context",
    "gen_obf",
    "AnonymizationResult",
    "GenObfOutcome",
    "TrialResult",
    "SerialTrialEngine",
    "SigmaSearchJournal",
    "truncated_normal_noise",
    "draw_noise",
    "apply_max_entropy",
    "apply_naive",
    "perturb_probabilities",
    "exclusion_set",
    "selection_weights",
    "select_candidate_edges",
    "FeasibilityReport",
    "diagnose_feasibility",
    "execution_environment",
    "peak_rss_bytes",
    "RefinementStats",
    "refine_anonymization",
    "sweep_anonymize",
]
