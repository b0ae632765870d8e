"""Dataset profiles, synthetic generators, and loaders.

The three profiles (``dblp``, ``brightkite``, ``ppi``) are scaled-down
synthetic stand-ins for the paper's Table I datasets; see DESIGN.md for
the substitution rationale.
"""

from .generators import (
    barabasi_albert_edges,
    chung_lu_edges,
    erdos_renyi_edges,
    power_law_weights,
)
from .loaders import dataset_tolerance, load_dataset
from .predictor import PredictorModel, prediction_auc, simulate_predicted_graph
from .probability_models import (
    MODEL_NAMES,
    discrete_levels,
    near_uniform,
    probability_model,
    skewed_small,
)
from .profiles import PROFILES, DatasetProfile, load_profile, profile_names

__all__ = [
    "power_law_weights",
    "chung_lu_edges",
    "erdos_renyi_edges",
    "barabasi_albert_edges",
    "discrete_levels",
    "skewed_small",
    "near_uniform",
    "probability_model",
    "MODEL_NAMES",
    "DatasetProfile",
    "PROFILES",
    "load_profile",
    "profile_names",
    "load_dataset",
    "dataset_tolerance",
    "PredictorModel",
    "simulate_predicted_graph",
    "prediction_auc",
]
