"""repro -- Chameleon: reliability-preserving anonymization of uncertain graphs.

A faithful, production-quality reproduction of *"Sharing Uncertain Graphs
Using Syntactic Private Graph Models"* (Xiao, Eltabakh, Kong -- ICDE 2018).

Quickstart
----------
>>> import repro
>>> graph = repro.load_dataset("ppi", seed=7)
>>> result = repro.anonymize(graph, k=10, epsilon=0.05, method="rsme", seed=7)
>>> result.success                                     # doctest: +SKIP
True
>>> repro.reliability_discrepancy(graph, result.graph)  # doctest: +SKIP
0.01...

Package map
-----------
* :mod:`repro.ugraph` -- the uncertain-graph data model.
* :mod:`repro.reliability` -- reliability estimation and relevance.
* :mod:`repro.privacy` -- (k, epsilon)-obfuscation, uniqueness, attacks.
* :mod:`repro.core` -- the Chameleon anonymizer (the paper's contribution).
* :mod:`repro.baselines` -- Rep-An and its components.
* :mod:`repro.metrics` -- utility-preservation evaluation suite.
* :mod:`repro.anf` -- neighborhood-function sketches.
* :mod:`repro.datasets` -- dataset profiles and generators.
"""

from .baselines import extract_representative, obfuscate_deterministic, rep_an
from .core import (
    AnonymizationResult,
    Chameleon,
    ChameleonConfig,
    anonymize,
    diagnose_feasibility,
    refine_anonymization,
    variant_config,
)
from .report import build_report
from .datasets import load_dataset, load_profile, profile_names
from .exceptions import (
    ConfigurationError,
    EstimationError,
    GraphConstructionError,
    GraphFormatError,
    InvalidProbabilityError,
    ObfuscationError,
    ReproError,
)
from .metrics import compare_graphs, expected_average_degree
from .privacy import check_obfuscation, expected_degree_knowledge
from .reliability import (
    DerivedWorlds,
    WorldStore,
    graph_delta,
    reliability_discrepancy,
)
from .ugraph import (
    UncertainGraph,
    UncertainGraphBuilder,
    WorldSampler,
    read_edge_list,
    write_edge_list,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # data model
    "UncertainGraph",
    "UncertainGraphBuilder",
    "WorldSampler",
    "read_edge_list",
    "write_edge_list",
    # anonymizers
    "anonymize",
    "Chameleon",
    "ChameleonConfig",
    "variant_config",
    "AnonymizationResult",
    "rep_an",
    "extract_representative",
    "obfuscate_deterministic",
    "diagnose_feasibility",
    "refine_anonymization",
    "build_report",
    # privacy & reliability
    "check_obfuscation",
    "expected_degree_knowledge",
    "reliability_discrepancy",
    "WorldStore",
    "DerivedWorlds",
    "graph_delta",
    # metrics
    "compare_graphs",
    "expected_average_degree",
    # datasets
    "load_dataset",
    "load_profile",
    "profile_names",
    # errors
    "ReproError",
    "GraphConstructionError",
    "InvalidProbabilityError",
    "GraphFormatError",
    "EstimationError",
    "ObfuscationError",
    "ConfigurationError",
]
