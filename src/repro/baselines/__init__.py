"""Baseline methods the paper compares against.

* :func:`extract_representative` and friends -- Parchas et al.
  representative-instance extraction.
* :func:`obfuscate_deterministic` -- Boldi et al. deterministic-graph
  (k, epsilon)-obfuscation.
* :func:`rep_an` / :class:`RepAn` -- the combined Rep-An benchmark
  pipeline (Section IV).
"""

from .deterministic_obfuscation import obfuscate_deterministic
from .repan import RepAn, rep_an
from .representative import (
    adr_representative,
    degree_discrepancy,
    extract_representative,
    greedy_representative,
    most_probable_world,
)

__all__ = [
    "most_probable_world",
    "greedy_representative",
    "adr_representative",
    "extract_representative",
    "degree_discrepancy",
    "obfuscate_deterministic",
    "rep_an",
    "RepAn",
]
