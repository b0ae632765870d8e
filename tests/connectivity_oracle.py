"""Per-world connected-components labeling as a test oracle.

Production labels a whole world batch through one block-diagonal
``connected_components`` call
(:func:`repro.reliability.connectivity.component_labels_for_edges`).
The oracle behind the same signature builds one sparse adjacency and
makes one scipy call per world.  scipy numbers components in order of
first appearance over the vertex scan, so the oracle's rows are the
canonical labels the kernel promises -- equal bit for bit, as are those
of :func:`repro.reliability.union_find.canonical_component_labels`.

:func:`use_oracle_labeler` routes every labeling of the Monte-Carlo
stack through the oracle, so a whole estimator, discrepancy or CLI run
can be compared against an unpatched one.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.reliability import connectivity, worldstore


def world_component_labels(
    n_nodes: int, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Canonical component labels of one world (one scipy call)."""
    if src.size == 0:
        return np.arange(n_nodes, dtype=np.int32)
    data = np.ones(src.shape[0], dtype=np.int8)
    adjacency = coo_matrix((data, (src, dst)), shape=(n_nodes, n_nodes))
    __, labels = connected_components(adjacency, directed=False)
    return labels.astype(np.int32)


def oracle_component_labels(
    n_nodes: int, src: np.ndarray, dst: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """The kernel's contract, one world at a time: ``(N, n_nodes)`` int32."""
    masks = np.asarray(masks, dtype=bool)
    out = np.empty((masks.shape[0], n_nodes), dtype=np.int32)
    for i, keep in enumerate(masks):
        out[i] = world_component_labels(n_nodes, src[keep], dst[keep])
    return out


def use_oracle_labeler(monkeypatch) -> None:
    """Label every world batch through :func:`oracle_component_labels`.

    Both module-level names are patched: the world store's (its label
    reads, dirty-world relabels and rebase flushes) and the one
    :func:`repro.reliability.batch_component_labels` calls (relevance
    sampling and the component metrics).
    """
    for module in (connectivity, worldstore):
        monkeypatch.setattr(
            module, "component_labels_for_edges", oracle_component_labels
        )
