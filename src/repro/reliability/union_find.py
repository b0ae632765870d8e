"""Disjoint-set (union-find) structure with union by size and path halving.

Used for per-world connected-component detection: processing the realized
edges of one sampled world takes near-linear ``O(alpha(n) * m)`` time
(Lemma 2 of the paper cites exactly this bound).  A vectorized helper
computes component labels and the connected-pair count in one pass, which
is the quantity the reliability estimators aggregate.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "UnionFind",
    "component_labels",
    "canonical_component_labels",
    "connected_pair_count",
]


class UnionFind:
    """Classic disjoint-set forest over ``0 .. n-1``."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        self._parent = list(range(n))
        self._size = [1] * n
        self._n_components = n

    @property
    def n_components(self) -> int:
        """Current number of disjoint sets."""
        return self._n_components

    def find(self, x: int) -> int:
        """Representative of ``x``'s set (with path halving)."""
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        self._n_components -= 1
        return True

    def connected(self, a: int, b: int) -> bool:
        """True if ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)

    def component_size(self, x: int) -> int:
        """Size of the set containing ``x``."""
        return self._size[self.find(x)]

    def labels(self) -> np.ndarray:
        """Array mapping each element to its set representative."""
        return np.asarray([self.find(x) for x in range(len(self._parent))],
                          dtype=np.int64)

    def connected_pair_count(self) -> int:
        """Number of unordered vertex pairs inside the same set."""
        roots = {self.find(x) for x in range(len(self._parent))}
        return sum(self._size[r] * (self._size[r] - 1) // 2 for r in roots)


def component_labels(n_nodes: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Component label (representative id) per vertex for one edge set.

    Pure-Python union-find over numpy endpoint arrays; fast enough for the
    per-world loop and dependency-free.  Labels are canonical set
    representatives, *not* consecutive integers.
    """
    uf = UnionFind(n_nodes)
    for u, v in zip(src.tolist(), dst.tolist()):
        uf.union(u, v)
    return uf.labels()


def canonical_component_labels(
    n_nodes: int, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Canonical component labels: consecutive ids in first-appearance order.

    Scanning vertices ``0 .. n-1``, a component receives the next
    consecutive id the first time one of its vertices appears.  This is
    the labeling contract of the block-diagonal scipy batch path in
    :mod:`repro.reliability.connectivity` (whose global ids shifted by
    each row's first id are exactly these); this dependency-free
    implementation is the oracle the labeling property tests compare
    against bit for bit.
    """
    raw = component_labels(n_nodes, src, dst)
    out = np.empty(n_nodes, dtype=np.int32)
    seen: dict[int, int] = {}
    for v, root in enumerate(raw.tolist()):
        label = seen.get(root)
        if label is None:
            label = len(seen)
            seen[root] = label
        out[v] = label
    return out


def connected_pair_count(labels: np.ndarray) -> int:
    """Connected unordered pairs implied by a component labeling."""
    __, counts = np.unique(labels, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())
