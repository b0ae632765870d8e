"""The :class:`UncertainGraph` data structure.

An uncertain graph ``G = (V, E, p)`` is an undirected simple graph whose
edges carry independent existence probabilities (possible-world semantics,
Section III-A of the paper).  Vertices are the integers ``0 .. n-1``;
callers that need named vertices attach a ``labels`` sequence which is
carried around but never interpreted by the algorithms.

The structure is immutable by convention: anonymizers produce *new* graphs
via :meth:`UncertainGraph.with_probabilities` /
:meth:`UncertainGraph.with_edges`, which share the unchanged arrays.  This
keeps "original vs. anonymized" comparisons trivially safe.

Internally edges are stored in three parallel numpy arrays (``src``,
``dst``, ``prob``) with ``src < dst`` canonical orientation, plus a dict
index for O(1) membership tests.  All Monte-Carlo machinery in
:mod:`repro.ugraph.worlds` and :mod:`repro.reliability` operates directly
on these arrays.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..exceptions import GraphConstructionError, InvalidProbabilityError

__all__ = ["UncertainGraph", "Edge"]


class Edge:
    """A single uncertain edge ``(u, v, p)``.

    Lightweight value object yielded by :meth:`UncertainGraph.edges`;
    compares equal to a plain ``(u, v, p)`` tuple for test convenience.
    """

    __slots__ = ("u", "v", "probability")

    def __init__(self, u: int, v: int, probability: float):
        self.u = u
        self.v = v
        self.probability = probability

    def as_tuple(self) -> tuple[int, int, float]:
        return (self.u, self.v, self.probability)

    def __iter__(self):
        return iter(self.as_tuple())

    def __eq__(self, other) -> bool:
        if isinstance(other, Edge):
            return self.as_tuple() == other.as_tuple()
        return tuple(other) == self.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return f"Edge({self.u}, {self.v}, p={self.probability:.6g})"


def _canonical(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def lookup_key_index(
    sorted_keys: np.ndarray, ids: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """``ids[j]`` for each key equal to ``sorted_keys[j]``; ``-1`` if absent.

    ``sorted_keys`` is ascending and unique, ``ids`` parallel to it: the
    ``u * n + v`` pair-key indexes of graphs and world stores.
    """
    out = np.full(keys.shape, -1, dtype=np.int64)
    if keys.size == 0 or sorted_keys.size == 0:
        return out
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    hit = sorted_keys[pos] == keys
    out[hit] = ids[pos[hit]]
    return out


def merge_key_index(
    sorted_keys: np.ndarray,
    ids: np.ndarray,
    new_keys: np.ndarray,
    first_id: int,
) -> tuple[np.ndarray, np.ndarray]:
    """A key index with ``new_keys`` added under ids ``first_id, ...``.

    ``new_keys`` must be unique and absent from ``sorted_keys``; the
    merge then equals a fresh sort of all keys, at O(|keys|) copying.
    Returns new arrays and leaves the inputs untouched, so an index can
    be shared by every graph or store that has not grown since.
    """
    by_key = np.argsort(new_keys)
    at = np.searchsorted(sorted_keys, new_keys[by_key])
    return (
        np.insert(sorted_keys, at, new_keys[by_key]),
        np.insert(ids, at, first_id + by_key),
    )


class UncertainGraph:
    """An undirected uncertain graph with independent edge probabilities.

    Parameters
    ----------
    n_nodes:
        Number of vertices; vertices are ``0 .. n_nodes - 1``.
    edges:
        Iterable of ``(u, v, p)`` triples.  Self-loops and duplicate edges
        are rejected; probabilities must be finite and in ``[0, 1]``.
        Edges with ``p == 0`` are allowed (they represent explicitly
        tracked "potential" edges, as produced by anonymizers).
    labels:
        Optional sequence of per-vertex labels (names).  Purely cosmetic.

    Notes
    -----
    Use :class:`repro.ugraph.builder.UncertainGraphBuilder` for incremental
    construction, and :mod:`repro.ugraph.io` for file round-trips.
    """

    def __init__(
        self,
        n_nodes: int,
        edges: Iterable[tuple[int, int, float]] = (),
        labels: Sequence[str] | None = None,
    ):
        if n_nodes < 0:
            raise GraphConstructionError(f"n_nodes must be >= 0, got {n_nodes}")
        self._n = int(n_nodes)

        src: list[int] = []
        dst: list[int] = []
        prob: list[float] = []
        index: dict[tuple[int, int], int] = {}
        for u, v, p in edges:
            u, v = int(u), int(v)
            if u == v:
                raise GraphConstructionError(f"self-loop on vertex {u} is not allowed")
            if not (0 <= u < self._n and 0 <= v < self._n):
                raise GraphConstructionError(
                    f"edge ({u}, {v}) references a vertex outside 0..{self._n - 1}"
                )
            key = _canonical(u, v)
            if key in index:
                raise GraphConstructionError(f"duplicate edge {key}")
            p = float(p)
            if not np.isfinite(p) or p < 0.0 or p > 1.0:
                raise InvalidProbabilityError(
                    f"edge {key} has probability {p!r}, expected a finite value in [0, 1]"
                )
            index[key] = len(src)
            src.append(key[0])
            dst.append(key[1])
            prob.append(p)

        self._src = np.asarray(src, dtype=np.int64)
        self._dst = np.asarray(dst, dtype=np.int64)
        self._prob = np.asarray(prob, dtype=np.float64)
        self._index = index
        self._labels = list(labels) if labels is not None else None
        if self._labels is not None and len(self._labels) != self._n:
            raise GraphConstructionError(
                f"labels has {len(self._labels)} entries for {self._n} vertices"
            )
        self._adjacency_cache: list[list[int]] | None = None
        self._pair_key_cache: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def n_nodes(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of stored edges (including explicit zero-probability ones)."""
        return len(self._prob)

    @property
    def labels(self) -> list[str] | None:
        return list(self._labels) if self._labels is not None else None

    @property
    def edge_src(self) -> np.ndarray:
        """Read-only array of edge source endpoints (``src < dst``)."""
        return self._src

    @property
    def edge_dst(self) -> np.ndarray:
        """Read-only array of edge destination endpoints."""
        return self._dst

    @property
    def edge_probabilities(self) -> np.ndarray:
        """Read-only array of edge probabilities, aligned with edge indices."""
        return self._prob

    def nodes(self) -> range:
        """The vertex set as a range object."""
        return range(self._n)

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges as :class:`Edge` objects."""
        for i in range(self.n_edges):
            yield Edge(int(self._src[i]), int(self._dst[i]), float(self._prob[i]))

    def has_edge(self, u: int, v: int) -> bool:
        """True if ``(u, v)`` is a stored edge (probability may be 0)."""
        return _canonical(u, v) in self._index

    def edge_id(self, u: int, v: int) -> int:
        """Dense index of edge ``(u, v)``; raises ``KeyError`` if absent."""
        return self._index[_canonical(u, v)]

    def probability(self, u: int, v: int) -> float:
        """Existence probability of edge ``(u, v)``; 0.0 if not stored."""
        i = self._index.get(_canonical(u, v))
        return float(self._prob[i]) if i is not None else 0.0

    def _pair_key_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted ``u * n + v`` edge keys plus the matching edge-id order.

        Structure-only (probability-independent), so clones produced by
        :meth:`with_probabilities` share it.
        """
        if self._pair_key_cache is None:
            keys = self._src * np.int64(self._n) + self._dst
            order = np.argsort(keys, kind="stable")
            self._pair_key_cache = (keys[order], order)
        return self._pair_key_cache

    def pair_edge_ids(self, us, vs) -> np.ndarray:
        """Vectorized :meth:`edge_id` over parallel endpoint arrays.

        Returns the dense edge index of each ``(us[i], vs[i])`` pair and
        ``-1`` for pairs that are not stored edges (including
        out-of-range or degenerate pairs).  One sorted-key search prices
        a whole candidate edge set instead of per-pair dict lookups.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape or us.ndim != 1:
            raise GraphConstructionError(
                f"endpoint arrays must be 1-D and parallel, got shapes "
                f"{us.shape} / {vs.shape}"
            )
        if us.size == 0 or self.n_edges == 0:
            return np.full(us.shape, -1, dtype=np.int64)
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        out = lookup_key_index(
            *self._pair_key_index(), lo * np.int64(self._n) + hi
        )
        out[(lo < 0) | (hi >= self._n) | (lo == hi)] = -1
        return out

    def pair_probabilities(self, us, vs) -> np.ndarray:
        """Vectorized :meth:`probability` over parallel endpoint arrays.

        Returns the existence probability of each ``(us[i], vs[i])``
        pair, 0.0 for pairs that are not stored edges (including
        out-of-range or degenerate pairs, matching the scalar lookup).
        Hot loops (the GenObf trial loop) use this to price a whole
        candidate edge set with one sorted-key search instead of per-pair
        dict lookups.
        """
        ids = self.pair_edge_ids(us, vs)
        out = np.zeros(ids.shape, dtype=np.float64)
        hit = ids >= 0
        out[hit] = self._prob[ids[hit]]
        return out

    def endpoint_pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate over ``(u, v)`` endpoint pairs without probabilities."""
        for i in range(self.n_edges):
            yield (int(self._src[i]), int(self._dst[i]))

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    def expected_degrees(self) -> np.ndarray:
        """Expected degree of every vertex: ``sum of incident probabilities``."""
        deg = np.zeros(self._n, dtype=np.float64)
        np.add.at(deg, self._src, self._prob)
        np.add.at(deg, self._dst, self._prob)
        return deg

    def expected_degree(self, v: int) -> float:
        """Expected degree of a single vertex."""
        if not 0 <= v < self._n:
            raise KeyError(f"vertex {v} not in graph with {self._n} vertices")
        mask = (self._src == v) | (self._dst == v)
        return float(self._prob[mask].sum())

    def incident_edge_ids(self, v: int) -> np.ndarray:
        """Dense indices of edges incident to ``v``."""
        return np.flatnonzero((self._src == v) | (self._dst == v))

    def adjacency(self) -> list[list[int]]:
        """Adjacency lists over the *stored* edge structure (cached).

        Includes zero-probability edges; use a sampled possible world for
        realized adjacency.
        """
        if self._adjacency_cache is None:
            adj: list[list[int]] = [[] for __ in range(self._n)]
            for u, v in zip(self._src.tolist(), self._dst.tolist()):
                adj[u].append(v)
                adj[v].append(u)
            self._adjacency_cache = adj
        return self._adjacency_cache

    def total_probability_mass(self) -> float:
        """Sum of all edge probabilities (== expected number of edges)."""
        return float(self._prob.sum())

    def mean_edge_probability(self) -> float:
        """Average probability over stored edges (0.0 for edgeless graphs)."""
        if self.n_edges == 0:
            return 0.0
        return float(self._prob.mean())

    # ------------------------------------------------------------------ #
    # Functional updates
    # ------------------------------------------------------------------ #

    def with_probabilities(self, probabilities: np.ndarray) -> "UncertainGraph":
        """New graph with the same structure but replaced probabilities.

        ``probabilities`` must align with the dense edge indexing of this
        graph (``edge_probabilities`` order).
        """
        probabilities = np.asarray(probabilities, dtype=np.float64)
        if probabilities.shape != self._prob.shape:
            raise GraphConstructionError(
                f"expected {self._prob.shape[0]} probabilities, got {probabilities.shape}"
            )
        if not np.all(np.isfinite(probabilities)):
            raise InvalidProbabilityError("probabilities must be finite")
        if probabilities.min(initial=0.0) < 0.0 or probabilities.max(initial=0.0) > 1.0:
            raise InvalidProbabilityError("probabilities must lie in [0, 1]")
        clone = object.__new__(UncertainGraph)
        clone._n = self._n
        clone._src = self._src
        clone._dst = self._dst
        clone._prob = probabilities.copy()
        clone._index = self._index
        clone._labels = self._labels
        clone._adjacency_cache = self._adjacency_cache
        clone._pair_key_cache = self._pair_key_cache
        return clone

    def with_edges(self, edges: Iterable[tuple[int, int, float]]) -> "UncertainGraph":
        """New graph on the same vertex set with a different edge set."""
        return UncertainGraph(self._n, edges, labels=self._labels)

    def dropping_zero_edges(self, tolerance: float = 0.0) -> "UncertainGraph":
        """New graph without edges whose probability is ``<= tolerance``.

        Anonymizers track candidate edges explicitly at probability 0; this
        strips them before publishing.
        """
        keep = self._prob > tolerance
        triples = zip(
            self._src[keep].tolist(), self._dst[keep].tolist(), self._prob[keep].tolist()
        )
        return UncertainGraph(self._n, triples, labels=self._labels)

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #

    def to_networkx(self):
        """Export to a :class:`networkx.Graph` with ``probability`` edge data."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        for u, v, p in zip(self._src.tolist(), self._dst.tolist(), self._prob.tolist()):
            g.add_edge(u, v, probability=p)
        return g

    @classmethod
    def from_networkx(cls, graph, probability_attribute: str = "probability",
                      default_probability: float = 1.0) -> "UncertainGraph":
        """Build from a networkx graph.

        Node identifiers are relabeled to ``0..n-1`` in sorted order when
        possible, insertion order otherwise; the original identifiers become
        vertex labels.
        """
        nodes = list(graph.nodes())
        try:
            nodes = sorted(nodes)
        except TypeError:
            pass
        position = {node: i for i, node in enumerate(nodes)}
        triples = [
            (
                position[u],
                position[v],
                float(data.get(probability_attribute, default_probability)),
            )
            for u, v, data in graph.edges(data=True)
        ]
        return cls(len(nodes), triples, labels=[str(n) for n in nodes])

    def deterministic_world(self, threshold: float = 0.5):
        """Endpoint pairs of edges with probability ``>= threshold``.

        This is the "most probable world" used as one representative
        extraction strategy (see :mod:`repro.baselines.representative`).
        """
        keep = self._prob >= threshold
        return list(zip(self._src[keep].tolist(), self._dst[keep].tolist()))

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._n

    def __contains__(self, item) -> bool:
        if isinstance(item, int):
            return 0 <= item < self._n
        if isinstance(item, tuple) and len(item) == 2:
            return self.has_edge(*item)
        return False

    def __eq__(self, other) -> bool:
        if not isinstance(other, UncertainGraph):
            return NotImplemented
        return (
            self._n == other._n
            and self._index == other._index
            and np.array_equal(self._prob, other._prob)
        )

    def __repr__(self) -> str:
        return (
            f"UncertainGraph(n_nodes={self._n}, n_edges={self.n_edges}, "
            f"mean_p={self.mean_edge_probability():.4f})"
        )
