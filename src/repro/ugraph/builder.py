"""Incremental construction of :class:`~repro.ugraph.graph.UncertainGraph`.

The graph type itself is immutable; the builder collects vertices and edges
with whatever identifiers the caller uses (strings, arbitrary hashables)
and produces a dense, validated graph at the end.
"""

from __future__ import annotations

from typing import Hashable

from ..exceptions import GraphConstructionError, InvalidProbabilityError
from .graph import UncertainGraph

__all__ = ["UncertainGraphBuilder"]


class UncertainGraphBuilder:
    """Accumulates vertices and uncertain edges, then builds a graph.

    Vertices are created implicitly by :meth:`add_edge` or explicitly by
    :meth:`add_node`; their dense ids follow first-seen order.

    Example
    -------
    >>> b = UncertainGraphBuilder()
    >>> b.add_edge("alice", "bob", 0.9)
    >>> b.add_edge("bob", "carol", 0.4)
    >>> g = b.build()
    >>> g.n_nodes, g.n_edges
    (3, 2)
    """

    def __init__(self):
        self._ids: dict[Hashable, int] = {}
        self._labels: list[str] = []
        self._edges: dict[tuple[int, int], float] = {}

    def add_node(self, name: Hashable) -> int:
        """Register a vertex (idempotent) and return its dense id."""
        existing = self._ids.get(name)
        if existing is not None:
            return existing
        node = len(self._ids)
        self._ids[name] = node
        self._labels.append(str(name))
        return node

    def add_edge(self, u: Hashable, v: Hashable, probability: float,
                 on_duplicate: str = "error") -> None:
        """Add the uncertain edge ``(u, v, probability)``.

        Parameters
        ----------
        on_duplicate:
            ``"error"`` (default) rejects repeated edges, ``"keep-max"``
            keeps the larger probability, ``"overwrite"`` keeps the last
            one -- convenient when ingesting noisy edge lists.
        """
        probability = float(probability)
        if not 0.0 <= probability <= 1.0:
            raise InvalidProbabilityError(
                f"edge ({u!r}, {v!r}) has probability {probability}, expected [0, 1]"
            )
        iu, iv = self.add_node(u), self.add_node(v)
        if iu == iv:
            raise GraphConstructionError(f"self-loop on {u!r} is not allowed")
        key = (iu, iv) if iu < iv else (iv, iu)
        if key in self._edges:
            if on_duplicate == "error":
                raise GraphConstructionError(f"duplicate edge ({u!r}, {v!r})")
            if on_duplicate == "keep-max":
                self._edges[key] = max(self._edges[key], probability)
            elif on_duplicate == "overwrite":
                self._edges[key] = probability
            else:
                raise GraphConstructionError(
                    f"unknown duplicate policy {on_duplicate!r}"
                )
        else:
            self._edges[key] = probability

    @property
    def n_nodes(self) -> int:
        return len(self._ids)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def build(self) -> UncertainGraph:
        """Produce the validated immutable graph."""
        triples = [(u, v, p) for (u, v), p in self._edges.items()]
        return UncertainGraph(len(self._ids), triples, labels=self._labels)
