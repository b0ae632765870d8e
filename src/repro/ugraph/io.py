"""Reading and writing uncertain graphs.

Two formats are supported:

* **Probabilistic edge list** (``.pel`` / plain text): one edge per line,
  ``u v p`` separated by whitespace, ``#`` comments.  This is the format
  used by public uncertain-graph datasets (DBLP / Brightkite / PPI style
  releases), so real data drops in directly.
* **JSON**: self-describing document with vertex labels, used for
  round-tripping anonymization results together with metadata.
"""

from __future__ import annotations

import json
from pathlib import Path
from ..exceptions import GraphConstructionError, GraphFormatError
from .builder import UncertainGraphBuilder
from .graph import UncertainGraph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_json",
    "write_json",
    "loads_edge_list",
    "dumps_edge_list",
]


def loads_edge_list(text: str, default_probability: float = 1.0) -> UncertainGraph:
    """Parse a probabilistic edge list from a string.

    Lines are ``u v [p]``; a missing probability defaults to
    ``default_probability`` so deterministic edge lists load as certain
    graphs.  Vertex names may be arbitrary tokens; dense ids follow
    first-seen order and the original tokens become labels.
    """
    builder = UncertainGraphBuilder()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphFormatError(
                f"line {lineno}: expected 'u v [p]', got {raw!r}"
            )
        u, v = parts[0], parts[1]
        try:
            p = float(parts[2]) if len(parts) == 3 else default_probability
        except ValueError as exc:
            raise GraphFormatError(
                f"line {lineno}: probability {parts[2]!r} is not a number"
            ) from exc
        try:
            builder.add_edge(u, v, p, on_duplicate="error")
        except GraphConstructionError as exc:
            # Only *validation* failures (bad probability, self-loop,
            # duplicate edge) are parse errors of the input file; a
            # TypeError or the like from a broken builder is a bug and
            # must propagate as one.
            raise GraphFormatError(f"line {lineno}: {exc}") from exc
    return builder.build()


def dumps_edge_list(graph: UncertainGraph, precision: int = 6) -> str:
    """Serialize a graph to the probabilistic edge-list format."""
    labels = graph.labels
    name = (lambda v: labels[v]) if labels else str
    lines = [
        f"{name(u)} {name(v)} {p:.{precision}g}"
        for u, v, p in (e.as_tuple() for e in graph.edges())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def read_edge_list(path, default_probability: float = 1.0) -> UncertainGraph:
    """Load an uncertain graph from an edge-list file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GraphFormatError(f"cannot read edge list: {exc}") from None
    except UnicodeDecodeError as exc:
        raise GraphFormatError(
            f"{path}: not a text edge list ({exc})"
        ) from None
    return loads_edge_list(text, default_probability=default_probability)


def write_edge_list(graph: UncertainGraph, path, precision: int = 6) -> None:
    """Write a graph as a probabilistic edge-list file."""
    Path(path).write_text(dumps_edge_list(graph, precision=precision))


def write_json(graph: UncertainGraph, path_or_file, metadata: dict | None = None) -> None:
    """Write a graph (plus optional metadata) as a JSON document."""
    document = {
        "format": "repro-uncertain-graph",
        "version": 1,
        "n_nodes": graph.n_nodes,
        "labels": graph.labels,
        "edges": [[u, v, p] for u, v, p in (e.as_tuple() for e in graph.edges())],
        "metadata": metadata or {},
    }
    if hasattr(path_or_file, "write"):
        json.dump(document, path_or_file)
    else:
        Path(path_or_file).write_text(json.dumps(document))


def read_json(path_or_file) -> tuple[UncertainGraph, dict]:
    """Read a JSON graph document; returns ``(graph, metadata)``."""
    if hasattr(path_or_file, "read"):
        document = json.load(path_or_file)
    else:
        document = json.loads(Path(path_or_file).read_text())
    if document.get("format") != "repro-uncertain-graph":
        raise GraphFormatError("not a repro uncertain-graph JSON document")
    graph = UncertainGraph(
        document["n_nodes"],
        [tuple(edge) for edge in document["edges"]],
        labels=document.get("labels"),
    )
    return graph, document.get("metadata", {})
