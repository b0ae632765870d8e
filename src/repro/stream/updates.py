"""Edge-probability update batches.

An :class:`UpdateBatch` is the unit of graph evolution the incremental
re-certification pipeline ingests: a set of ``(u, v, p_old, p_new)``
edge-probability changes against a *published* uncertain graph.  The
``p_old`` column is not redundant -- it is the optimistic-concurrency
token every downstream consumer (:class:`~repro.privacy.incremental.
DegreeUncertaintyCache`, :meth:`~repro.reliability.worldstore.WorldStore.
rebase`) validates against its own base state, so a batch built from a
stale view fails loudly instead of silently corrupting the caches.

Batches canonicalize endpoints (``u < v``) and reject duplicate pairs at
construction: "last write wins" merging is a policy decision that
belongs to whoever *builds* the batch, not something to apply silently
while certifying privacy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..exceptions import GraphFormatError, ObfuscationError
from ..reliability.worldstore import graph_delta
from ..ugraph.graph import UncertainGraph

__all__ = ["UpdateBatch", "read_update_file", "write_update_file"]


@dataclass(frozen=True)
class UpdateBatch:
    """A validated batch of edge-probability updates.

    Four parallel arrays, one row per changed pair, endpoints canonical
    (``u < v``), no duplicate pairs, probabilities finite in ``[0, 1]``.
    Build through :meth:`from_deltas` / :meth:`from_graphs` /
    :func:`read_update_file` rather than the raw constructor.
    """

    us: np.ndarray
    vs: np.ndarray
    p_old: np.ndarray
    p_new: np.ndarray

    @classmethod
    def from_deltas(
        cls, deltas: Iterable[tuple[int, int, float, float]]
    ) -> "UpdateBatch":
        """Build from ``(u, v, p_old, p_new)`` tuples.

        Vertex ids must be Python or NumPy integers below ``2**63``
        (floats are rejected, never truncated) and probabilities numbers
        in ``[0, 1]``.  An invalid row raises :class:`ObfuscationError`
        naming it by its 0-based position, ``update row i``.
        """
        return cls._from_rows(deltas, lambda row: f"update row {row}")

    @classmethod
    def _from_rows(
        cls, deltas: Iterable[tuple[int, int, float, float]], where
    ) -> "UpdateBatch":
        """Validate and build; ``where(i)`` names row ``i`` in errors."""
        us: list[int] = []
        vs: list[int] = []
        p_old: list[float] = []
        p_new: list[float] = []
        seen: dict[tuple[int, int], int] = {}
        for row_number, row in enumerate(deltas):
            try:
                u, v, old, new = row
            except (TypeError, ValueError):
                raise ObfuscationError(
                    f"{where(row_number)}: not a (u, v, p_old, p_new) "
                    f"tuple: {row!r}"
                ) from None
            try:
                u, v = operator.index(u), operator.index(v)
            except TypeError:
                raise ObfuscationError(
                    f"{where(row_number)}: vertex ids must be integers, got "
                    f"({u!r}, {v!r})"
                ) from None
            if u == v:
                raise ObfuscationError(
                    f"{where(row_number)}: self-loop on vertex {u}"
                )
            if u < 0 or v < 0:
                raise ObfuscationError(
                    f"{where(row_number)}: negative vertex id ({u}, {v})"
                )
            if max(u, v) >= 2**63:
                raise ObfuscationError(
                    f"{where(row_number)}: vertex id outside the int64 range"
                )
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise ObfuscationError(
                    f"{where(row_number)}: names pair {pair} more than "
                    f"once (first at {where(seen[pair])}); merge duplicate "
                    "updates before building the batch"
                )
            seen[pair] = row_number
            try:
                old, new = float(old), float(new)
            except (TypeError, ValueError, OverflowError):
                raise ObfuscationError(
                    f"{where(row_number)}: probabilities must be numbers, "
                    f"got ({old!r}, {new!r})"
                ) from None
            for label, p in (("p_old", old), ("p_new", new)):
                if not math.isfinite(p) or p < 0.0 or p > 1.0:
                    raise ObfuscationError(
                        f"{where(row_number)}: {label}={p!r}, expected a "
                        "finite probability in [0, 1]"
                    )
            us.append(pair[0])
            vs.append(pair[1])
            p_old.append(old)
            p_new.append(new)
        return cls(
            us=np.asarray(us, dtype=np.int64),
            vs=np.asarray(vs, dtype=np.int64),
            p_old=np.asarray(p_old, dtype=np.float64),
            p_new=np.asarray(p_new, dtype=np.float64),
        )

    @classmethod
    def from_graphs(
        cls, base: UncertainGraph, updated: UncertainGraph
    ) -> "UpdateBatch":
        """The batch that turns ``base`` into ``updated``.

        Pairs absent from a graph count as probability 0, so this also
        captures edge insertions and deletions.
        """
        return cls.from_deltas(graph_delta(base, updated))

    # -- views ----------------------------------------------------------- #

    def __len__(self) -> int:
        return int(self.us.shape[0])

    def __iter__(self) -> Iterator[tuple[int, int, float, float]]:
        return iter(self.as_delta())

    def as_delta(self) -> list[tuple[int, int, float, float]]:
        """The batch as ``(u, v, p_old, p_new)`` tuples."""
        return list(
            zip(
                self.us.tolist(),
                self.vs.tolist(),
                self.p_old.tolist(),
                self.p_new.tolist(),
            )
        )

    def touched_vertices(self) -> np.ndarray:
        """Sorted unique endpoints of the updated pairs."""
        return np.unique(np.concatenate([self.us, self.vs]))

    def validate_against(self, graph: UncertainGraph) -> None:
        """Fail fast if the batch cannot apply to ``graph``.

        Checks vertex bounds and the ``p_old`` concurrency token (pairs
        absent from the graph have probability 0).  The degree cache and
        world store each re-validate on ingestion; this front-loads the
        same failure to before any state is touched.
        """
        n = graph.n_nodes
        for u, v, old, __ in self.as_delta():
            if v >= n:
                raise ObfuscationError(
                    f"update pair ({u}, {v}) is out of range for a graph "
                    f"with {n} vertices"
                )
            stored = graph.probability(u, v)
            if old != stored:
                raise ObfuscationError(
                    f"update claims p_old={old!r} for pair ({u}, {v}), but "
                    f"the published graph has {stored!r}; rebuild the batch "
                    "against the current published state"
                )


def read_update_file(path: str | Path) -> UpdateBatch:
    """Parse an update file: ``u v p_old p_new`` per line.

    Blank lines and ``#`` comments are ignored; every error names the
    file and the line it is on, as ``path:line: ...``.  Probabilities are
    parsed with full float precision (``write_update_file`` emits
    ``repr`` round-trippable values), because ``p_old`` must match the
    published graph *exactly* for the staleness check to pass.
    """
    path = Path(path)
    deltas: list[tuple[int, int, float, float]] = []
    line_numbers: list[int] = []
    try:
        with path.open("r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise GraphFormatError(f"cannot read update file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not UTF-8 text ({exc})") from None
    for line_number, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 4:
            raise GraphFormatError(
                f"{path}:{line_number}: expected 'u v p_old p_new', "
                f"got {line.rstrip()!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
            old, new = float(parts[2]), float(parts[3])
        except ValueError as exc:
            raise GraphFormatError(f"{path}:{line_number}: {exc}") from None
        deltas.append((u, v, old, new))
        line_numbers.append(line_number)
    try:
        return UpdateBatch._from_rows(
            deltas, lambda row: f"{path}:{line_numbers[row]}"
        )
    except ObfuscationError as exc:
        raise GraphFormatError(str(exc)) from None


def write_update_file(batch: UpdateBatch, path: str | Path) -> None:
    """Write a batch in the format :func:`read_update_file` parses.

    Floats are written with ``repr`` so the round-trip is bit-exact --
    unlike graph edge lists (fixed precision), update files carry the
    ``p_old`` concurrency token and must survive a disk hop unchanged.
    """
    path = Path(path)
    lines = ["# u v p_old p_new\n"]
    for u, v, old, new in batch.as_delta():
        lines.append(f"{u} {v} {old!r} {new!r}\n")
    path.write_text("".join(lines), encoding="utf-8")
