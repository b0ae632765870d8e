"""Delta-based (k, epsilon)-obfuscation checking for trial loops.

GenObf (Algorithm 3) evaluates the obfuscation criterion once per trial,
and the sigma search of Algorithm 1 runs GenObf dozens of times; every
trial perturbs the same base graph.  :class:`DegreeUncertaintyCache`
holds that base graph's degree-uncertainty matrix and answers each
trial's check from a *delta* -- parallel ``(u, v, p_old, p_new)`` edge
update arrays -- without materializing the candidate graph.

Measured traffic
----------------
A GenObf delta is the whole candidate edge set ``E_C``: at the default
``size_multiplier`` (1.3) it is about ``1.3 |E|`` entries and touches
nearly every vertex (5,888 entries touching 889 of 890 rows on the
dblp-like benchmark graph).  So for GenObf the cache does not save
rows: about every pmf row is recomputed on every check.  What it buys
is a base built once (pmf matrix and incident index) and cheap
rollback, instead of a candidate graph per trial.  Deltas of the
streaming path (:mod:`repro.stream`) and of targeted repair are small,
and there the untouched rows are genuinely reused.

The delta engine
----------------
Construction, :meth:`~DegreeUncertaintyCache.check_edge_arrays` (the
GenObf and repair path), its tuple adapter
:meth:`~DegreeUncertaintyCache.check_delta`,
:meth:`~DegreeUncertaintyCache.check_base` and
:meth:`~DegreeUncertaintyCache.apply_edge_arrays` (the stream path)
share one array-native engine:

1. **Validate** the delta with vector operations (self-loops, vertices
   outside the graph, duplicate pairs, non-finite or out-of-range
   probabilities, stale ``p_old``) through
   :meth:`~repro.ugraph.graph.UncertainGraph.pair_edge_ids`.  The first
   offending entry raises, with the message a per-entry scan would give.
2. **Gather** each touched vertex's incident probabilities from a CSR
   incident index (``indptr`` plus edge ids in ascending dense order):
   overrides are scattered onto one copy of the base probabilities,
   fresh pairs are appended in delta order, zeros are dropped.
   Construction gathers every vertex of the base graph.
3. **Recompute** the touched rows with a batched Poisson-binomial DP
   written straight into the matrix rows, then derive the column
   entropies and the report; checks roll the rows back afterwards, and
   the base check is this step with nothing to recompute.

The CSR index is immutable: :meth:`~DegreeUncertaintyCache.
apply_edge_arrays` rebinds an extended copy (appended edge ids go at
the end of their endpoints' segments), so clones that share it never
observe each other's updates.  Beside the matrix the cache keeps its
per-entry entropy terms ``m ln m``; ``apply_edge_arrays`` recomputes
the terms of the rows it rewrites and ``check_base`` sums them instead
of taking a log of every entry.  Checks bypass the terms: a GenObf
delta touches nearly every row, so patching and rolling back their
terms would cost more row copies than the logs they save.

Bit-identical guarantee
-----------------------
The cache reproduces exactly what
:func:`~repro.privacy.obfuscation.check_obfuscation` computes on
``apply_edge_updates(base, delta)``:

* A touched vertex's factors are ordered as the candidate graph stores
  its incident edges: original edges by ascending dense id (overrides
  applied), then fresh pairs in delta first-occurrence order, zeros
  dropped.  The batched DP performs the per-row kernel's two-term
  multiply-add on every row at once, so each pmf is the same float
  sequence bit for bit.
* Untouched rows are reused verbatim.
* The matrix only ever grows wider; extra trailing all-zero columns
  have entropy ``+inf``, the value
  :func:`~repro.privacy.obfuscation.report_from_entropy_profile` pads
  out-of-support knowledge with, so reports are unaffected.

Property tests in ``tests/test_incremental.py`` assert report equality
(entropies, mask, epsilon-hat, bitwise) against the full checker on
random and GenObf-shaped deltas, and pin the batched DP to
:func:`~repro.privacy.degree_distribution.poisson_binomial_pmf` row by
row.  The full recompute, :func:`~repro.privacy.check_obfuscation`,
is the correctness oracle those tests compare against.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ObfuscationError
from ..ugraph.graph import UncertainGraph
from ..ugraph.operations import apply_edge_updates
from .degree_distribution import expected_degree_knowledge
from .entropy import column_entropies, entropies_from_terms, entropy_terms
from .obfuscation import ObfuscationReport, report_from_entropy_profile

__all__ = ["DegreeUncertaintyCache"]

#: Rows per batched-DP block.  Rows run in ascending factor count, so a
#: block's buffers are only as wide as its own longest row; the cap
#: bounds them on graphs with many vertices.
_DP_BLOCK_ROWS = 4096

_NO_INTS = np.zeros(0, dtype=np.int64)
_NO_FLOATS = np.zeros(0, dtype=np.float64)


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lengths)])``."""
    ends = np.cumsum(lengths)
    return np.arange(int(ends[-1]) if ends.size else 0) + np.repeat(
        starts - (ends - lengths), lengths
    )


def _within_row_rank(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Rank of each entry among the entries of its row (``rows`` sorted)."""
    counts = np.bincount(rows, minlength=n_rows)
    return np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]


def _incident_index(graph: UncertainGraph) -> tuple[np.ndarray, np.ndarray]:
    """CSR incident index of ``graph``, read-only.

    ``indices[indptr[w]:indptr[w + 1]]`` are the dense ids of the edges
    incident to ``w`` in ascending order -- the order
    ``incident_probability_lists()`` walks, which fixes the degree-pmf
    DP's float operation sequence.
    """
    # Interleaved endpoints (src0, dst0, src1, dst1, ...): slot s belongs
    # to edge s // 2, so sorting by (vertex, slot) keeps ids ascending.
    # The keys are unique, so the default sort gives that order; it is
    # about 3x faster than a stable sort.
    ends = np.column_stack([graph.edge_src, graph.edge_dst]).ravel()
    indices = np.argsort(ends * ends.size + np.arange(ends.size)) // 2
    indptr = np.zeros(graph.n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=graph.n_nodes), out=indptr[1:])
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return indptr, indices


def _extend_incident_index(
    indptr: np.ndarray,
    indices: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    first_id: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR incident index after appending edges ``first_id, ...``.

    Edge ``first_id + j`` joins ``src[j]`` and ``dst[j]``.  Appended ids
    exceed every stored id, so each goes at the end of its endpoints'
    segments; a stable sort by vertex keeps the ids of one vertex
    ascending, which makes the result equal ``_incident_index`` of the
    grown graph.  O(|E|) copies instead of an O(|E| log |E|) sort.
    Returns new read-only arrays; the inputs are left untouched.
    """
    ends = np.column_stack([src, dst]).ravel()
    ids = np.repeat(first_id + np.arange(src.size, dtype=np.int64), 2)
    by_vertex = np.argsort(ends, kind="stable")
    ends, ids = ends[by_vertex], ids[by_vertex]
    indices = np.insert(indices, indptr[ends + 1], ids)
    growth = np.zeros_like(indptr)
    np.cumsum(np.bincount(ends, minlength=indptr.size - 1), out=growth[1:])
    indptr = indptr + growth
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return indptr, indices


def _factor_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    probabilities: np.ndarray,
    rows: np.ndarray,
    fresh_lo: np.ndarray = _NO_INTS,
    fresh_hi: np.ndarray = _NO_INTS,
    fresh_p: np.ndarray = _NO_FLOATS,
) -> tuple[np.ndarray, np.ndarray]:
    """Positive incident probabilities of each vertex in ``rows``.

    ``rows`` is sorted and holds both endpoints of every fresh pair;
    fresh probabilities are positive (a fresh pair's ``p_old`` is 0 and
    unchanged entries are dropped before this point).  Returns ragged
    rows ``(lengths, values)``: row ``i``'s factors are
    ``values[start_i : start_i + lengths[i]]``, original edges first in
    ascending dense id (read from ``probabilities``, zeros dropped),
    then the fresh pairs touching it in delta order.
    """
    m = rows.size
    seg_lengths = indptr[rows + 1] - indptr[rows]
    ids = indices[_ragged_arange(indptr[rows], seg_lengths)]
    orig_p = probabilities[ids]
    orig_rows = np.repeat(np.arange(m), seg_lengths)
    keep = orig_p > 0.0
    orig_p, orig_rows = orig_p[keep], orig_rows[keep]

    # Each fresh pair feeds both endpoint rows; a stable sort by row keeps
    # delta order within a row.
    fresh_rows = np.column_stack(
        [np.searchsorted(rows, fresh_lo), np.searchsorted(rows, fresh_hi)]
    ).ravel()
    by_row = np.argsort(fresh_rows, kind="stable")
    fresh_rows = fresh_rows[by_row]
    fresh_p = np.repeat(fresh_p, 2)[by_row]

    n_orig = np.bincount(orig_rows, minlength=m)
    lengths = n_orig + np.bincount(fresh_rows, minlength=m)
    starts = np.cumsum(lengths) - lengths
    values = np.empty(int(lengths.sum()), dtype=np.float64)
    values[starts[orig_rows] + _within_row_rank(orig_rows, m)] = orig_p
    values[
        starts[fresh_rows] + n_orig[fresh_rows]
        + _within_row_rank(fresh_rows, m)
    ] = fresh_p
    return lengths, values


def _write_pmf_rows(
    matrix: np.ndarray,
    rows: np.ndarray,
    lengths: np.ndarray,
    values: np.ndarray,
) -> None:
    """Set ``matrix[rows[i]]`` to the Poisson-binomial pmf of ragged row ``i``.

    ``matrix`` must be at least ``lengths.max() + 1`` wide; each row is
    zero beyond its pmf.  Step ``j`` convolves every row that still has
    a ``j``-th factor ``p`` with ``[1 - p, p]``: ``pmf[t] * q + pmf[t - 1]
    * p`` for every ``t``, the per-row kernel's two-term multiply-add.
    The pmf sits behind a zero guard column, so the end terms read
    ``pmf[0] * q + 0.0 * p`` and ``0.0 * q + pmf[j] * p``; adding an
    exact zero changes no bit, so each row equals
    ``poisson_binomial_pmf`` of its factors bit for bit.  Rows run in
    ascending factor count, which makes the rows active at each step a
    suffix of the block, and their factors are laid out step-major so
    each step reads one contiguous slice.
    """
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(lengths, kind="stable")
    for b0 in range(0, order.size, _DP_BLOCK_ROWS):
        block = order[b0:b0 + _DP_BLOCK_ROWS]
        sizes = lengths[block]
        width = int(sizes[-1])
        first_active = np.searchsorted(sizes, np.arange(width), side="right")
        n_active = block.size - first_active
        offsets = np.cumsum(n_active) - n_active
        flat = _ragged_arange(starts[block], sizes)
        step = flat - np.repeat(starts[block], sizes)
        row = np.repeat(np.arange(block.size), sizes)
        p_steps = np.empty(flat.size, dtype=np.float64)
        p_steps[offsets[step] + row - first_active[step]] = values[flat]
        q_steps = 1.0 - p_steps
        pmf = np.zeros((block.size, width + 2), dtype=np.float64)
        pmf[:, 1] = 1.0
        for j, (a, o) in enumerate(zip(first_active.tolist(),
                                        offsets.tolist())):
            p = p_steps[o:o + block.size - a, None]
            q = q_steps[o:o + block.size - a, None]
            pmf[a:, 1:j + 3] = pmf[a:, 1:j + 3] * q + pmf[a:, :j + 2] * p
        target = rows[block]
        matrix[target, :width + 1] = pmf[:, 1:]
        matrix[target, width + 1:] = 0.0


def _delta_arrays(us, vs, p_old, p_new):
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    p_old = np.asarray(p_old, dtype=np.float64)
    p_new = np.asarray(p_new, dtype=np.float64)
    if not (us.shape == vs.shape == p_old.shape == p_new.shape) \
            or us.ndim != 1:
        raise ObfuscationError(
            "delta arrays must be 1-D and parallel, got shapes "
            f"{us.shape} / {vs.shape} / {p_old.shape} / {p_new.shape}"
        )
    return us, vs, p_old, p_new


class DegreeUncertaintyCache:
    """Per-run cache answering delta-based (k, epsilon)-obfuscation checks.

    Parameters
    ----------
    graph:
        The base uncertain graph every delta is applied against (for
        GenObf: the graph being anonymized -- all trials at all sigma
        levels perturb this one graph).
    knowledge:
        Default adversary degree knowledge for the checks.  Defaults to
        the *base* graph's expected-degree knowledge, which is what
        anonymization checks against (note the difference from
        :func:`~repro.privacy.obfuscation.check_obfuscation`, whose
        default is extracted from the published candidate).
    """

    def __init__(
        self, graph: UncertainGraph, knowledge: np.ndarray | None = None
    ):
        self._bind(graph, knowledge)
        rows = np.arange(self._n, dtype=np.int64)
        lengths, values = _factor_rows(
            self._indptr, self._indices, graph.edge_probabilities, rows
        )
        self._matrix = np.zeros(
            (self._n, int(lengths.max(initial=0)) + 1), dtype=np.float64
        )
        _write_pmf_rows(self._matrix, rows, lengths, values)
        self._terms = entropy_terms(self._matrix)

    def _bind(self, graph: UncertainGraph, knowledge) -> None:
        self._graph = graph
        self._n = graph.n_nodes
        if knowledge is None:
            knowledge = expected_degree_knowledge(graph)
        self._knowledge = np.asarray(knowledge, dtype=np.int64)
        if self._knowledge.shape != (self._n,):
            raise ObfuscationError(
                f"knowledge has shape {self._knowledge.shape}, expected "
                f"({self._n},)"
            )
        self._indptr, self._indices = _incident_index(graph)

    @classmethod
    def from_base_matrix(
        cls,
        graph: UncertainGraph,
        matrix: np.ndarray,
        knowledge: np.ndarray | None = None,
    ) -> "DegreeUncertaintyCache":
        """Rebuild a cache from an already-computed base pmf matrix.

        The Poisson-binomial DP over every vertex is the expensive part
        of construction; parallel trial workers skip it by receiving the
        parent cache's :attr:`base_matrix` through shared memory and
        re-deriving only the (cheap) CSR incident index.  ``matrix`` is
        copied, so the caller's buffer may be a read-only view.
        """
        self = cls.__new__(cls)
        self._bind(graph, knowledge)
        matrix = np.array(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != self._n:
            raise ObfuscationError(
                f"base matrix has shape {matrix.shape}, expected "
                f"({self._n}, width)"
            )
        self._matrix = matrix
        self._terms = entropy_terms(matrix)
        return self

    def clone(self) -> "DegreeUncertaintyCache":
        """An independent cache answering identical checks.

        Checks patch matrix rows in place (and roll them back), so one
        cache instance must never serve two concurrent callers.  A clone
        copies the pmf matrix and its entropy terms, the only state
        mutated in place; the graph, knowledge and the read-only CSR
        incident index are shared by reference (:meth:`apply_edge_arrays`
        rebinds them rather than mutating them, so sharing is safe).
        """
        clone = type(self).__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._matrix = self._matrix.copy()
        clone._terms = self._terms.copy()
        return clone

    @property
    def graph(self) -> UncertainGraph:
        return self._graph

    @property
    def knowledge(self) -> np.ndarray:
        return self._knowledge

    @property
    def base_matrix(self) -> np.ndarray:
        """The base graph's degree-pmf matrix (treat as read-only).

        Publishing this to :meth:`from_base_matrix` reproduces the cache
        without rerunning the per-vertex DP -- both caches then answer
        every check bit-identically.
        """
        return self._matrix

    # -- the delta engine ----------------------------------------------- #

    def _changes(self, us, vs, p_old, p_new):
        """Validate a delta; return its probability-changing entries.

        Returns ``(lo, hi, ids, p)``: canonical endpoints, dense edge ids
        (``-1`` for fresh pairs) and new probabilities of the entries
        with ``p_new != p_old``, in delta order.  The first invalid entry
        raises, checked in the order self-loop, vertex range, duplicate
        pair, probability value, stale ``p_old``.
        """
        n = self._n
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        loop = us == vs
        outside = (lo < 0) | (hi >= n)
        ids = self._graph.pair_edge_ids(lo, hi)
        hit = ids >= 0
        stored = np.zeros(us.size, dtype=np.float64)
        stored[hit] = self._graph.edge_probabilities[ids[hit]]
        # Invalid pairs get distinct negative keys so they never collide.
        keys = np.where(
            loop | outside, -1 - np.arange(us.size), lo * n + hi
        )
        duplicate = np.ones(us.size, dtype=bool)
        duplicate[np.unique(keys, return_index=True)[1]] = False
        bad_value = ~np.isfinite(p_new) | (p_new < 0.0) | (p_new > 1.0)
        stale = p_old != stored
        failed = loop | outside | duplicate | bad_value | stale
        if failed.any():
            i = int(np.argmax(failed))
            u, v = int(us[i]), int(vs[i])
            pair = (int(lo[i]), int(hi[i]))
            if loop[i]:
                raise ObfuscationError(
                    f"delta contains self-loop on vertex {u}"
                )
            if outside[i]:
                raise ObfuscationError(
                    f"delta edge ({u}, {v}) references a vertex outside "
                    f"0..{n - 1}"
                )
            if duplicate[i]:
                raise ObfuscationError(
                    f"duplicate delta entry for edge {pair}"
                )
            if bad_value[i]:
                raise ObfuscationError(
                    f"delta edge {pair} has probability {float(p_new[i])!r}, "
                    "expected a finite value in [0, 1]"
                )
            raise ObfuscationError(
                f"stale delta: edge {pair} has base probability "
                f"{float(stored[i])!r}, delta claims {float(p_old[i])!r}"
            )
        changed = p_new != p_old
        return lo[changed], hi[changed], ids[changed], p_new[changed]

    def _grow_to(self, width: int) -> None:
        """Widen the pmf matrix and its entropy terms with zero columns."""
        if width > self._matrix.shape[1]:
            old = self._matrix.shape[1]
            grown = np.zeros((self._n, width), dtype=np.float64)
            grown[:, :old] = self._matrix
            self._matrix = grown
            terms = np.zeros((self._n, width), dtype=np.float64)
            terms[:, :old] = self._terms
            self._terms = terms

    def _report(self, entropies, k, epsilon, knowledge) -> ObfuscationReport:
        return report_from_entropy_profile(
            entropies,
            self._knowledge if knowledge is None else knowledge,
            k, epsilon, n_nodes=self._n,
        )

    def _check(self, us, vs, p_old, p_new, k, epsilon, knowledge):
        """Report for ``apply_edge_updates(base, delta)``; rows rolled back."""
        lo, hi, ids, p = self._changes(us, vs, p_old, p_new)
        rows = np.unique(np.concatenate([lo, hi]))
        hit = ids >= 0
        probabilities = self._graph.edge_probabilities
        if hit.any():
            probabilities = probabilities.copy()
            probabilities[ids[hit]] = p[hit]
        fresh = ~hit
        lengths, values = _factor_rows(
            self._indptr, self._indices, probabilities, rows,
            lo[fresh], hi[fresh], p[fresh],
        )
        self._grow_to(int(lengths.max(initial=0)) + 1)
        saved = self._matrix[rows]
        try:
            _write_pmf_rows(self._matrix, rows, lengths, values)
            return self._report(
                column_entropies(self._matrix), k, epsilon, knowledge
            )
        finally:
            self._matrix[rows] = saved

    # -- entry points ----------------------------------------------------- #

    def check_edge_arrays(
        self,
        us: np.ndarray,
        vs: np.ndarray,
        p_old: np.ndarray,
        p_new: np.ndarray,
        k: int,
        epsilon: float,
        knowledge: np.ndarray | None = None,
    ) -> ObfuscationReport:
        """Evaluate Definition 3 for ``apply_edge_updates(base, delta)``.

        The delta is four parallel arrays: endpoints, base probabilities
        and new probabilities.  ``p_old`` must match the base graph (a
        mismatch means the caller holds a stale view and raises).  The
        same arrays drive the GenObf trial's check here and -- through
        :func:`repro.ugraph.operations.apply_edge_updates` -- the
        materialization of a winning candidate.  The report is
        bit-identical to ``check_obfuscation`` on the materialized
        candidate, and the cache is rolled back before returning, so
        consecutive calls are independent.
        """
        return self._check(
            *_delta_arrays(us, vs, p_old, p_new), k, epsilon, knowledge
        )

    def check_delta(
        self,
        delta,
        k: int,
        epsilon: float,
        knowledge: np.ndarray | None = None,
    ) -> ObfuscationReport:
        """:meth:`check_edge_arrays` over ``(u, v, p_old, p_new)`` tuples."""
        entries = list(delta)
        columns = zip(*entries) if entries else ((), (), (), ())
        return self._check(
            *_delta_arrays(*columns), k, epsilon, knowledge
        )

    def check_base(
        self, k: int, epsilon: float, knowledge: np.ndarray | None = None
    ) -> ObfuscationReport:
        """The empty-delta check: the base graph itself.

        Sums the cached per-entry entropy terms instead of taking a log
        of every matrix entry again; the column sums run over the same
        arrays :func:`~repro.privacy.entropy.column_entropies` would
        build, so the report is bit-identical.
        """
        return self._report(
            entropies_from_terms(self._matrix, self._terms),
            k, epsilon, knowledge,
        )

    def apply_edge_arrays(
        self,
        us: np.ndarray,
        vs: np.ndarray,
        p_old: np.ndarray,
        p_new: np.ndarray,
    ) -> UncertainGraph:
        """*Permanently* apply a delta: the cache now answers for the
        patched graph.

        The streaming re-certification pipeline accepts an update batch
        as its new published truth, so unlike the checks the touched pmf
        rows and their entropy terms are patched **without rollback** and
        the cache's base graph is rebound to ``apply_edge_updates(graph,
        us, vs, p_new)``.  Fresh pairs extend the CSR incident index: new
        read-only arrays with each appended edge id at the end of its
        endpoints' segments, no re-sort of the whole index.  Returns the
        patched graph.

        Bit-identical guarantee: after the apply, every answer equals a
        freshly built ``DegreeUncertaintyCache(patched, knowledge)``.
        Touched rows are recomputed over the patched graph's incident
        sequence, untouched rows keep their floats, and the matrix may
        only be *wider*.  The knowledge vector is deliberately kept: the
        adversary's degree observations predate the update.
        """
        us, vs, p_old, p_new = _delta_arrays(us, vs, p_old, p_new)
        lo, hi, __, __ = self._changes(us, vs, p_old, p_new)
        n_before = self._graph.n_edges
        patched = apply_edge_updates(self._graph, us, vs, p_new)
        if patched.n_edges > n_before:
            self._indptr, self._indices = _extend_incident_index(
                self._indptr, self._indices, patched.edge_src[n_before:],
                patched.edge_dst[n_before:], n_before,
            )
        self._graph = patched
        rows = np.unique(np.concatenate([lo, hi]))
        lengths, values = _factor_rows(
            self._indptr, self._indices, patched.edge_probabilities, rows
        )
        self._grow_to(int(lengths.max(initial=0)) + 1)
        _write_pmf_rows(self._matrix, rows, lengths, values)
        self._terms[rows] = entropy_terms(self._matrix[rows])
        return patched
