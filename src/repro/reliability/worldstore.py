"""Persistent common-random-number world store with dirty-world derivation.

The GenObf/Chameleon evaluation loop compares many candidate graphs
against one base graph, and `reliability_discrepancy` already seeds both
sides identically (common random numbers, CRN) so that shared edges
realize identically.  :class:`WorldStore` turns that pairing from a
variance trick into a *structural* speedup:

* the uniform matrix ``U`` of shape ``(N, |edge universe|)`` is drawn
  once per run and the base graph's world masks are derived as
  ``U < p``.  Columns grow on demand when candidates introduce new
  edges; a grown column's uniforms are keyed by its vertex pair (one
  batched seeding hash per growth call), and blocks keep geometric
  spare capacity, so growth within it copies nothing;
* base component labels, per-world connected-pair counts, and the
  pairwise equality accumulator are computed once and cached;
* a candidate described as a delta ``[(u, v, p_old, p_new), ...]``
  re-thresholds only the changed columns.  A world's realization of edge
  ``e`` flips iff ``U[i, e]`` lands in ``[min(p_old, p_new),
  max(p_old, p_new))`` -- probability ``|p_new - p_old|`` -- so the
  expected **dirty-world** count is ``N * (1 - prod_e (1 - |dp_e|))``,
  a small fraction of ``N`` for GenObf-sized perturbations.  Only dirty
  worlds are relabeled (with the batched kernel, over the candidate's
  live columns); clean worlds reuse the cached base labels.
* :meth:`WorldStore.rebase` adopts a delta permanently and is
  **write-back**: it re-thresholds the changed columns at once but only
  marks the flipped worlds' cached labels stale.  The first read that
  needs labels (every label reader goes through ``_ensure_labels``; the
  cached pair counts and pairwise accumulator flush too) relabels each
  stale world once and patches the label-derived caches, so ``K``
  rebases between reads cost one relabel of their union.

Chunked storage
---------------
The uniform/mask/label matrices are partitioned into **world-chunks**:
contiguous row blocks of at most ``chunk_worlds`` worlds, each block a
heap array.  Chunking is invisible to callers:

* uniforms are drawn chunk-by-chunk in row order, which consumes the
  generator's stream exactly as one monolithic ``rng.random((N, C))``
  call would (``Generator.random`` fills C-contiguous output in order),
  so base masks stay bitwise equal to ``sample_edge_masks`` at *every*
  chunk size -- antithetic mode forces even chunk sizes so pair rows
  never straddle a draw;
* ``derive`` re-thresholds dirty columns chunk-by-chunk and relabels
  only the dirty worlds within touched chunks;
* pair counts, pair equality and the pairwise accumulator stream
  per-chunk partial sums through the existing exact int64 reducers, so
  a query's temporaries are bounded by one chunk (plus the
  ``memory_budget``-gated pair-equality cache).

Resolution of the chunk size (first match wins): explicit
``chunk_worlds`` > ``REPRO_WORLD_CHUNK`` > derived from
``memory_budget`` (bytes per world: 9 per edge column + 4 per vertex
label) > one chunk of all ``N`` worlds.  Whatever the source, the chunk
size is raised until the store fits in at most ``_MAX_CHUNKS`` chunks,
which bounds the per-chunk loop overhead of a tiny requested chunk.
The single-chunk configuration is the exact layout of the original
monolithic store.

Every query answered by a :class:`DerivedWorlds` view is **bit-identical**
to a fresh full recompute over the same materialized masks: per-row
component label values depend only on the row's realized edges, and all
aggregations run through exact integer accumulators (int64 counts)
divided by ``N`` at the end -- the same ``count / N`` float the direct
estimator produces.  Integer partial sums over chunks are associative,
so the chunked reductions are bit-identical too (property-tested in
``tests/test_chunked_store.py``).
"""

from __future__ import annotations

import copy
import os

import numpy as np
from numpy.random import PCG64
from numpy.random.bit_generator import ISeedSequence

from .. import kernels
from .._rng import as_generator
from ..exceptions import EstimationError
from ..ugraph.graph import UncertainGraph, lookup_key_index, merge_key_index
from .connectivity import component_labels_for_edges, pair_counts_from_labels

__all__ = [
    "WorldStore",
    "DerivedWorlds",
    "graph_delta",
    "graph_delta_rows",
    "sample_vertex_pairs",
]

#: Largest vertex count for which full ``n x n`` pairwise matrices are
#: materialized.
FULL_MATRIX_LIMIT = 1500
#: Element budget for one ``(block, n, n)`` equality tensor.
PAIRWISE_BLOCK_ELEMENTS = 16_000_000
#: Components of at least ``ceil(n / PAIRWISE_DENSE_DIVISOR)`` vertices
#: (at most this many per world) take the pairwise accumulator's GEMM
#: path; smaller ones are counted pair by pair.
PAIRWISE_DENSE_DIVISOR = 32
#: Vertex pairs sampled when a graph is too large for the full matrix.
DEFAULT_PAIR_SAMPLE = 20_000
#: Tolerance when validating a delta's claimed ``p_old`` against the store.
_P_OLD_TOLERANCE = 1e-9

#: Hard ceiling on world-chunks per store.  Every chunked pass pays a
#: per-chunk Python loop step and kernel call, so requested chunk sizes
#: are raised until the store fits in at most this many chunks.
_MAX_CHUNKS = 64

# NumPy's ``SeedSequence`` constants (``numpy/random/bit_generator.pyx``):
# a 4-word pool, hash multipliers A (entropy mixing) and B (state output),
# and the two ``mix`` multipliers.
_SS_POOL = 4
_SS_MIX_L = np.uint32(0xCA01F9DD)
_SS_MIX_R = np.uint32(0x4973F715)


def _hash_multipliers(init: int, mult: int, count: int) -> np.ndarray:
    """``count + 1`` successive values of a ``SeedSequence`` hash multiplier.

    The multiplier evolves the same way whatever the data, so the
    ``i``-th hash of a stage xors with entry ``i`` and multiplies by
    entry ``i + 1`` -- for every pair of a batch at once.
    """
    values = [init]
    for __ in range(count):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return np.array(values, dtype=np.uint32)[:, None]


#: Entropy mixing hashes each pool word once, then once per ordered pair
#: of distinct pool words; the state output hashes 2 words per uint64.
_HASH_A = _hash_multipliers(0x43B0D7E5, 0x931E8875, _SS_POOL * _SS_POOL)
_HASH_B = _hash_multipliers(0x8B51F9DD, 0x58F38DED, 2 * _SS_POOL)


#: Pool rows each row mixes into, and the pool row behind each of the
#: eight output words.
_MIX_TARGETS = tuple(
    np.array([row for row in range(_SS_POOL) if row != source])
    for source in range(_SS_POOL)
)
_OUTPUT_ROWS = np.tile(np.arange(_SS_POOL), 2)
_SHIFT = np.uint32(16)


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray):
    """``SeedSequence``'s ``hashmix``, one hash multiplier pair per row."""
    values = values ^ xor
    values *= mult
    values ^= values >> _SHIFT
    return values


def _pair_seed_states(
    entropy: int, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """``SeedSequence((entropy, u, v)).generate_state(4, np.uint64)`` per pair.

    A port of the sequence's entropy mixing and state output, batched
    over pairs: every stage runs on a ``(words, k)`` uint32 array, whose
    products wrap modulo 2**32 exactly as the C code's do.  The entropy
    words are ``entropy``'s uint32 words, least significant first (one
    or two), then ``u`` and ``v`` (one each), zero-padded to the pool
    size.  Returns ``(k, 4)`` C-contiguous uint64 rows.
    """
    k = src.size
    if k and max(int(src.max()), int(dst.max())) > 0xFFFFFFFF:
        raise EstimationError("pair-keyed draws need vertex ids below 2**32")
    words = np.zeros((_SS_POOL, k), dtype=np.uint32)
    row = 0
    while True:
        words[row] = entropy & 0xFFFFFFFF
        row += 1
        entropy >>= 32
        if not entropy:
            break
    words[row] = src
    words[row + 1] = dst
    pool = _hashmix(words, _HASH_A[:_SS_POOL], _HASH_A[1:_SS_POOL + 1])
    step = _SS_POOL
    for source, targets in enumerate(_MIX_TARGETS):
        # Row ``source`` is read, never written, while it mixes into the
        # other rows, so its three hashes and mixes run as one batch.
        stop = step + targets.size
        hashed = _hashmix(
            pool[source], _HASH_A[step:stop], _HASH_A[step + 1:stop + 1]
        )
        hashed *= _SS_MIX_R
        mixed = pool[targets]
        mixed *= _SS_MIX_L
        mixed -= hashed
        mixed ^= mixed >> _SHIFT
        pool[targets] = mixed
        step = stop
    out = _hashmix(
        pool[_OUTPUT_ROWS], _HASH_B[:-1], _HASH_B[1:]
    ).astype(np.uint64)
    states = np.empty((k, _SS_POOL), dtype=np.uint64)
    np.bitwise_or(out[0::2], out[1::2] << np.uint64(32), out=states.T)
    return states


class _StateSeed(ISeedSequence):
    """A seed sequence whose state was generated ahead (by the batch)."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly ``(4, uint64)``: what the batch produced.
        return self._state


def _pair_keyed_uniforms(
    entropy: int,
    src: np.ndarray,
    dst: np.ndarray,
    n_samples: int,
    antithetic: bool,
) -> np.ndarray:
    """``(k, n_samples)`` uniforms of the pairs ``(src[i], dst[i])``.

    Row ``i`` is bit for bit ``np.random.default_rng((entropy, src[i],
    dst[i])).random(n_samples)`` -- under antithetic pairing, ``n_samples
    // 2`` such draws interleaved with their complements.  The seeding
    hash runs batched (:func:`_pair_seed_states`); each pair then draws
    its raw PCG64 words, and ``Generator.random``'s float conversion
    ``(raw >> 11) * 2**-53`` runs once for the whole batch.
    """
    n_draw = n_samples // 2 if antithetic else n_samples
    raw = np.empty((src.size, n_draw), dtype=np.uint64)
    for row, state in zip(raw, _pair_seed_states(entropy, src, dst)):
        row[:] = PCG64(_StateSeed(state)).random_raw(n_draw)
    draws = (raw >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    if not antithetic:
        return draws
    out = np.empty((src.size, n_samples), dtype=np.float64)
    out[:, 0::2] = draws
    out[:, 1::2] = 1.0 - draws
    return out


def sample_vertex_pairs(
    n_nodes: int, n_pairs: int, seed=None
) -> np.ndarray:
    """Uniformly sample ``n_pairs`` distinct-endpoint vertex pairs.

    Pairs are sampled with replacement from the set of unordered pairs;
    duplicates are acceptable for estimation (they do not bias the mean).
    """
    if n_nodes < 2:
        raise EstimationError("need at least two vertices to form pairs")
    rng = as_generator(seed)
    u = rng.integers(0, n_nodes, size=n_pairs)
    shift = rng.integers(1, n_nodes, size=n_pairs)
    v = (u + shift) % n_nodes
    return np.stack([u, v], axis=1)


def _delta_vectors(
    base: UncertainGraph, other: UncertainGraph
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(u, v, p_old, p_new)`` arrays of :func:`graph_delta`."""
    if base.n_nodes != other.n_nodes:
        raise EstimationError("graphs must share the vertex set")
    base_p = base.pair_probabilities(other.edge_src, other.edge_dst)
    changed = other.edge_probabilities != base_p
    gone = (base.edge_probabilities != 0.0) & (
        other.pair_edge_ids(base.edge_src, base.edge_dst) < 0
    )
    return (
        np.concatenate([other.edge_src[changed], base.edge_src[gone]]),
        np.concatenate([other.edge_dst[changed], base.edge_dst[gone]]),
        np.concatenate([base_p[changed], base.edge_probabilities[gone]]),
        np.concatenate([
            other.edge_probabilities[changed], np.zeros(int(gone.sum()))
        ]),
    )


def graph_delta(
    base: UncertainGraph, other: UncertainGraph
) -> list[tuple[int, int, float, float]]:
    """Describe ``other`` as a probability delta against ``base``.

    Returns ``[(u, v, p_old, p_new), ...]`` covering every pair whose
    probability differs between the two graphs (edges absent from a
    graph count as probability 0), i.e. ``overlay(base, deltas)`` and
    ``other`` agree on every pair probability.  Pairs of ``other`` come
    first in its edge order, then the positive-probability edges of
    ``base`` that ``other`` lacks, in ``base``'s edge order; two
    :meth:`~repro.ugraph.graph.UncertainGraph.pair_edge_ids` lookups
    find both.
    """
    return list(zip(*(
        vector.tolist() for vector in _delta_vectors(base, other)
    )))


def graph_delta_rows(base: UncertainGraph, other: UncertainGraph) -> np.ndarray:
    """:func:`graph_delta` as the ``(m, 4)`` float64 rows ``derive`` takes."""
    return np.column_stack(_delta_vectors(base, other)).astype(
        np.float64, copy=False
    )


def _pairwise_equal_acc(labels: np.ndarray, n_nodes: int) -> np.ndarray:
    """Exact int64 ``n x n`` accumulator of per-world label equalities.

    ``labels`` is ``(worlds, n)`` with per-row component ids in
    ``[0, n)`` (the canonical labeling).  A world's connected pairs are
    one all-ones block per component, so the accumulator is a sum of
    outer products ``1_C 1_C^T``, split by component size within each
    block of worlds:

    * components with at least ``tau = ceil(n / D)`` vertices, ``D =
      PAIRWISE_DENSE_DIVISOR`` (at most ``D`` per world; in practice
      the giant component), are rows of a dense float32 0/1 matrix
      ``O`` -- one label comparison per row -- and add ``O^T O`` through
      one BLAS GEMM;
    * every pair ``(u, v)`` of a smaller component, singletons'
      ``(v, v)`` included, adds one to its ``u * n + v`` key, and one
      ``bincount`` over those keys adds them all; the work is the sum of
      the components' squared sizes, below ``n * tau`` per world.

    The GEMM is exact: every entry is an integer no larger than the
    block's world count, at most ``2**24``, and float32 holds every such
    integer, so no summation order or BLAS thread count changes the
    int64 result.  Every temporary stays within
    ``PAIRWISE_BLOCK_ELEMENTS`` elements: per world, ``O`` holds at most
    ``D * n`` entries and the small components fewer than ``n * tau``
    pairs.
    """
    acc = np.zeros((n_nodes, n_nodes), dtype=np.int64)
    if n_nodes == 0 or labels.shape[0] == 0:
        return acc
    tau = max(2, -(-n_nodes // PAIRWISE_DENSE_DIVISOR))
    per_world = n_nodes * max(PAIRWISE_DENSE_DIVISOR, tau)
    block = min(1 << 24, max(1, PAIRWISE_BLOCK_ELEMENTS // per_world))
    for start in range(0, labels.shape[0], block):
        chunk = labels[start:start + block]
        keys = (
            np.arange(chunk.shape[0], dtype=np.int64)[:, None] * n_nodes
            + chunk
        ).ravel()
        sizes = np.bincount(keys, minlength=keys.size)
        big = np.flatnonzero(sizes >= tau)
        if big.size:
            dense = (
                chunk[big // n_nodes] == (big % n_nodes)[:, None]
            ).astype(np.float32)
            np.add(acc, dense.T @ dense, out=acc, casting="unsafe")
        entry_size = sizes[keys]
        singles = np.flatnonzero(entry_size == 1) % n_nodes
        pair_keys = singles * (n_nodes + 1)
        small = np.flatnonzero((entry_size > 1) & (entry_size < tau))
        if small.size:
            # Group the entries by component; entry ``i`` of a group
            # starting at ``first[i]`` pairs with the group's members.
            small = small[np.argsort(keys[small], kind="stable")]
            size = entry_size[small]
            member = small % n_nodes
            starts = np.flatnonzero(np.diff(keys[small], prepend=-1))
            first = np.repeat(starts, size[starts])
            ends = np.cumsum(size)
            partner = np.repeat(first - ends + size, size) + np.arange(
                ends[-1], dtype=np.int64
            )
            pair_keys = np.concatenate([
                pair_keys, np.repeat(member, size) * n_nodes + member[partner]
            ])
        acc += np.bincount(pair_keys, minlength=n_nodes * n_nodes).reshape(
            n_nodes, n_nodes
        )
    return acc


def _widen(
    block: np.ndarray, n_cols: int, capacity: int, alloc
) -> np.ndarray:
    """A ``capacity``-column copy of ``block``'s first ``n_cols`` columns.

    ``alloc`` fills the spare columns: ``np.zeros`` for masks (all
    False, the realization of a p = 0 column), ``np.empty`` for uniforms
    (written before they are read).
    """
    fresh = alloc((block.shape[0], capacity), dtype=block.dtype)
    fresh[:, :n_cols] = block[:, :n_cols]
    return fresh


#: Pair-count block width: keeps the two gathered ``(N, block)`` label
#: slabs cache-resident instead of materializing ``(N, M)`` at once.
_PAIR_COUNT_BLOCK = 2048


def _pair_equal_counts(labels: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Exact int64 per-pair connected-world counts, blocked over pairs."""
    counts = np.empty(pairs.shape[0], dtype=np.int64)
    for start in range(0, pairs.shape[0], _PAIR_COUNT_BLOCK):
        block = pairs[start:start + _PAIR_COUNT_BLOCK]
        equal = (
            labels.take(block[:, 0], axis=1)
            == labels.take(block[:, 1], axis=1)
        )
        counts[start:start + _PAIR_COUNT_BLOCK] = equal.sum(
            axis=0, dtype=np.int64
        )
    return counts


def _validate_pairs(pairs) -> np.ndarray:
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise EstimationError(f"pairs must be (M, 2), got {pairs.shape}")
    return pairs


class WorldStore:
    """Cached CRN worlds of one base graph, derivable to candidate graphs.

    Parameters
    ----------
    graph:
        The base graph; its edge set seeds the column universe.
    n_samples:
        Number of possible worlds (rows of ``U``).
    seed:
        Seed / generator.  With the same seed, the store's base masks are
        bitwise equal to ``sample_edge_masks(graph, n_samples, seed)`` --
        uniforms are drawn with identical generator consumption.
    antithetic:
        Draw uniforms in antithetic pairs (row ``2i+1`` uses ``1 - U`` of
        row ``2i``), matching ``sample_edge_masks(..., antithetic=True)``
        bitwise.  Requires an even ``n_samples``.
    chunk_worlds:
        Rows per world-chunk (default: ``REPRO_WORLD_CHUNK``, else
        derived from ``memory_budget``, else all ``n_samples`` in one
        chunk); raised as needed so the store never exceeds
        ``_MAX_CHUNKS`` chunks.  Query results are bit-identical at
        every chunk size.
    memory_budget:
        Soft cap, in bytes, on the store's per-chunk temporaries and its
        ``(N, M)`` pair-equality cache -- not on the store or the
        process: all blocks stay resident on the heap.  It sizes
        ``chunk_worlds`` when that is not given and disables the
        pair-equality cache when the cache alone would exceed it.
        Values are unchanged either way.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        n_samples: int = 1000,
        seed=None,
        antithetic: bool = False,
        chunk_worlds: int | None = None,
        memory_budget: int | None = None,
    ):
        if n_samples <= 0:
            raise EstimationError(f"n_samples must be positive, got {n_samples}")
        if antithetic and n_samples % 2 != 0:
            raise EstimationError(
                f"antithetic sampling needs an even n_samples, got {n_samples}"
            )
        if memory_budget is not None and int(memory_budget) <= 0:
            raise EstimationError(
                f"memory_budget must be positive, got {memory_budget}"
            )
        self._graph = graph
        self._n_samples = int(n_samples)
        self._rng = as_generator(seed)
        # Entropy keying grown columns' uniforms by *pair* rather than by
        # arrival order.  Drawn from a deep copy so the real stream is
        # untouched (base masks stay bitwise ``sample_edge_masks``) and
        # two same-seeded stores agree on it -- hence on every grown
        # column -- no matter how their universes grew.
        self._growth_entropy = int(
            copy.deepcopy(self._rng).integers(0, 2**63)
        )
        self._antithetic = bool(antithetic)
        self._memory_budget = (
            None if memory_budget is None else int(memory_budget)
        )
        chunk = self._resolve_chunk_size(chunk_worlds)
        self._chunks: tuple[tuple[int, int], ...] = tuple(
            (start, min(start + chunk, self._n_samples))
            for start in range(0, self._n_samples, chunk)
        )
        # Growable edge universe: base edges first, candidate-introduced
        # columns appended (base probability 0 => base mask all-False).
        self._src = graph.edge_src.copy()
        self._dst = graph.edge_dst.copy()
        self._prob = graph.edge_probabilities.copy()
        # Sorted ``u * n + v`` keys of the universe and the column of each
        # key.  Seeded from the graph's pair-key index (base columns are
        # the graph's dense edge ids, so its sort order is ours), extended
        # by insertion when columns grow.  Never written in place, so
        # clones share the arrays by reference.
        self._col_keys, self._col_ids = graph._pair_key_index()
        # Chunked storage: one row-block per chunk.  Uniform and mask
        # blocks hold ``_capacity`` columns (geometric growth), of which
        # the first ``n_columns`` are live; spare mask columns are all
        # False, the realization of a grown p = 0 column.  Mutations
        # rebind the block lists or write only blocks this store owns
        # (spare uniform columns of unshared blocks, mask blocks it has
        # just allocated), so clones can share blocks copy-on-write.
        self._u_blocks: list[np.ndarray] | None = None
        self._m_blocks: list[np.ndarray] | None = None
        self._capacity = 0
        self._l_blocks: list[np.ndarray] | None = None
        #: True while another store may hold these uniform and mask
        #: blocks (set on both sides of :meth:`clone`): growth then
        #: re-allocates before it writes.
        self._storage_shared = False
        self._pair_counts: np.ndarray | None = None
        self._pair_acc: np.ndarray | None = None
        self._pairwise: np.ndarray | None = None
        #: ``(key, equal, counts)`` of the most recent pair set: the
        #: base worlds' read-only ``(N, M)`` pair connectivity and its
        #: int64 column sums.
        self._pair_equal_cache: (
            tuple[tuple, np.ndarray, np.ndarray] | None
        ) = None
        #: chunk index -> sorted chunk-local rows whose cached labels (and
        #: their share of the pair counts / accumulator) predate a rebase.
        self._stale: dict[int, np.ndarray] = {}
        #: Bumped by every rebase that changes a column; derived views
        #: refuse to answer once it moved past the value they captured.
        self._generation = 0

    def _resolve_chunk_size(self, chunk_worlds: int | None) -> int:
        if chunk_worlds is None:
            env = os.environ.get("REPRO_WORLD_CHUNK")
            if env:
                chunk_worlds = int(env)
        if chunk_worlds is not None and int(chunk_worlds) <= 0:
            raise EstimationError(
                f"chunk_worlds must be positive, got {chunk_worlds}"
            )
        if chunk_worlds is None and self._memory_budget is not None:
            per_world = (
                9 * max(1, self._graph.n_edges) + 4 * self._graph.n_nodes
            )
            chunk_worlds = max(1, self._memory_budget // per_world)
        if chunk_worlds is None:
            chunk_worlds = self._n_samples
        chunk = max(1, min(int(chunk_worlds), self._n_samples))
        # Bound the chunk count: a tiny explicit chunk on a huge store
        # would otherwise spend its time in per-chunk loop overhead.
        min_chunk = -(-self._n_samples // _MAX_CHUNKS)
        chunk = min(max(chunk, min_chunk), self._n_samples)
        if self._antithetic and chunk % 2 != 0:
            # Antithetic rows come in (2i, 2i+1) pairs drawn together; an
            # even chunk size keeps every pair inside one chunk, which is
            # what makes the per-chunk draws consume the generator stream
            # exactly like the monolithic draw.  Rounding up keeps the
            # chunk count within ``_MAX_CHUNKS``; ``n_samples`` is even,
            # so an odd chunk is below it and the even one still fits.
            chunk += 1
        return chunk

    def clone(self) -> "WorldStore":
        """An independent store, bitwise-indistinguishable from this one.

        ``derive`` mutates the store: column growth appends to the edge
        universe (with pair-keyed uniform draws), so two runs that
        derive different candidates leave the store with different
        universes.  A long-lived service
        therefore never derives on its warm store directly -- it hands
        each job a clone, so the expensive base state (uniform draws,
        world labels, pair accumulators) is paid once while per-job
        growth never leaks back.  A clone of a pristine store behaves
        exactly like a freshly built store with the same
        ``(graph, n_samples, seed)``: the generator state is deep-copied,
        so subsequent draws consume the same stream.

        Chunk blocks are shared **copy-on-write**: every base cache
        (uniform, mask and label blocks, counts) and the sorted column-key
        index are shared by reference -- mutations rebind lists and
        arrays or write only spare uniform capacity or blocks the store
        has just allocated for itself.  Both this store and the clone
        are marked as sharing their uniform and mask blocks, so the
        first column growth on either side re-allocates them before
        writing draws into spare columns, and a later :meth:`rebase`
        patches only blocks so allocated.  Clones are therefore O(1) in
        world-state memory until they grow the universe.
        """
        twin = object.__new__(WorldStore)
        twin._graph = self._graph
        twin._n_samples = self._n_samples
        twin._rng = copy.deepcopy(self._rng)
        twin._growth_entropy = self._growth_entropy
        twin._antithetic = self._antithetic
        twin._memory_budget = self._memory_budget
        twin._chunks = self._chunks
        twin._src = self._src
        twin._dst = self._dst
        twin._prob = self._prob
        twin._col_keys = self._col_keys
        twin._col_ids = self._col_ids
        twin._u_blocks = self._u_blocks
        twin._m_blocks = self._m_blocks
        twin._capacity = self._capacity
        twin._l_blocks = self._l_blocks
        shared = self._u_blocks is not None or self._m_blocks is not None
        self._storage_shared = twin._storage_shared = (
            self._storage_shared or shared
        )
        twin._pair_counts = self._pair_counts
        twin._pair_acc = self._pair_acc
        twin._pairwise = self._pairwise
        twin._pair_equal_cache = self._pair_equal_cache
        twin._stale = dict(self._stale)
        twin._generation = self._generation
        return twin

    # -- chunked storage -------------------------------------------------- #

    @property
    def n_chunks(self) -> int:
        """Number of world-chunks the store is partitioned into."""
        return len(self._chunks)

    @property
    def chunk_bounds(self) -> tuple[tuple[int, int], ...]:
        """``(start, stop)`` row range of every world-chunk."""
        return self._chunks

    @property
    def memory_budget(self) -> int | None:
        return self._memory_budget

    def _draw_uniform_rows(self, rows: int, n_cols: int) -> np.ndarray:
        """Draw ``(rows, n_cols)`` uniforms, mirroring the sampler's stream.

        ``Generator.random`` fills C-contiguous output in draw order, so
        consuming the same total rows chunk-by-chunk in row order yields
        bitwise the values of one monolithic call.  Under antithetic
        pairing ``rows`` is always even (chunk sizes are forced even),
        so each chunk draws whole antithetic pairs.
        """
        if not self._antithetic:
            return self._rng.random((rows, n_cols))
        half = self._rng.random((rows // 2, n_cols))
        out = np.empty((rows, n_cols), dtype=np.float64)
        out[0::2] = half
        out[1::2] = 1.0 - half
        return out

    def _ensure_uniforms(self) -> None:
        """Draw the base uniform blocks (chunk order == row order)."""
        if self._u_blocks is not None:
            return
        # The first draw covers exactly the base graph's columns so base
        # masks reproduce sample_edge_masks(graph, N, seed) bitwise;
        # grown columns consume the stream afterwards.
        n_cols = self._graph.n_edges
        self._u_blocks = [
            self._draw_uniform_rows(stop - start, n_cols) if n_cols
            else np.empty((stop - start, 0))
            for start, stop in self._chunks
        ]
        self._capacity = n_cols
        self._storage_shared = False  # freshly drawn: nobody shares these

    def _ensure_masks(self) -> None:
        if self._m_blocks is not None:
            return
        self._ensure_uniforms()
        width = self._prob.shape[0]
        blocks = []
        for u_block in self._u_blocks:
            m_block = np.zeros(u_block.shape, dtype=bool)
            np.less(u_block[:, :width], self._prob, out=m_block[:, :width])
            blocks.append(m_block)
        self._m_blocks = blocks

    def _ensure_labels(self) -> None:
        """Current base labels: computed on first use, stale rows flushed."""
        if self._l_blocks is not None:
            self._flush_stale()
            return
        self._ensure_masks()
        n = self._graph.n_nodes
        width = self._prob.shape[0]
        self._l_blocks = [
            component_labels_for_edges(
                n, self._src, self._dst, m_block[:, :width]
            )
            for m_block in self._m_blocks
        ]

    def _label_rows(self, rows: np.ndarray) -> np.ndarray:
        """Gather base-label rows across chunks (order-preserving)."""
        self._ensure_labels()
        rows = np.asarray(rows, dtype=np.int64)
        first = self._l_blocks[0]
        out = np.empty((rows.shape[0], first.shape[1]), dtype=first.dtype)
        for (start, stop), block in zip(self._chunks, self._l_blocks):
            sel = (rows >= start) & (rows < stop)
            if np.any(sel):
                out[sel] = block[rows[sel] - start]
        return out

    def warm(self) -> None:
        """Force the expensive base state (uniforms, masks, labels) now.

        A warm registry calls this before handing out clones so the
        chunk blocks are shared by every clone instead of recomputed
        per job.
        """
        self._ensure_labels()

    # -- base-world caches --------------------------------------------- #

    @property
    def graph(self) -> UncertainGraph:
        return self._graph

    @property
    def n_samples(self) -> int:
        return self._n_samples

    @property
    def n_columns(self) -> int:
        """Current edge-universe width (base edges + grown columns)."""
        return self._prob.shape[0]

    @property
    def uniforms(self) -> np.ndarray:
        """The ``(N, n_columns)`` uniform matrix ``U``.

        With more than one chunk this *materializes* the concatenation
        (an audit/compat accessor); chunk-local code paths never call it.
        """
        self._ensure_uniforms()
        width = self._prob.shape[0]
        if len(self._u_blocks) == 1:
            return self._u_blocks[0][:, :width]
        return np.concatenate(
            [block[:, :width] for block in self._u_blocks], axis=0
        )

    @property
    def base_masks(self) -> np.ndarray:
        """Boolean ``(N, n_columns)`` base-world matrix (``U < p``).

        Materializes the chunk concatenation when chunked (audit/compat
        accessor; the chunked query paths stream blocks instead).
        """
        self._ensure_masks()
        width = self._prob.shape[0]
        if len(self._m_blocks) == 1:
            return self._m_blocks[0][:, :width]
        return np.concatenate(
            [block[:, :width] for block in self._m_blocks], axis=0
        )

    @property
    def base_labels(self) -> np.ndarray:
        """Int ``(N, n)`` base component labels.

        Materializes the chunk concatenation when chunked (audit/compat
        accessor; the chunked query paths stream blocks instead).
        """
        self._ensure_labels()
        if len(self._l_blocks) == 1:
            return self._l_blocks[0]
        return np.concatenate(self._l_blocks, axis=0)

    @property
    def base_pair_counts(self) -> np.ndarray:
        """Connected-pair count per base world (cached, chunk-streamed)."""
        self._flush_stale()
        if self._pair_counts is None:
            self._ensure_labels()
            parts = [
                pair_counts_from_labels(block) for block in self._l_blocks
            ]
            self._pair_counts = (
                parts[0] if len(parts) == 1 else np.concatenate(parts)
            )
        return self._pair_counts

    @property
    def base_pair_acc(self) -> np.ndarray:
        """Int64 ``n x n`` pairwise equality accumulator (cached)."""
        self._flush_stale()
        if self._pair_acc is None:
            n = self._graph.n_nodes
            if n > FULL_MATRIX_LIMIT:
                raise EstimationError(
                    f"full reliability matrix limited to {FULL_MATRIX_LIMIT} "
                    f"vertices, graph has {n}; use reliability_of_pairs"
                )
            self._ensure_labels()
            acc = np.zeros((n, n), dtype=np.int64)
            for block in self._l_blocks:
                acc += _pairwise_equal_acc(block, n)
            self._pair_acc = acc
        return self._pair_acc

    @staticmethod
    def _pair_cache_key(pairs: np.ndarray) -> tuple:
        return (pairs.shape[0], hash(pairs.tobytes()))

    def _pair_cache_allowed(self, n_pairs: int) -> bool:
        """Whether the ``(N, M)`` bool pair-equality cache fits the budget.

        Skipping the cache changes memory use only: the streaming count
        path below produces the identical int64 sums.
        """
        if self._memory_budget is None:
            return True
        return self._n_samples * n_pairs <= self._memory_budget

    def _base_pair_equal(
        self, pairs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(equal, counts)`` of the base worlds for one pair set, cached.

        ``equal`` is the boolean ``(N, M)`` base connectivity per pair and
        ``counts`` its int64 column sums, both read-only.  Views are
        scored against a fixed pair set; caching both lets each derived
        view reduce its dirty-world correction to a row gather + sum
        instead of a fresh label comparison, and count the base worlds
        once per pair set.  Only the most recent pair set is kept.
        """
        key = self._pair_cache_key(pairs)
        if self._pair_equal_cache is not None and \
                self._pair_equal_cache[0] == key:
            return self._pair_equal_cache[1:]
        self._ensure_labels()
        equal = np.empty((self._n_samples, pairs.shape[0]), dtype=bool)
        for (c_start, c_stop), labels in zip(self._chunks, self._l_blocks):
            for start in range(0, pairs.shape[0], _PAIR_COUNT_BLOCK):
                block = pairs[start:start + _PAIR_COUNT_BLOCK]
                equal[c_start:c_stop, start:start + block.shape[0]] = (
                    labels.take(block[:, 0], axis=1)
                    == labels.take(block[:, 1], axis=1)
                )
        counts = equal.sum(axis=0, dtype=np.int64)
        equal.flags.writeable = counts.flags.writeable = False
        self._pair_equal_cache = (key, equal, counts)
        return equal, counts

    def _cached_pair_equal(self, pairs: np.ndarray) -> np.ndarray | None:
        """The cached base pair-equality matrix, or None on a key miss."""
        if self._pair_equal_cache is not None and \
                self._pair_equal_cache[0] == self._pair_cache_key(pairs):
            return self._pair_equal_cache[1]
        return None

    def base_pair_equal_counts(self, pairs: np.ndarray) -> np.ndarray:
        """Int64 connected-world counts for an ``(M, 2)`` pair array.

        Read from the pair-equality cache (a read-only array); streams
        per-chunk partial sums instead when the boolean cache would blow
        the memory budget.  The int64 sums are bit-identical.
        """
        pairs = _validate_pairs(pairs)
        if self._pair_cache_allowed(pairs.shape[0]):
            return self._base_pair_equal(pairs)[1]
        self._ensure_labels()
        counts = np.zeros(pairs.shape[0], dtype=np.int64)
        for block in self._l_blocks:
            counts += _pair_equal_counts(block, pairs)
        return counts

    def base_pairwise_reliability(self) -> np.ndarray:
        """Base-graph ``n x n`` reliability matrix (cached float)."""
        if self._pairwise is None:
            result = self.base_pair_acc / self._n_samples
            np.fill_diagonal(result, 1.0)
            self._pairwise = result
        return self._pairwise

    def base_view(self) -> "DerivedWorlds":
        """The base graph itself as a clean view (no dirty rows).

        This is how the base graph's own reliability queries are asked:
        ``R_{u,v}``, pair batches, expected connected pairs and the full
        matrix, all from the cached base worlds.
        """
        return self.derive([])

    # -- column growth -------------------------------------------------- #

    def _column_ids(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Column of each canonical pair ``(lo[i], hi[i])``; ``-1`` if absent."""
        return lookup_key_index(
            self._col_keys, self._col_ids,
            lo * np.int64(self._graph.n_nodes) + hi,
        )

    def _ensure_columns(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Grow the universe by pairs ``(src[i], dst[i])`` (canonical, absent).

        New columns carry base probability 0, so the base masks gain
        all-False columns and every cached base aggregate stays valid.
        Within capacity that costs no mask write at all: spare mask
        columns are already all False.  Blocks are re-allocated, with
        geometric spare capacity, only when the new width exceeds it or
        another store shares them; every re-allocated block belongs to
        this store alone afterwards.
        """
        k = int(src.size)
        if not k:
            return
        old_cols = self._prob.shape[0]
        width = old_cols + k
        self._col_keys, self._col_ids = merge_key_index(
            self._col_keys, self._col_ids,
            src * np.int64(self._graph.n_nodes) + dst, old_cols,
        )
        self._src = np.concatenate([self._src, src])
        self._dst = np.concatenate([self._dst, dst])
        self._prob = np.concatenate([self._prob, np.zeros(k)])
        # Grown columns are pair-keyed draws (below), so when the base
        # draw happens is irrelevant to their values.
        self._ensure_uniforms()
        if self._storage_shared or self._capacity < width:
            capacity = max(self._capacity, width + width // 2)
            self._u_blocks = [
                _widen(block, old_cols, capacity, np.empty)
                for block in self._u_blocks
            ]
            if self._m_blocks is not None:
                self._m_blocks = [
                    _widen(block, old_cols, capacity, np.zeros)
                    for block in self._m_blocks
                ]
            self._capacity = capacity
            self._storage_shared = False
        grown = _pair_keyed_uniforms(
            self._growth_entropy, src, dst, self._n_samples, self._antithetic,
        )
        for (start, stop), block in zip(self._chunks, self._u_blocks):
            block[:, old_cols:width] = grown[:, start:stop].T

    # -- derivation ------------------------------------------------------ #

    def _merge_delta(self, delta) -> tuple[np.ndarray, np.ndarray, int]:
        """Shared delta canonicalization of :meth:`derive` / :meth:`rebase`.

        ``delta`` is ``(m, 4)`` rows ``(u, v, p_old, p_new)``: a list of
        tuples or an array.  Duplicate pairs merge as a dict would (the
        first occurrence fixes the order, the last entry supplies the
        values).  Every entry is validated -- the vertex pair, ``p_old``
        against the store's base probability, ``p_new`` in ``[0, 1]`` --
        before anything grows, so a rejected delta leaves the store
        untouched; the first invalid entry raises.  Only then do unseen
        pairs grow the column universe, in first-occurrence order, and
        no-ops are dropped.  Returns ``(cols, p_new, n_new_columns)``:
        the changed columns and their new probabilities in merged order.
        """
        rows = np.asarray(delta, dtype=np.float64)
        if rows.size == 0:
            rows = rows.reshape(0, 4)
        if rows.ndim != 2 or rows.shape[1] != 4:
            raise EstimationError(
                "delta must be (m, 4) rows of (u, v, p_old, p_new), got "
                f"shape {rows.shape}"
            )
        n = self._graph.n_nodes
        us = rows[:, 0].astype(np.int64)
        vs = rows[:, 1].astype(np.int64)
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        invalid = (lo == hi) | (lo < 0) | (hi >= n)
        if invalid.any():
            i = int(np.argmax(invalid))
            raise EstimationError(
                f"delta pair ({int(us[i])}, {int(vs[i])}) is not a valid "
                "vertex pair"
            )
        p_old = rows[:, 2]
        p_new = rows[:, 3]
        if lo.size > 1:
            keys = lo * n + hi
            first = np.unique(keys, return_index=True)[1]
            if first.size < keys.size:
                last = keys.size - 1 - np.unique(
                    keys[::-1], return_index=True
                )[1]
                take = last[np.argsort(first)]
                lo, hi = lo[take], hi[take]
                p_old, p_new = p_old[take], p_new[take]

        cols = self._column_ids(lo, hi)
        known = cols >= 0
        stored = np.zeros(cols.size, dtype=np.float64)
        stored[known] = self._prob[cols[known]]
        stale = np.abs(p_old - stored) > _P_OLD_TOLERANCE
        bad = ~np.isfinite(p_new) | (p_new < 0.0) | (p_new > 1.0)
        failed = stale | bad
        if failed.any():
            i = int(np.argmax(failed))
            pair = (int(lo[i]), int(hi[i]))
            if stale[i]:
                raise EstimationError(
                    f"delta claims p_old={float(p_old[i])!r} for pair "
                    f"{pair}, but the store's base probability is "
                    f"{float(stored[i])!r}"
                )
            raise EstimationError(
                f"delta pair {pair} has p_new={float(p_new[i])!r}, "
                "expected [0, 1]"
            )

        # A no-op on an absent pair (p_new == 0) must not allocate a
        # column: untracked zero-probability pairs are all-False anyway,
        # and a spurious column would shift every later fresh column's
        # uniform draws -- diverging from a store that never saw the
        # no-op (e.g. the full-recompute oracle fed a graph_delta).
        missing = ~known & (p_new != 0.0)
        n_new = int(missing.sum())
        if n_new:
            cols[missing] = self._prob.shape[0] + np.arange(n_new)
            self._ensure_columns(lo[missing], hi[missing])
        changed = p_new != stored
        return cols[changed], p_new[changed], n_new

    def derive(self, delta) -> "DerivedWorlds":
        """A candidate's worlds as a dirty-world view over the base cache.

        ``delta`` is ``(u, v, p_old, p_new)`` rows, a list of tuples or an
        ``(m, 4)`` array; duplicate pairs keep the last entry, ``p_old``
        is validated against the store's base probability, no-op entries
        (``p_new`` equal to the stored value) are dropped, and an invalid
        entry raises before the store changes.  Fresh pairs grow the
        store's column universe (the one lasting side effect).  Changed
        columns are re-thresholded against the cached uniforms chunk by
        chunk; worlds where any changed edge flipped are relabeled per
        chunk, clean worlds reuse the base labels.
        """
        n = self._graph.n_nodes
        col_arr, p_arr, __ = self._merge_delta(delta)
        width = self._prob.shape[0]

        if not col_arr.size:
            return DerivedWorlds(self, np.empty(0, dtype=np.int64),
                                 np.empty((self._n_samples, 0), dtype=bool),
                                 np.empty(0, dtype=np.int64), None)
        self._ensure_masks()
        new_parts: list[np.ndarray] = []
        local_dirty: list[np.ndarray] = []
        # One fused kernel pass per chunk: re-threshold the changed
        # columns and find the rows where any of them flipped.
        for u_block, m_block in zip(self._u_blocks, self._m_blocks):
            nc, d = kernels.rethreshold_masks(
                u_block[:, :width], m_block[:, :width], col_arr, p_arr
            )
            new_parts.append(nc)
            local_dirty.append(d)
        new_cols = (
            new_parts[0] if len(new_parts) == 1
            else np.concatenate(new_parts, axis=0)
        )
        dirty = np.concatenate([
            start + d
            for (start, __), d in zip(self._chunks, local_dirty)
        ]) if len(local_dirty) > 1 else local_dirty[0]

        dirty_labels: np.ndarray | None = None
        if dirty.size:
            # Relabel only the dirty rows, chunk by chunk: the gathered
            # mask block is bounded by the chunk size, and canonical
            # per-row labels make the concatenation bit-identical to one
            # monolithic relabeling of all dirty rows.  Only the live
            # columns are gathered: a row's labels depend only on its
            # realized edges, and a column with p = 0 is realized nowhere
            # (``U < 0`` never holds), so the candidate's worlds are its
            # p > 0 base columns plus the delta's columns.
            live = self._prob > 0.0
            live[col_arr] = False
            base_live = np.flatnonzero(live)
            columns = np.concatenate([base_live, col_arr])
            src, dst = self._src[columns], self._dst[columns]
            label_parts = []
            for m_block, nc, d in zip(self._m_blocks, new_parts, local_dirty):
                if d.size == 0:
                    continue
                dirty_masks = np.concatenate(
                    [m_block[d][:, base_live], nc[d]], axis=1
                )
                label_parts.append(component_labels_for_edges(
                    n, src, dst, dirty_masks
                ))
            dirty_labels = (
                label_parts[0] if len(label_parts) == 1
                else np.concatenate(label_parts, axis=0)
            )
        return DerivedWorlds(self, col_arr, new_cols, dirty, dirty_labels)

    # -- rebasing (permanent adoption of a delta) ------------------------ #

    def rebase(self, delta, graph: UncertainGraph | None = None) -> dict:
        """Permanently adopt ``delta`` as the store's new base state.

        Where :meth:`derive` answers "what if" with an overlay view,
        ``rebase`` mutates the store in place: the uniforms ``U`` are
        kept verbatim (the rebased store is a *CRN continuation* -- its
        worlds stay pairwise-coupled with the pre-update state, which is
        exactly what makes repeated update batches cheap and their
        discrepancies low-variance; it is deliberately NOT the state a
        fresh ``WorldStore(patched_graph, N, seed)`` would draw), the
        changed columns are re-thresholded chunk by chunk, and only the
        chunks containing flipped worlds replace their mask blocks --
        untouched chunks keep sharing blocks with any clones.  When the
        delta's fresh pairs made column growth re-allocate every mask
        block for this store alone, those blocks are patched in place
        instead of being copied a second time; growth within capacity
        re-allocates nothing, so its blocks are copied like any other.

        Relabeling is **deferred** (write-back): the flipped worlds are
        only marked stale, and the first label-dependent read relabels
        each stale world once, patching the cached pair counts and the
        pairwise accumulator with the same exact int64 arithmetic the
        derived views use (:meth:`_flush_stale`).  Every post-rebase base
        query is therefore bit-identical to ``derive(delta)`` evaluated
        before the rebase -- and hence to a full recompute over the
        patched masks -- while a stream of rebases nobody reads in
        between never relabels at all.  Views derived before the rebase
        become stale and raise :class:`EstimationError` when queried.

        ``delta`` takes the forms :meth:`derive` takes, with the same
        validation: an invalid entry raises before anything changes.
        ``graph`` optionally supplies the already-materialized patched
        graph (the degree-cache pipeline has it anyway); otherwise it is
        built here with :func:`~repro.ugraph.operations.apply_edge_updates`.

        Returns ``{"n_dirty_worlds", "n_changed_columns",
        "n_new_columns"}``.  ``n_dirty_worlds`` counts the worlds where a
        changed column flipped -- their relabeling is deferred, and a
        flip need not change connectivity.  It is None when the store's
        masks were never materialized (nothing to patch -- the lazy
        thresholding against the updated probabilities is already the
        rebased state).
        """
        n = self._graph.n_nodes
        if graph is not None and graph.n_nodes != n:
            raise EstimationError(
                f"rebase graph has {graph.n_nodes} vertices, store has {n}"
            )
        m_before = self._m_blocks
        col_arr, p_arr, n_new = self._merge_delta(delta)
        stats = {
            "n_dirty_worlds": 0,
            "n_changed_columns": int(col_arr.size),
            "n_new_columns": n_new,
        }
        if not col_arr.size:
            if graph is not None:
                self._graph = graph
            return stats

        if graph is None:
            from ..ugraph.operations import apply_edge_updates

            graph = apply_edge_updates(
                self._graph, self._src[col_arr], self._dst[col_arr], p_arr
            )

        # Clones share ``_prob`` by reference: rebind a patched copy so
        # their p_old validation keeps seeing the pre-update state.
        prob = self._prob.copy()
        prob[col_arr] = p_arr
        self._prob = prob
        self._graph = graph
        self._generation += 1

        if self._m_blocks is None:
            # Masks were never materialized: the future ``U < p`` pass
            # over the updated probabilities IS the rebased state.
            stats["n_dirty_worlds"] = None
            return stats

        # Without cached labels there is nothing to mark: the first
        # labeling runs over the current masks anyway.
        track = self._l_blocks is not None
        # Growth that re-allocated the mask blocks made them this
        # store's alone; growth within capacity wrote no mask, so the
        # blocks may still be shared or handed out (``base_masks``).
        owned = self._m_blocks is not m_before
        width = self._prob.shape[0]
        m_new = list(self._m_blocks)
        stale = dict(self._stale)
        total_dirty = 0
        for ci, (u_block, m_block) in enumerate(
            zip(self._u_blocks, self._m_blocks)
        ):
            nc, d = kernels.rethreshold_masks(
                u_block[:, :width], m_block[:, :width], col_arr, p_arr
            )
            if d.size == 0:
                continue  # no world flipped here: block values unchanged
            total_dirty += int(d.size)
            if owned:
                m_block[:, col_arr] = nc
            else:
                fresh_m = m_block.copy()
                fresh_m[:, col_arr] = nc
                m_new[ci] = fresh_m
            if track:
                stale[ci] = d if ci not in stale else np.union1d(stale[ci], d)
        self._m_blocks = m_new
        self._stale = stale
        self._pairwise = None
        self._pair_equal_cache = None
        stats["n_dirty_worlds"] = total_dirty
        return stats

    def _flush_stale(self) -> None:
        """Relabel every stale world once and patch the label caches.

        Each chunk with stale rows gets one relabeling call over those
        rows' current masks and a fresh label block (the old one may be
        shared with clones, so it is replaced, never patched).  The
        cached pair counts and accumulator swap the stale rows' old
        contribution for the new one in exact int64 -- the same swap
        :class:`DerivedWorlds` performs -- so the result is bit-identical
        to labeling the current masks from scratch.
        """
        if not self._stale:
            return
        n = self._graph.n_nodes
        counts = acc = None
        if self._pair_counts is not None:
            counts = self._pair_counts.copy()
        if self._pair_acc is not None:
            acc = self._pair_acc.copy()
        width = self._prob.shape[0]
        l_new = list(self._l_blocks)
        for ci, rows in sorted(self._stale.items()):
            old_l = self._l_blocks[ci]
            labels = component_labels_for_edges(
                n, self._src, self._dst, self._m_blocks[ci][rows, :width]
            )
            fresh_l = old_l.copy()
            fresh_l[rows] = labels
            l_new[ci] = fresh_l
            if counts is not None:
                counts[self._chunks[ci][0] + rows] = (
                    pair_counts_from_labels(labels)
                )
            if acc is not None:
                acc -= _pairwise_equal_acc(old_l[rows], n)
                acc += _pairwise_equal_acc(labels, n)
        self._l_blocks = l_new
        self._pair_counts = counts
        self._pair_acc = acc
        self._stale = {}

    # -- discrepancy ----------------------------------------------------- #

    def discrepancy(
        self,
        view: "DerivedWorlds",
        n_pairs: int | None = None,
        pairs: np.ndarray | None = None,
        seed=None,
        per_pair: bool = True,
    ) -> float:
        """Reliability discrepancy between the base graph and ``view``.

        Mirrors :func:`repro.reliability.reliability_discrepancy`'s pair
        policy: all pairs when the graph is small enough and neither
        ``n_pairs`` nor ``pairs`` is given, a sampled pair set otherwise.
        Passing an explicit ``pairs`` array lets a repeated caller
        evaluate every candidate on one fixed pair set, whose base counts
        the store then computes once (see :meth:`base_pair_equal_counts`).
        """
        n = self._graph.n_nodes
        total_pairs = n * (n - 1) / 2
        use_all = pairs is None and n_pairs is None and n <= FULL_MATRIX_LIMIT
        if use_all:
            diff = np.abs(
                self.base_pairwise_reliability() - view.pairwise_reliability()
            )
            total = float(np.triu(diff, k=1).sum())
            evaluated = total_pairs
        else:
            if pairs is None:
                m = int(n_pairs) if n_pairs is not None else DEFAULT_PAIR_SAMPLE
                pairs = sample_vertex_pairs(n, m, seed=seed)
            else:
                pairs = _validate_pairs(pairs)
            base_counts, counts = view._counts_of_pairs(pairs)
            diff = np.abs(
                base_counts / self._n_samples - counts / self._n_samples
            )
            total = float(diff.sum())
            evaluated = pairs.shape[0]

        if per_pair:
            return total / evaluated
        if use_all:
            return total
        return total / evaluated * total_pairs


class DerivedWorlds:
    """One candidate graph's worlds, derived from a :class:`WorldStore`.

    Clean worlds alias the store's caches; only the dirty rows (worlds
    where a changed edge flipped) carry fresh labels.  All queries match
    a full recompute over :meth:`materialize` bit for bit.

    A view is tied to the base state it was derived from: once its store
    is rebased (a column changed), every query raises
    :class:`EstimationError` instead of mixing the new base with the old
    dirty rows.  The view's own record (:attr:`n_dirty`,
    :attr:`dirty_worlds`, :attr:`dirty_labels`) stays readable.
    """

    def __init__(
        self,
        store: WorldStore,
        cols: np.ndarray,
        new_cols: np.ndarray,
        dirty: np.ndarray,
        dirty_labels: np.ndarray | None,
    ):
        self._store = store
        self._cols = cols
        self._new_cols = new_cols
        self._dirty = dirty
        self._dirty_labels = dirty_labels
        self._generation = store._generation
        self._labels: np.ndarray | None = None
        self._pair_counts: np.ndarray | None = None

    def _require_current(self) -> None:
        if self._store._generation != self._generation:
            raise EstimationError(
                "derived view is stale: its store was rebased after "
                "derive(); derive the candidate again"
            )

    @property
    def store(self) -> WorldStore:
        return self._store

    @property
    def n_samples(self) -> int:
        return self._store.n_samples

    @property
    def n_dirty(self) -> int:
        """Worlds where a changed column flipped.

        Each was relabeled for this view; a flip need not change the
        world's connectivity.
        """
        return int(self._dirty.size)

    @property
    def dirty_worlds(self) -> np.ndarray:
        """Row indices of the dirty (flipped, relabeled) worlds."""
        return self._dirty

    @property
    def dirty_labels(self) -> np.ndarray:
        """Fresh labels of the dirty worlds, ``(n_dirty, n)``."""
        if self._dirty_labels is None:
            return np.empty((0, self._store.graph.n_nodes), dtype=np.int32)
        return self._dirty_labels

    def materialize(self) -> np.ndarray:
        """The full ``(N, n_columns)`` mask matrix of this candidate.

        Intended for audits: a fresh labeling of this matrix must agree
        with every incremental answer bit for bit.
        """
        self._require_current()
        masks = np.array(self._store.base_masks, copy=True)
        if self._cols.size:
            masks[:, self._cols] = self._new_cols
        return masks

    @property
    def labels(self) -> np.ndarray:
        """Int ``(N, n)`` component labels of the candidate's worlds."""
        self._require_current()
        if self._labels is None:
            base = self._store.base_labels
            if self._dirty.size == 0:
                self._labels = base
            else:
                out = np.array(base, copy=True)
                out[self._dirty] = self._dirty_labels
                self._labels = out
        return self._labels

    @property
    def pair_counts(self) -> np.ndarray:
        """Connected-pair count per world (int64, dirty rows patched)."""
        self._require_current()
        if self._pair_counts is None:
            base = self._store.base_pair_counts
            if self._dirty.size == 0:
                self._pair_counts = base
            else:
                out = base.copy()
                out[self._dirty] = pair_counts_from_labels(self._dirty_labels)
                self._pair_counts = out
        return self._pair_counts

    # -- reliability queries (Definition 1) ------------------------------ #

    def two_terminal(self, u: int, v: int) -> float:
        n = self._store.graph.n_nodes
        if not (0 <= u < n and 0 <= v < n):
            raise EstimationError(f"vertex pair ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            return 1.0
        return float(self.reliability_of_pairs([[u, v]])[0])

    def _counts_of_pairs(
        self, pairs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(base, candidate)`` int64 connected-world counts per pair."""
        self._require_current()
        base_counts = self._store.base_pair_equal_counts(pairs)
        if self._dirty.size == 0:
            return base_counts, base_counts
        cached = self._store._cached_pair_equal(pairs)
        if cached is not None:
            dirty_base = cached.take(self._dirty, axis=0).sum(
                axis=0, dtype=np.int64
            )
        else:
            dirty_base = _pair_equal_counts(
                self._store._label_rows(self._dirty), pairs
            )
        return base_counts, (
            base_counts
            - dirty_base
            + _pair_equal_counts(self._dirty_labels, pairs)
        )

    def reliability_of_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Vectorized ``R_{u,v}`` for an ``(M, 2)`` pair array."""
        counts = self._counts_of_pairs(_validate_pairs(pairs))[1]
        return counts / self._store.n_samples

    def expected_connected_pairs(self) -> float:
        return float(self.pair_counts.mean())

    def average_all_pairs_reliability(self) -> float:
        n = self._store.graph.n_nodes
        total_pairs = n * (n - 1) / 2
        if total_pairs == 0:
            return 0.0
        return self.expected_connected_pairs() / total_pairs

    def pairwise_reliability(self) -> np.ndarray:
        """Full ``n x n`` reliability matrix of the candidate.

        Derived as ``base accumulator - dirty-row base contribution +
        dirty-row candidate contribution``; when more than half the
        worlds are dirty, as ``clean-row base contribution + dirty-row
        candidate contribution`` instead, which accumulates fewer worlds.
        Exact integer arithmetic either way, hence bit-identical to a
        full recompute.
        """
        self._require_current()
        n = self._store.graph.n_nodes
        if n > FULL_MATRIX_LIMIT:
            raise EstimationError(
                f"full reliability matrix limited to {FULL_MATRIX_LIMIT} "
                f"vertices, graph has {n}; use reliability_of_pairs"
            )
        n_samples = self._store.n_samples
        if 2 * self._dirty.size > n_samples:
            acc = _pairwise_equal_acc(self._dirty_labels, n)
            clean = np.ones(n_samples, dtype=bool)
            clean[self._dirty] = False
            if clean.any():
                acc += _pairwise_equal_acc(
                    self._store._label_rows(np.flatnonzero(clean)), n
                )
        else:
            acc = self._store.base_pair_acc
            if self._dirty.size:
                base_rows = self._store._label_rows(self._dirty)
                acc = (
                    acc
                    - _pairwise_equal_acc(base_rows, n)
                    + _pairwise_equal_acc(self._dirty_labels, n)
                )
        result = acc / n_samples
        np.fill_diagonal(result, 1.0)
        return result
