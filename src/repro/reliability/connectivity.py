"""Batch connectivity over sampled possible worlds.

Given the ``(N, |E|)`` world-mask matrix produced by
:mod:`repro.ugraph.worlds`, these routines compute, per world, the
connected-component labeling and the number of connected vertex pairs.
They are the inner loop of every reliability estimator, so five backends
are provided behind one ``backend=`` parameter:

* ``batched-scipy``: the in-process batch engine.  It stacks all ``N``
  worlds into ONE block-diagonal sparse adjacency (node ids offset by
  ``world_index * n_nodes``) and labels every world with a single
  compiled ``connected_components`` call, producing the canonical
  labeling (per-row consecutive ids in first-appearance order).
* ``process``: chunks the world matrix across a lazily created,
  *persistent* :class:`~concurrent.futures.ProcessPoolExecutor` whose
  worker count comes from an explicit ``n_workers`` argument, the
  ``REPRO_NUM_WORKERS`` environment variable, or ``os.cpu_count()``.
  The mask matrix crosses the process boundary through
  :mod:`multiprocessing.shared_memory` -- workers receive only a
  ``(segment name, shape, row slice)`` descriptor, never a pickled
  mask array -- and each worker runs the batched-scipy kernel on its
  row slice.  Worth it for very large ``N * |E|`` workloads on
  multi-core hardware.
* ``auto``: picks ``batched-scipy`` or ``process`` from the workload
  size ``N * |E|`` (see :func:`resolve_backend`); below the recorded
  crossover the pool overhead is never paid.
* ``scipy``: the historical default -- one sparse adjacency build plus
  one ``connected_components`` call per world.  Kept as the correctness
  oracle and for tiny batches where setup costs dominate.
* ``python``: the :class:`~repro.reliability.union_find.UnionFind`
  fallback, used in tests to cross-check the compiled paths.

All backends produce the same component *partitions*; concrete label
values may differ (each row is renumbered to consecutive ids starting at
0, but the assignment order is backend-specific).  Every estimator
quantity in this package depends only on the partition, so backend
choice never changes results.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components as _scipy_cc

from .. import _segments
from ..exceptions import ConfigurationError
from ..ugraph.graph import UncertainGraph
from .union_find import component_labels as _uf_labels

__all__ = [
    "CONNECTIVITY_BACKENDS",
    "NUM_WORKERS_ENV",
    "resolve_worker_count",
    "resolve_backend",
    "world_component_labels",
    "component_labels_for_edges",
    "batch_component_labels",
    "batch_pair_counts",
    "pair_counts_from_labels",
    "shutdown_worker_pools",
]

#: Every selectable connectivity backend, in documentation order.
CONNECTIVITY_BACKENDS = ("scipy", "python", "batched-scipy", "process", "auto")

#: Environment variable that sets the ``process`` backend's worker count.
NUM_WORKERS_ENV = "REPRO_NUM_WORKERS"

#: ``N * |E|`` workload size above which ``auto`` fans out to the process
#: pool.  The recorded crossover (benchmarks/results/
#: bench_connectivity_backends.txt) has ``process`` barely ahead of
#: ``batched-scipy`` at N=1000, |E|=2073 (~2.1M cells); the threshold sits
#: well above that point so ``auto`` never pays pool overhead below it.
AUTO_PROCESS_CELLS = 8_000_000

#: Soft cap on block-diagonal size: the batched kernel splits the world
#: batch so one stacked adjacency never exceeds this many virtual nodes.
_BATCH_NODE_LIMIT = 4_000_000

#: Soft cap on the temporary ``(rows, n_nodes)`` bincount matrix used by
#: the vectorized pair-count accumulation.
_PAIR_COUNT_BLOCK_ELEMENTS = 8_000_000


def _validate_backend(backend: str) -> str:
    if backend not in CONNECTIVITY_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {CONNECTIVITY_BACKENDS}"
        )
    return backend


def resolve_backend(backend: str, n_cells: int) -> str:
    """Resolve ``"auto"`` to a concrete engine for an ``n_cells`` workload.

    ``n_cells`` is the world-matrix size ``N * |E|``.  Workloads at or
    above :data:`AUTO_PROCESS_CELLS` go to the ``process`` pool; anything
    smaller stays on the single-process ``batched-scipy`` kernel, which
    the recorded benchmark shows is at worst a wash below the crossover.
    Concrete backend names pass through unchanged.
    """
    _validate_backend(backend)
    if backend != "auto":
        return backend
    return "process" if n_cells >= AUTO_PROCESS_CELLS else "batched-scipy"


def resolve_worker_count(n_workers: int | None = None) -> int:
    """Worker count for the ``process`` backend.

    Resolution order: explicit ``n_workers`` argument, then the
    ``REPRO_NUM_WORKERS`` environment variable, then ``os.cpu_count()``.
    """
    if n_workers is None:
        env = os.environ.get(NUM_WORKERS_ENV)
        if env is not None and env.strip():
            try:
                n_workers = int(env)
            except ValueError:
                raise ConfigurationError(
                    f"{NUM_WORKERS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            n_workers = os.cpu_count() or 1
    n_workers = int(n_workers)
    if n_workers < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {n_workers}")
    return n_workers


def _validate_masks(graph: UncertainGraph, masks: np.ndarray) -> np.ndarray:
    """Check the world matrix against the graph's edge universe."""
    masks = np.asarray(masks)
    if masks.ndim != 2:
        raise ValueError(
            f"world-mask matrix must be 2-D (N, |E|), got shape {masks.shape}"
        )
    if masks.shape[1] != graph.n_edges:
        raise ValueError(
            f"world-mask matrix has {masks.shape[1]} edge columns but the "
            f"graph has {graph.n_edges} edges; masks must come from the "
            "same graph (edge indexing is positional)"
        )
    if masks.dtype != np.bool_:
        masks = masks.astype(bool)
    return masks


def world_component_labels(
    n_nodes: int,
    src: np.ndarray,
    dst: np.ndarray,
    backend: str = "scipy",
) -> np.ndarray:
    """Component labels (0-based consecutive) for one deterministic world."""
    if backend == "python":
        raw = _uf_labels(n_nodes, src, dst)
        __, labels = np.unique(raw, return_inverse=True)
        return labels.astype(np.int32)
    if backend != "scipy":
        raise ValueError(f"unknown backend {backend!r}")
    if src.size == 0:
        return np.arange(n_nodes, dtype=np.int32)
    data = np.ones(src.shape[0], dtype=np.int8)
    adjacency = coo_matrix((data, (src, dst)), shape=(n_nodes, n_nodes))
    __, labels = _scipy_cc(adjacency, directed=False)
    return labels.astype(np.int32)


def _batched_labels(
    n_nodes: int, src: np.ndarray, dst: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """Label a world batch with ONE block-diagonal ``connected_components``.

    World ``i``'s vertex ``v`` becomes virtual node ``i * n_nodes + v``;
    stacking every realized edge with that offset yields a single sparse
    graph whose components are exactly the per-world components.

    The CSR is built directly: with the edge universe sorted by ``src``
    (grown columns arrive unsorted), the realized edges enumerated
    world-major give globally sorted stacked row ids, so ``indptr`` is a
    ``bincount`` prefix sum -- no COO sort, no duplicate merge.
    ``connected_components`` numbers components in first-appearance
    order over the vertex scan, so each world's ids form one ascending
    range starting at its vertex 0's id, and subtracting that id yields
    the canonical labeling.
    """
    n_samples = masks.shape[0]
    if n_samples == 0:
        return np.empty((0, n_nodes), dtype=np.int32)
    if n_nodes == 0:
        return np.empty((n_samples, 0), dtype=np.int32)
    total = n_samples * n_nodes
    # csgraph works on int32 indices internally; building the CSR with
    # them up front avoids a 2x index-copy inside connected_components.
    index_dtype = np.int32 if total < np.iinfo(np.int32).max else np.int64
    order = np.argsort(src, kind="stable")
    # ``take`` keeps the gathered matrix C-contiguous, so the flat scan
    # below reads it in place; flat indices plus per-world counts are
    # several times cheaper than the two-array ``np.nonzero`` of 2-D.
    masks = masks.take(order, axis=1)
    realized = np.flatnonzero(masks)
    per_world = np.count_nonzero(masks, axis=1)
    edge_pos = realized - np.repeat(
        np.arange(n_samples, dtype=np.int64) * masks.shape[1], per_world
    )
    offsets = np.repeat(
        np.arange(n_samples, dtype=index_dtype) * n_nodes, per_world
    )
    rows = src.astype(index_dtype)[order][edge_pos] + offsets
    cols = dst.astype(index_dtype)[order][edge_pos] + offsets
    indptr = np.zeros(total + 1, dtype=index_dtype)
    np.cumsum(np.bincount(rows, minlength=total), out=indptr[1:])
    # float64 data is csgraph's working dtype, so validation copies nothing.
    adjacency = csr_matrix(
        (np.ones(rows.shape[0], dtype=np.float64), cols, indptr),
        shape=(total, total),
    )
    __, flat = _scipy_cc(adjacency, directed=False)
    flat = flat.reshape(n_samples, n_nodes)
    return (flat - flat[:, :1]).astype(np.int32, copy=False)


def _batched_labels_chunked(
    n_nodes: int, src: np.ndarray, dst: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """Batched labeling, split so the stacked graph stays memory-bounded."""
    n_samples = masks.shape[0]
    if n_nodes == 0 or n_samples == 0:
        return np.empty((n_samples, n_nodes), dtype=np.int32)
    worlds_per_chunk = max(1, _BATCH_NODE_LIMIT // n_nodes)
    if n_samples <= worlds_per_chunk:
        return _batched_labels(n_nodes, src, dst, masks)
    parts = [
        _batched_labels(n_nodes, src, dst, masks[start:start + worlds_per_chunk])
        for start in range(0, n_samples, worlds_per_chunk)
    ]
    return np.concatenate(parts, axis=0)


#: Lazily created, reused process pools keyed by worker count.  Spawning
#: a pool costs tens of milliseconds; the Monte-Carlo loops call
#: ``_process_labels`` hundreds of times per run, so the pool persists
#: until interpreter exit (or an explicit :func:`shutdown_worker_pools`).
_WORKER_POOLS: dict[int, ProcessPoolExecutor] = {}


def _get_pool(n_workers: int) -> ProcessPoolExecutor:
    pool = _WORKER_POOLS.get(n_workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=n_workers)
        _WORKER_POOLS[n_workers] = pool
    return pool


def shutdown_worker_pools() -> None:
    """Shut down every persistent ``process``-backend pool."""
    for pool in _WORKER_POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _WORKER_POOLS.clear()


atexit.register(shutdown_worker_pools)


def _create_shared_masks(masks: np.ndarray) -> "_segments.Segment":
    """Copy a boolean world matrix into a fresh out-of-heap segment.

    The kind follows ``REPRO_SEGMENT_KIND``: POSIX shared memory by
    default, file-backed memmap segments where ``/dev/shm`` is scarce.

    The segment comes from the :mod:`repro._segments` registry, so an
    interpreter killed between creation and the ``finally`` unlink in
    :func:`_process_labels` is swept at exit instead of leaking.
    """
    shm = _segments.create_segment(
        masks.nbytes, kind=_segments.publish_kind()
    )
    view = np.ndarray(masks.shape, dtype=np.bool_, buffer=shm.buf)
    view[:] = masks
    # ``view`` goes out of scope here; only the segment's own buffer
    # stays exported, so close()/unlink() remain legal for the caller.
    return shm


def _shared_mask_payloads(
    n_nodes: int,
    src: np.ndarray,
    dst: np.ndarray,
    shm_name: str,
    shape: tuple[int, int],
    n_chunks: int,
) -> list[tuple]:
    """Descriptor tuples handed to the pool: name + shape + row slice.

    The mask matrix itself never crosses the process boundary -- workers
    attach to the named segment and read their ``[start, stop)`` rows
    in place.  Only the (small) endpoint arrays are pickled.
    """
    n_samples = shape[0]
    bounds = np.linspace(0, n_samples, n_chunks + 1, dtype=np.int64)
    return [
        (n_nodes, src, dst, shm_name, shape, int(start), int(stop))
        for start, stop in zip(bounds[:-1], bounds[1:])
        if stop > start
    ]


def _labels_shm_worker(payload) -> np.ndarray:
    """Module-level worker (picklable) for the ``process`` backend.

    Attaches to the parent's shared-memory segment, copies its assigned
    row slice out (the kernel reorders rows via fancy indexing anyway),
    and detaches before doing any labeling work so the parent can unlink
    the segment as soon as every worker has read its slice.
    """
    n_nodes, src, dst, shm_name, shape, start, stop = payload
    shm = _segments.attach_segment(shm_name)
    try:
        view = np.ndarray(shape, dtype=np.bool_, buffer=shm.buf)
        chunk = np.array(view[start:stop], copy=True)
        del view
    finally:
        shm.close()
    return _batched_labels_chunked(n_nodes, src, dst, chunk)


def _process_labels(
    n_nodes: int,
    src: np.ndarray,
    dst: np.ndarray,
    masks: np.ndarray,
    n_workers: int,
) -> np.ndarray:
    """Fan the world batch out over the persistent pool, one chunk per worker.

    Masks travel through shared memory (created here, unlinked in the
    ``finally`` even when a worker raises); workers receive descriptors
    only -- see :func:`_shared_mask_payloads`.
    """
    n_samples = masks.shape[0]
    n_workers = min(n_workers, max(1, n_samples))
    if n_workers <= 1:
        return _batched_labels_chunked(n_nodes, src, dst, masks)
    masks = np.ascontiguousarray(masks)
    shm = _create_shared_masks(masks)
    try:
        payloads = _shared_mask_payloads(
            n_nodes, src, dst, shm.name, masks.shape, n_workers
        )
        try:
            parts = list(_get_pool(n_workers).map(_labels_shm_worker, payloads))
        except BrokenProcessPool:
            # A worker died (OOM, signal): discard the broken pool so the
            # next call starts a healthy one, then surface the failure.
            _WORKER_POOLS.pop(n_workers, None)
            raise
        return np.concatenate(parts, axis=0)
    finally:
        _segments.release_segment(shm)


def component_labels_for_edges(
    n_nodes: int,
    src: np.ndarray,
    dst: np.ndarray,
    masks: np.ndarray,
    backend: str = "batched-scipy",
    n_workers: int | None = None,
) -> np.ndarray:
    """Component labels for a world batch over an explicit edge universe.

    Same contract as :func:`batch_component_labels` but parameterized by
    raw endpoint arrays instead of an :class:`UncertainGraph`, so callers
    whose edge universe outgrew the base graph (the world store's derived
    candidates) can reuse every backend.  ``masks`` must be
    ``(N, len(src))``.
    """
    masks = np.asarray(masks)
    if masks.ndim != 2 or masks.shape[1] != src.shape[0]:
        raise ValueError(
            f"world-mask matrix must be (N, {src.shape[0]}), got {masks.shape}"
        )
    if masks.dtype != np.bool_:
        masks = masks.astype(bool)
    backend = resolve_backend(backend, masks.shape[0] * max(1, masks.shape[1]))
    if backend == "batched-scipy":
        return _batched_labels_chunked(n_nodes, src, dst, masks)
    if backend == "process":
        return _process_labels(
            n_nodes, src, dst, masks, resolve_worker_count(n_workers)
        )
    n_samples = masks.shape[0]
    out = np.empty((n_samples, n_nodes), dtype=np.int32)
    for i in range(n_samples):
        keep = masks[i]
        out[i] = world_component_labels(
            n_nodes, src[keep], dst[keep], backend=backend
        )
    return out


def batch_component_labels(
    graph: UncertainGraph,
    masks: np.ndarray,
    backend: str = "scipy",
    n_workers: int | None = None,
) -> np.ndarray:
    """Component labels for every sampled world.

    Returns an ``(N, n_nodes)`` int32 matrix; row ``i`` labels world ``i``
    with consecutive component ids starting at 0.  ``backend`` selects
    the engine (see module docstring; ``"auto"`` resolves per workload
    via :func:`resolve_backend`); ``n_workers`` only affects the
    ``process`` backend (see :func:`resolve_worker_count`).
    """
    _validate_backend(backend)
    masks = _validate_masks(graph, masks)
    return component_labels_for_edges(
        graph.n_nodes, graph.edge_src, graph.edge_dst, masks,
        backend=backend, n_workers=n_workers,
    )


def pair_counts_from_labels(labels: np.ndarray) -> np.ndarray:
    """Connected-pair count per world from a batch labeling.

    ``labels`` is ``(N, n_nodes)`` with consecutive component ids per
    row.  Vectorized: rows are offset into disjoint label ranges so one
    ``np.bincount`` yields every world's component sizes at once
    (block-processed to bound the temporary size matrix).
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError(f"labels must be 2-D (N, n_nodes), got {labels.shape}")
    n_samples, n_nodes = labels.shape
    counts = np.empty(n_samples, dtype=np.float64)
    if n_samples == 0:
        return counts
    if n_nodes == 0:
        counts.fill(0.0)
        return counts
    block = max(1, _PAIR_COUNT_BLOCK_ELEMENTS // n_nodes)
    for start in range(0, n_samples, block):
        chunk = labels[start:start + block].astype(np.int64, copy=False)
        rows = chunk.shape[0]
        offset = np.arange(rows, dtype=np.int64)[:, None] * n_nodes
        sizes = np.bincount(
            (chunk + offset).ravel(), minlength=rows * n_nodes
        ).reshape(rows, n_nodes)
        counts[start:start + rows] = (sizes * (sizes - 1) // 2).sum(axis=1)
    return counts


def batch_pair_counts(
    graph: UncertainGraph,
    masks: np.ndarray,
    backend: str = "scipy",
    n_workers: int | None = None,
) -> np.ndarray:
    """Connected-pair count of every sampled world (``cc(G)`` in Alg. 2)."""
    return pair_counts_from_labels(
        batch_component_labels(graph, masks, backend=backend, n_workers=n_workers)
    )
