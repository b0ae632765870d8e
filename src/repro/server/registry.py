"""Warm per-dataset state: graphs, degree-pmf caches, CRN world stores.

The registry is what makes the service *warm*: the first job touching a
dataset pays for parsing, the O(n * d^2) degree-uncertainty dynamic
program, and the world-store base state (uniform draws + component
labels); every later job gets the parsed graph by reference and the
caches as **clones**.  Cloning is the bit-identity mechanism, not an
optimization detail:

* ``DegreeUncertaintyCache.clone()`` copies the only mutable state (the
  pmf matrix), so a clone of the pristine cache answers checks exactly
  like a freshly built cache -- and per-job clones mean concurrent jobs
  never share the in-place rollback buffer.
* ``WorldStore.clone()`` deep-copies the generator and shares the
  world-chunk blocks copy-on-write, so a clone of the pristine store
  behaves exactly like a freshly built
  ``WorldStore(graph, n_samples, seed)`` -- per-job column growth
  re-allocates on the clone and never leaks back into the warm copy.

Datasets are keyed by *content*: files by a sha256 of their bytes (an
edited file is a different dataset), seeded profiles by
``(name, scale, seed)``.  Profiles loaded without a seed are fresh
entropy per load and are deliberately never cached.  Entries are
LRU-evicted beyond ``max_datasets``.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from collections import OrderedDict
from pathlib import Path

from ..datasets import load_dataset
from ..privacy import expected_degree_knowledge
from ..privacy.incremental import DegreeUncertaintyCache
from ..reliability.worldstore import FULL_MATRIX_LIMIT, WorldStore

__all__ = ["DatasetRegistry"]

logger = logging.getLogger("repro.server")


class _DatasetEntry:
    """One warm dataset and its lazily built derived caches."""

    def __init__(self, key, graph):
        self.key = key
        self.graph = graph
        self.lock = threading.Lock()
        self.degree_cache: DegreeUncertaintyCache | None = None
        self.world_stores: dict[tuple, WorldStore] = {}


class DatasetRegistry:
    """Thread-safe LRU of warm datasets (see module docstring)."""

    def __init__(self, max_datasets: int = 4):
        self._max = int(max_datasets)
        self._entries: OrderedDict[tuple, _DatasetEntry] = OrderedDict()
        self._by_graph: dict[int, _DatasetEntry] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._loads = 0
        self._evictions = 0

    # -- datasets -------------------------------------------------------- #

    def _key(self, source: str, scale: float, seed):
        path = Path(source)
        if path.is_file():
            return ("file", hashlib.sha256(path.read_bytes()).hexdigest())
        if seed is None:
            return None  # unseeded profile: fresh entropy, never cached
        return ("profile", str(source).lower(), float(scale), int(seed))

    def load(self, source: str, scale: float = 1.0, seed=None):
        """Load a dataset, returning the warm graph when one exists."""
        key = self._key(source, scale, seed)
        if key is None:
            return load_dataset(source, scale=scale, seed=seed)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry.graph
        # Parse outside the lock; a racing duplicate load is harmless
        # (last writer wins, both graphs are value-identical).
        graph = load_dataset(source, scale=scale, seed=seed)
        entry = _DatasetEntry(key, graph)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return existing.graph
            self._loads += 1
            self._entries[key] = entry
            self._by_graph[id(graph)] = entry
            while len(self._entries) > self._max:
                __, evicted = self._entries.popitem(last=False)
                self._by_graph.pop(id(evicted.graph), None)
                self._evictions += 1
                logger.info("evicted warm dataset %s", evicted.key)
        logger.info(
            "warmed dataset %s (%d nodes, %d edges)",
            key, graph.n_nodes, graph.n_edges,
        )
        return entry.graph

    def _entry_for(self, graph) -> _DatasetEntry | None:
        with self._lock:
            return self._by_graph.get(id(graph))

    # -- warm derived state ---------------------------------------------- #

    def degree_cache(self, graph) -> DegreeUncertaintyCache | None:
        """A per-job clone of the dataset's degree-pmf cache, or None.

        None when ``graph`` is not a registered warm dataset (the caller
        builds cold, exactly as a one-shot run would).
        """
        entry = self._entry_for(graph)
        if entry is None:
            return None
        with entry.lock:
            if entry.degree_cache is None:
                entry.degree_cache = DegreeUncertaintyCache(
                    graph, knowledge=expected_degree_knowledge(graph)
                )
                logger.info("warmed degree cache for %s", entry.key)
            return entry.degree_cache.clone()

    def world_store(self, graph, n_samples, seed,
                    memory_budget=None) -> WorldStore:
        """A per-job clone of the pristine world store for these params.

        The pristine store is never derived against -- derivation grows
        its column universe and consumes its generator -- so every clone
        starts from the exact state a fresh
        ``WorldStore(graph, n_samples, seed)`` would have.  Clones share
        the pristine store's world-chunk blocks copy-on-write, so the
        per-job world-state cost is O(1) until a job grows the universe.
        """
        entry = self._entry_for(graph)
        if entry is None:
            return WorldStore(
                graph, n_samples, seed=seed, memory_budget=memory_budget
            )
        key = (int(n_samples), seed, memory_budget)
        with entry.lock:
            store = entry.world_stores.get(key)
            if store is None:
                store = WorldStore(
                    graph, n_samples, seed=seed, memory_budget=memory_budget
                )
                # Force the expensive base state now so every clone
                # shares it (lazy caches computed on a clone would stay
                # on that clone).  Values are unchanged -- this is the
                # same computation a cold run performs on first touch.
                store.warm()
                if graph.n_nodes <= FULL_MATRIX_LIMIT:
                    store.base_pair_acc
                entry.world_stores[key] = store
                logger.info(
                    "warmed world store %s for %s", key, entry.key
                )
            return store.clone()

    # -- introspection ---------------------------------------------------- #

    def stats(self) -> dict:
        with self._lock:
            entries = list(self._entries.values())
            return {
                "datasets": len(entries),
                "max_datasets": self._max,
                "warm_degree_caches": sum(
                    1 for e in entries if e.degree_cache is not None
                ),
                "warm_world_stores": sum(
                    len(e.world_stores) for e in entries
                ),
                "hits": self._hits,
                "loads": self._loads,
                "evictions": self._evictions,
            }
