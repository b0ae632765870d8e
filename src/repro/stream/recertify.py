"""The incremental re-certification pipeline.

:class:`IncrementalRecertifier` holds a published anonymized graph's
warm state -- the :class:`~repro.privacy.incremental.DegreeUncertaintyCache`
(per-vertex degree pmfs) and optionally a
:class:`~repro.reliability.worldstore.WorldStore` (sampled possible
worlds) -- and turns an :class:`~repro.stream.updates.UpdateBatch` into
a fresh ``(k, epsilon)`` certificate without re-running the global
anonymization:

1. the cache patches only the pmf rows of vertices the batch touches
   (:meth:`~repro.privacy.incremental.DegreeUncertaintyCache.apply_edge_arrays`);
2. the world store, if attached, re-thresholds only the changed columns
   against its existing uniforms
   (:meth:`~repro.reliability.worldstore.WorldStore.rebase` -- a CRN
   continuation, re-thresholded chunk by chunk);
3. the ``(k, epsilon)`` check re-reads the patched entropy profile --
   bit-identical to rebuilding every cache from the patched graph;
4. if vertices fell under-obfuscated, a targeted local repair
   (:func:`~repro.stream.repair.repair_violations`) perturbs only edges
   incident to the violators instead of restarting the sigma ladder.

The recertifier owns its caches for the lifetime of an update stream:
batches chain (each applies against the state the previous one left),
which is what makes a long-lived warm service out of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import EstimationError
from ..privacy.incremental import DegreeUncertaintyCache
from ..privacy.obfuscation import ObfuscationReport
from ..reliability.worldstore import WorldStore, graph_delta
from ..ugraph.graph import UncertainGraph
from .repair import RepairOutcome, RepairPolicy, repair_violations
from .updates import UpdateBatch

__all__ = ["IncrementalRecertifier", "UpdateOutcome"]


@dataclass(frozen=True)
class UpdateOutcome:
    """What one :meth:`IncrementalRecertifier.apply` call produced.

    ``report`` is the certificate for ``graph`` (the published graph
    *after* the batch and any adopted repair); ``repaired`` says whether
    a repair delta was folded in, with the full :class:`RepairOutcome`
    under ``repair`` whenever a repair was attempted.
    ``n_dirty_worlds`` counts sampled worlds where a changed column
    flipped during the store rebase; their relabeling is deferred to the
    store's next label read, and a flip need not change connectivity
    (``None``: no store attached, or its masks were never materialized).
    """

    report: ObfuscationReport
    graph: UncertainGraph
    n_updates: int
    touched: np.ndarray
    repaired: bool
    repair: RepairOutcome | None
    n_dirty_worlds: int | None


class IncrementalRecertifier:
    """Patch-and-repair re-certification of a published graph.

    ``knowledge`` is the adversary's degree observations and is fixed at
    construction: updates change the *published* graph, not what the
    adversary already saw, so every check after every batch keeps using
    the original knowledge vector (pass the one derived from the
    original graph when re-certifying an anonymization; default is the
    cache's own, i.e. expected degrees of the published graph).

    An attached ``store`` must answer for the published graph: same
    vertex count, same probability on every pair.  Otherwise construction
    raises :class:`~repro.exceptions.EstimationError`, because the store
    would only reject the first batch after the degree cache had adopted
    it.
    """

    def __init__(
        self,
        published: UncertainGraph,
        k: int,
        epsilon: float,
        knowledge: np.ndarray | None = None,
        cache: DegreeUncertaintyCache | None = None,
        store: WorldStore | None = None,
    ):
        if cache is None:
            cache = DegreeUncertaintyCache(published)
        elif cache.graph.n_nodes != published.n_nodes:
            raise ValueError(
                f"cache answers for a {cache.graph.n_nodes}-vertex graph, "
                f"published graph has {published.n_nodes}"
            )
        self._cache = cache
        self._graph = cache.graph
        self._k = int(k)
        self._epsilon = float(epsilon)
        self._knowledge = (
            None if knowledge is None
            else np.asarray(knowledge, dtype=np.int64)
        )
        if store is not None:
            self._check_store(store)
        self._store = store

    def _check_store(self, store: WorldStore) -> None:
        n = self._graph.n_nodes
        if store.graph.n_nodes != n:
            raise EstimationError(
                f"world store answers for a {store.graph.n_nodes}-vertex "
                f"graph, published graph has {n}"
            )
        if store.graph is not self._graph:
            differ = graph_delta(store.graph, self._graph)
            if differ:
                u, v, p_store, p_published = differ[0]
                raise EstimationError(
                    f"world store answers for a different graph: "
                    f"{len(differ)} pair probabilities differ, e.g. "
                    f"({u}, {v}) has {p_store!r} in the store and "
                    f"{p_published!r} in the published graph"
                )

    # -- accessors ------------------------------------------------------- #

    @property
    def graph(self) -> UncertainGraph:
        """The current published graph (after all applied batches)."""
        return self._graph

    @property
    def cache(self) -> DegreeUncertaintyCache:
        return self._cache

    @property
    def store(self) -> WorldStore | None:
        return self._store

    def check(self) -> ObfuscationReport:
        """Certify the current state without applying anything."""
        return self._cache.check_base(
            self._k, self._epsilon, knowledge=self._knowledge
        )

    # -- the pipeline ---------------------------------------------------- #

    def _adopt(self, us, vs, p_old, p_new) -> int | None:
        """Fold a delta into every attached cache; returns dirty worlds."""
        self._graph = self._cache.apply_edge_arrays(us, vs, p_old, p_new)
        if self._store is None:
            return None
        stats = self._store.rebase(
            np.column_stack((us, vs, p_old, p_new)), graph=self._graph
        )
        return stats["n_dirty_worlds"]

    def apply(
        self, batch: UpdateBatch, repair: RepairPolicy | None = None
    ) -> UpdateOutcome:
        """Ingest one update batch and re-certify.

        With a :class:`RepairPolicy`, an unsatisfied post-update check
        triggers the targeted local repair; a winning repair delta is
        adopted permanently (cache + store), so ``outcome.graph`` is
        what should be re-published.  Without one (or when the repair
        ladder is exhausted) the outcome simply reports the violation --
        callers fall back to a full re-anonymization.
        """
        n_dirty = self._adopt(batch.us, batch.vs, batch.p_old, batch.p_new)
        report = self.check()
        repaired = False
        repair_outcome: RepairOutcome | None = None
        if not report.satisfied and repair is not None:
            repair_outcome = repair_violations(
                self._graph,
                self._cache,
                report,
                self._k,
                self._epsilon,
                repair,
                knowledge=self._knowledge,
            )
            if repair_outcome.satisfied:
                extra_dirty = self._adopt(
                    repair_outcome.us,
                    repair_outcome.vs,
                    repair_outcome.p_old,
                    repair_outcome.p_new,
                )
                if n_dirty is not None and extra_dirty is not None:
                    n_dirty += extra_dirty
                elif extra_dirty is not None:
                    n_dirty = extra_dirty
                # Re-read the base certificate rather than trusting the
                # trial report: the outcome's report must be THE report
                # for the adopted state.
                report = self.check()
                repaired = True
        return UpdateOutcome(
            report=report,
            graph=self._graph,
            n_updates=len(batch),
            touched=batch.touched_vertices(),
            repaired=repaired,
            repair=repair_outcome,
            n_dirty_worlds=n_dirty,
        )
