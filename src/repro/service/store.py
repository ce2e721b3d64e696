"""DynamicGraphStore: the shared dynamic-graph substrate.

The paper's setting is one data graph absorbing a continuous update
stream while *many* queries are maintained against it. Continuous
matching systems (TurboFlux, SymBi, and the GPU engines GSI/gMatch)
therefore keep a single graph container and layer per-query runtime
state on top. This module is that substrate: it owns

* the host mirror :class:`~repro.graph.labeled_graph.LabeledGraph`,
* the device-resident :class:`~repro.pma.gpma.GPMAGraph`,
* one shared :class:`~repro.filtering.encoding.EncodingTable` whose
  schema spans the data graph's label alphabet (a superset schema
  filters identically to a query-restricted one — see
  :meth:`EncodingSchema.for_labels`), and
* the authoritative CSR snapshot (:meth:`csr_snapshot`). Every
  commit produces the next one by merging on sorted directed edge keys
  (:meth:`CSRGraph.apply_delta`; only the Δ keys are sorted), and the
  WBM kernels, the encoding refresh and the next :meth:`prepare` all
  read it. On the vectorized path the host mirror is a view derived
  from it.

Per batch, the store computes the ``effective_delta`` **once** and
applies the GPMA + encoding update **exactly once** (one
:meth:`commit`), no matter how many query runtimes observe the result.
Runtimes synchronise through the monotonically increasing
``version``; a runtime that misses a commit fails loudly instead of
matching against stale candidate rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import MatchingError, ServiceError
from repro.filtering import EncodingSchema, EncodingTable
from repro.graph.csr import CSRGraph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.updates import (
    EffectiveDelta,
    UpdateBatch,
    apply_batch,
    effective_delta,
)
from repro.gpu.device import VirtualGPU
from repro.gpu.params import DEFAULT_PARAMS, DeviceParams
from repro.pma.gpma import GPMAGraph, GpmaUpdateStats, directed_key_runs


@dataclass(frozen=True, eq=False)
class RollbackJournal:
    """Pre-commit state captured by :meth:`DynamicGraphStore.commit`.

    Everything a :meth:`DynamicGraphStore.rollback` (or the in-commit
    failure recovery) needs to restore the pre-batch boundary: the
    inverse of the applied effective delta, the prior packed encoding
    rows of every touched vertex, the GPMA's directed ``(key, label)``
    runs, and the raw version / CSR-cache marks.
    """

    inverse: EffectiveDelta
    #: sorted vertex ids whose encoding rows the commit may rewrite
    #: (delta endpoints clipped to the pre-batch table length)
    touched_vertices: np.ndarray
    prior_rows: np.ndarray  # packed uint64 rows of ``touched_vertices``
    prior_packed_len: int
    prior_csr: CSRGraph | None
    prior_csr_version: int
    prior_version: int
    gpma_update_count: int
    gpma_n_vertices: int
    insert_runs: np.ndarray  # (2k, 2) directed (key, label) the commit added
    delete_runs: np.ndarray  # (2k, 2) directed (key, label) the commit removed


@dataclass(frozen=True)
class StoreCommit:
    """Everything one committed batch changed, observed by all runtimes."""

    delta: EffectiveDelta
    gpma_stats: GpmaUpdateStats
    changed_vertices: frozenset[int] = field(default_factory=frozenset)
    version: int = 0
    transfer_words: int = 0  # update edges + re-encoded rows over PCIe
    transfer_cycles: float = 0.0
    #: rollback journal for this commit (service-tier fault recovery);
    #: excluded from equality — it holds array state, not results
    journal: RollbackJournal | None = field(default=None, repr=False, compare=False)

    @property
    def is_noop(self) -> bool:
        """True when the batch had no net effect (empty effective delta)."""
        return not self.delta


class DynamicGraphStore:
    """One data graph, one GPMA, one encoding table — shared by N queries.

    The input graph is copied, so processed batches never mutate the
    caller's object.

    Parameters
    ----------
    schema:
        Encoding schema for the shared table. Defaults to the data
        graph's full label alphabet (optionally widened by
        ``extra_labels`` for queries whose labels are not yet present),
        which filters identically to any query-restricted schema.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        params: DeviceParams = DEFAULT_PARAMS,
        *,
        schema: EncodingSchema | None = None,
        bits_per_label: int = 2,
        extra_labels: tuple[int, ...] = (),
        vectorized: bool = True,
        faults=None,
    ) -> None:
        self.graph = graph.copy()
        self.params = params
        self.vectorized = vectorized
        #: optional :class:`~repro.testing.faults.FaultPlan`; threaded
        #: through the GPMA and read by every runtime sharing this store
        self.faults = faults
        self.gpma = GPMAGraph.from_graph(self.graph, params, vectorized=vectorized)
        self.gpma.faults = faults
        if schema is None:
            schema = EncodingSchema.for_labels(
                set(self.graph.label_alphabet()) | set(extra_labels), bits_per_label
            )
        self.schema = schema
        self.version = 0
        self._csr: CSRGraph | None = None
        self._csr_version = -1
        # the initial bulk encode reads the same CSR snapshot the
        # kernels will; scalar mode (the oracle) walks the dicts
        csr = self.csr_snapshot() if vectorized else None
        if vectorized:
            # the snapshot is authoritative: demote the host mirror to a
            # derived view over it, so commits rebase the view (O(1))
            # instead of replaying per-edge dict writes; neighbor_dict
            # serves per-vertex snapshot rows, and only mutation (or
            # ensure_materialized) builds an identical eager mirror
            self.graph = LabeledGraph.from_csr(csr)
        self.encodings = EncodingTable(schema, self.graph, csr, vectorized=vectorized)
        # prices the (single) shared upload; follows the store's flag so
        # the scalar-oracle store exercises the generator launch path too
        self.gpu = VirtualGPU(params, vectorized=vectorized)

    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges

    def csr_snapshot(self) -> CSRGraph:
        """CSR view of the current graph, cached until the next commit."""
        if self._csr is None or self._csr_version != self.version:
            self._csr = CSRGraph.from_graph(self.graph)
            self._csr_version = self.version
        return self._csr

    # ------------------------------------------------------------------
    def attach_faults(self, faults) -> None:
        """Thread a fault-injection plan through the store and its
        device container (runtimes read it through their store ref)."""
        self.faults = faults
        self.gpma.faults = faults

    def _fire(self, site: str) -> None:
        if self.faults is not None:
            self.faults.fire(site)

    # ------------------------------------------------------------------
    def prepare(self, batch: UpdateBatch) -> EffectiveDelta:
        """Net delta of ``batch`` against the current graph (no mutation).

        Negative-match kernels run between :meth:`prepare` and
        :meth:`commit`, while the pre-update graph is still live. The
        vectorized path replays the batch as a sorted canonical-edge
        overlay against the cached CSR snapshot (one bulk lookup, no
        per-op dict walk).
        """
        self._fire("store.prepare")
        if self.vectorized:
            return effective_delta(self.graph, batch, csr=self.csr_snapshot())
        return effective_delta(self.graph, batch, vectorized=False)

    def _capture_journal(self, delta: EffectiveDelta) -> RollbackJournal:
        """Snapshot everything :meth:`_restore` needs, before mutating."""
        enc = self.encodings
        ins, dele = delta.inserted_array, delta.deleted_array
        ends = np.concatenate((ins[:, :2].ravel(), dele[:, :2].ravel()))
        touched = np.unique(ends)
        # rows beyond the pre-batch table never existed — truncation
        # alone restores them
        touched = touched[touched < len(enc.packed)]
        return RollbackJournal(
            inverse=delta.inverse(),
            touched_vertices=touched,
            prior_rows=enc.packed[touched].copy(),
            prior_packed_len=len(enc.packed),
            prior_csr=self._csr,
            prior_csr_version=self._csr_version,
            prior_version=self.version,
            gpma_update_count=self.gpma.update_count,
            gpma_n_vertices=self.gpma.n_vertices,
            insert_runs=directed_key_runs(ins),
            delete_runs=directed_key_runs(dele),
        )

    def commit(self, batch: UpdateBatch, delta: EffectiveDelta | None = None) -> StoreCommit:
        """Apply ``batch``: one GPMA update, one encoding refresh.

        ``delta`` is the value :meth:`prepare` returned for this batch;
        passing it back avoids recomputing the net difference.

        The commit is transactional: a rollback journal is captured
        first, and any exception escaping the staged apply (GPMA →
        host mirror → CSR/encoding) triggers an in-place restore of the
        pre-batch boundary — verified by :meth:`check_consistency` —
        before the exception propagates. A commit that *returned* can
        later be undone with :meth:`rollback`.
        """
        if delta is None:
            delta = self.prepare(batch)
        journal = self._capture_journal(delta)
        stage = "pre"
        try:
            self._fire("store.commit.gpma")
            # pre-batch snapshot (if warm) seeds the incremental CSR splice
            old_csr = self._csr if self._csr_version == self.version else None
            stage = "gpma"
            gpma_stats = self.gpma.apply_delta(delta)
            stage = "graph"
            self._fire("store.commit.graph")
            new_csr: CSRGraph | None = None
            if self.vectorized:
                if delta:
                    # the CSR is authoritative: splice it first (the merge
                    # splice reads only the post-batch vertex count and
                    # labels, which edge deltas never change), then let
                    # the host mirror absorb the batch — a derived view
                    # rebases onto the new snapshot in O(1); a
                    # materialized mirror replays the net delta per edge
                    # under the strict contract
                    if old_csr is None:
                        old_csr = CSRGraph.from_graph(self.graph)
                    new_csr = old_csr.apply_delta(delta, self.graph)
                    self.graph.absorb_delta(delta, csr=new_csr, strict=True)
            else:
                apply_batch(self.graph, batch)
            stage = "encoding"
            self._fire("store.commit.encoding")
            if self.vectorized and delta:
                # publish the snapshot the mirror was rebased on: the
                # encoding refresh reads it now and every runtime's
                # positive-phase kernel reuses it
                self._csr = new_csr
                self._csr_version = self.version + 1
                changed = self.encodings.apply_delta(self.graph, delta, csr=self._csr)
            else:
                if self._csr is not None and not delta:
                    self._csr_version = self.version + 1  # no-op: graph unchanged
                else:
                    self._csr = None
                changed = self.encodings.apply_delta(self.graph, delta)
        except Exception:
            self._restore(journal, stage)
            raise
        self.version += 1
        words = 2 * (len(delta.inserted) + len(delta.deleted)) + 2 * len(changed)
        return StoreCommit(
            delta=delta,
            gpma_stats=gpma_stats,
            changed_vertices=frozenset(changed),
            version=self.version,
            transfer_words=words,
            transfer_cycles=self.gpu.link.transfer_cycles(words) if words else 0.0,
            journal=journal,
        )

    def process(self, batch: UpdateBatch) -> StoreCommit:
        """Prepare + commit in one step (no negative-phase window)."""
        return self.commit(batch, self.prepare(batch))

    # ------------------------------------------------------------------
    # rollback
    # ------------------------------------------------------------------
    def rollback(self, commit: StoreCommit) -> None:
        """Undo the store's most recent commit.

        Restores the host mirror, GPMA, cached CSR snapshot, encoding
        table, and version to the boundary before ``commit`` was
        applied, then re-audits via :meth:`check_consistency`. Only the
        latest commit can be rolled back (the journal captures one
        boundary); anything else raises :class:`ServiceError`.
        """
        if commit.journal is None:
            raise ServiceError(f"commit v{commit.version} carries no rollback journal")
        if commit.version != self.version:
            raise ServiceError(
                f"rollback of commit v{commit.version} rejected: "
                f"store is at v{self.version}"
            )
        self._restore(commit.journal, "committed")

    def _restore(self, journal: RollbackJournal, stage: str) -> None:
        """Roll state back to ``journal``'s boundary.

        ``stage`` names how far the failed commit got: ``pre`` (nothing
        mutated), ``gpma`` (device apply raised mid-batch), ``graph``
        (GPMA applied, host mirror possibly partial), ``encoding``
        (mirror applied, CSR/encoding phase possibly partial), or
        ``committed`` (a fully applied commit being rolled back).
        Always leaves the store passing :meth:`check_consistency`.
        """
        if stage in ("encoding", "committed"):
            enc = self.encodings
            if len(enc.packed) != journal.prior_packed_len:
                enc.packed = enc.packed[: journal.prior_packed_len]
            if len(journal.touched_vertices):
                enc.packed[journal.touched_vertices] = journal.prior_rows
            enc.version = journal.prior_version
        if stage in ("graph", "encoding", "committed"):
            inv = journal.inverse
            if (
                not self.graph.is_materialized
                and journal.prior_csr is not None
                and journal.prior_csr_version == journal.prior_version
            ):
                # an unmaterialized view cannot be partially applied (any
                # per-edge apply would have materialized it), so restoring
                # it is a rebase onto the journaled pre-batch snapshot —
                # the view stays a view through rollback
                self.graph.absorb_delta(inv, csr=journal.prior_csr)
            else:
                # host mirror: tolerant inverse apply — handles a partially
                # applied mirror too (remove-if-present / add-if-missing,
                # insertions undone first so label changes restore cleanly)
                for u, v, _ in inv.deleted:  # edges the commit inserted
                    if self.graph.has_edge(u, v):
                        self.graph.remove_edge(u, v)
                for u, v, lbl in inv.inserted:  # edges the commit deleted
                    if not self.graph.has_edge(u, v):
                        self.graph.add_edge(u, v, lbl)
            # device container absorbed the full delta: revert it from
            # the journaled directed key runs
            self.gpma.revert_runs(journal.delete_runs, journal.insert_runs)
        elif stage == "gpma":
            # the GPMA raised mid-batch — its PMA may hold any prefix of
            # the update, so rebuild from the untouched host mirror
            # (one bulk load: bounded recovery, not op-by-op repair)
            gpma = GPMAGraph.from_graph(
                self.graph,
                self.params,
                top_k_cached=self.gpma.top_k_cached,
                cooperative_groups=self.gpma.cooperative_groups,
                vectorized=self.vectorized,
            )
            gpma.faults = self.faults
            self.gpma = gpma
        if stage != "pre":
            self.gpma.restore_marks(journal.gpma_update_count, journal.gpma_n_vertices)
        self._csr = journal.prior_csr
        self._csr_version = journal.prior_csr_version
        self.version = journal.prior_version
        self.check_consistency()

    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Host mirror, device container, and encoding table must all
        have absorbed exactly the commits this store issued."""
        self.gpma.check_invariants()
        if self.gpma.n_edges != self.graph.n_edges:
            raise MatchingError(
                f"store divergence: GPMA holds {self.gpma.n_edges} edges, "
                f"host mirror {self.graph.n_edges}"
            )
        if self.gpma.update_count != self.version:
            raise MatchingError(
                f"store divergence: GPMA absorbed {self.gpma.update_count} "
                f"deltas, store committed {self.version}"
            )
        if self.encodings.version != self.version:
            raise MatchingError(
                f"store divergence: encoding table at v{self.encodings.version}, "
                f"store at v{self.version}"
            )

    def __repr__(self) -> str:
        return (
            f"DynamicGraphStore(|V|={self.n_vertices}, |E|={self.n_edges}, "
            f"version={self.version})"
        )
