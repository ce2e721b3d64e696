"""GPMA: the dynamic graph container on the virtual GPU.

Edges live in one PMA keyed ``(src << 32) | dst`` (both directions of
every undirected edge), so a vertex's adjacency is the contiguous key
range ``[src << 32, (src+1) << 32)`` — exactly the layout GPMA uses so
warps scan neighbors coalescedly.

``apply_delta`` performs the real structural update *and* prices it
with the paper's batch-update algorithm in mind: per-update leaf
location through the segment tree (top-k levels optionally cached in
shared memory), per-segment-group materialization with warp / block /
device strategies chosen by segment size, and cooperative-group
sub-warps for segments smaller than a warp (§V-C).

With ``vectorized`` (default) the PMA runs its array-native batch
kernels and the delta→directed-key expansion, leaf-group counting and
materialization pricing are flat array passes; the scalar formulation
is kept as the oracle and both produce byte-identical
:class:`GpmaUpdateStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as _np

from repro import xp

from repro.errors import GraphError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.updates import EffectiveDelta
from repro.gpu.params import DEFAULT_PARAMS, DeviceParams
from repro.pma.pma import PMA
from repro.pma.segment_index import SegmentIndex

_SHIFT = 32
_DST_MASK = (1 << _SHIFT) - 1


def edge_key(u: int, v: int) -> int:
    return (u << _SHIFT) | v


def _directed_keys(edges: xp.ndarray) -> xp.ndarray:
    """Both directed keys of every ``(u, v, label)`` row."""
    u, v = edges[:, 0], edges[:, 1]
    return xp.concatenate(((u << _SHIFT) | v, (v << _SHIFT) | u))


def directed_key_runs(edges: xp.ndarray) -> xp.ndarray:
    """``(2k, 2)`` directed ``(key, label)`` runs of ``(u, v, label)``
    rows — the journal form the store's rollback feeds straight back to
    the PMA batch ops (both directions of every undirected edge)."""
    edges = xp.asarray(edges, dtype=xp.int64).reshape(-1, 3)
    labels = xp.concatenate((edges[:, 2], edges[:, 2]))
    return xp.stack((_directed_keys(edges), labels), axis=1)


@dataclass
class GpmaUpdateStats:
    """Simulated cost of one batch update."""

    n_inserted: int = 0
    n_deleted: int = 0
    locate_cycles: float = 0.0
    materialize_cycles: float = 0.0
    rebalance_cycles: float = 0.0
    escalations: int = 0
    segments_touched: int = 0
    shared_probes: int = 0
    global_probes: int = 0

    @property
    def total_cycles(self) -> float:
        return self.locate_cycles + self.materialize_cycles + self.rebalance_cycles

    def seconds(self, clock_hz: float) -> float:
        return self.total_cycles / clock_hz


class GPMAGraph:
    """Dynamic undirected labeled graph stored in a PMA.

    Parameters
    ----------
    top_k_cached:
        Levels of the segment tree cached in shared memory (0 disables
        the paper's first optimization).
    cooperative_groups:
        Enable sub-warp groups for small segments (the paper's second
        optimization); disabling models plain GPMA warp allocation.
    vectorized:
        Array-native PMA batch kernels and flat delta/pricing passes
        (default). ``False`` selects the per-element scalar oracle.
    """

    def __init__(
        self,
        params: DeviceParams = DEFAULT_PARAMS,
        top_k_cached: int = 3,
        cooperative_groups: bool = True,
        vectorized: bool = True,
    ) -> None:
        self.params = params
        self.top_k_cached = top_k_cached
        self.cooperative_groups = cooperative_groups
        self.vectorized = vectorized
        self._pma = PMA.bulk_load([], vectorized=vectorized)
        self._n_vertices = 0
        #: number of batch deltas applied. A GPMA may be shared by many
        #: query runtimes; each batch must land here exactly once, and
        #: the shared-store layer audits that through this counter.
        self.update_count = 0
        #: optional :class:`~repro.testing.faults.FaultPlan` attached by
        #: the owning store; ``None`` in production
        self.faults = None

    @classmethod
    def from_graph(
        cls,
        g: LabeledGraph,
        params: DeviceParams = DEFAULT_PARAMS,
        top_k_cached: int = 3,
        cooperative_groups: bool = True,
        vectorized: bool = True,
    ) -> "GPMAGraph":
        gpma = cls(params, top_k_cached, cooperative_groups, vectorized)
        # bulk edge-key construction from the flat adjacency export
        # (vectorized shift-or instead of a python loop per edge)
        degrees, dst, lbl = g.adjacency_arrays()
        src = xp.repeat(xp.arange(g.n_vertices, dtype=xp.int64), degrees)
        keys = (src << _SHIFT) | dst
        order = xp.argsort(keys)
        if vectorized:
            gpma._pma = PMA.bulk_load(
                xp.stack((keys[order], lbl[order]), axis=1), vectorized=True
            )
        else:
            items = list(
                zip(
                    xp.to_numpy(keys[order]).tolist(),
                    xp.to_numpy(lbl[order]).tolist(),
                )
            )
            gpma._pma = PMA.bulk_load(items, vectorized=False)
        gpma._n_vertices = g.n_vertices
        return gpma

    # ------------------------------------------------------------------
    # graph reads
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return self._n_vertices

    @property
    def n_edges(self) -> int:
        return len(self._pma) // 2

    def neighbors(self, v: int) -> list[int]:
        """Sorted neighbor list of ``v`` (a coalesced PMA range scan)."""
        if self.vectorized:
            return xp.to_numpy(self.neighbor_arrays(v)[0]).tolist()
        lo, hi = edge_key(v, 0), edge_key(v + 1, 0)
        return [k & _DST_MASK for k, _ in self._pma.range_items(lo, hi)]

    def neighbor_items(self, v: int) -> list[tuple[int, int]]:
        """Sorted ``(neighbor, edge_label)`` pairs."""
        if self.vectorized:
            nbrs, lbls = self.neighbor_arrays(v)
            return list(zip(xp.to_numpy(nbrs).tolist(), xp.to_numpy(lbls).tolist()))
        lo, hi = edge_key(v, 0), edge_key(v + 1, 0)
        return [(k & _DST_MASK, lbl) for k, lbl in self._pma.range_items(lo, hi)]

    def neighbor_arrays(self, v: int) -> tuple[xp.ndarray, xp.ndarray]:
        """Sorted ``(neighbors, edge_labels)`` arrays of ``v`` — the
        coalesced range scan without per-element python."""
        keys, vals = self._pma.range_arrays(edge_key(v, 0), edge_key(v + 1, 0))
        return keys & _DST_MASK, vals

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self._pma

    def edge_label(self, u: int, v: int) -> int:
        value = self._pma.lookup(edge_key(u, v))
        if value is None:
            raise GraphError(f"edge ({u}, {v}) not in GPMA")
        return value

    def check_invariants(self) -> None:
        self._pma.check_invariants()

    # ------------------------------------------------------------------
    # batch update (the Update stage of the GAMMA pipeline)
    # ------------------------------------------------------------------
    def apply_delta(self, delta: EffectiveDelta) -> GpmaUpdateStats:
        """Apply a net batch delta; returns the simulated device cost."""
        stats = GpmaUpdateStats(
            n_inserted=len(delta.inserted), n_deleted=len(delta.deleted)
        )
        self.update_count += 1
        params = self.params
        if self.vectorized:
            ins, dele = delta.inserted_array, delta.deleted_array
            for arr in (ins, dele):
                if len(arr):
                    self._n_vertices = max(
                        self._n_vertices, int(arr[:, :2].max()) + 1
                    )
            ins_keys = _directed_keys(ins)
            del_keys = _directed_keys(dele)
            keys = xp.concatenate((ins_keys, del_keys))
        else:
            self._n_vertices = max(
                [self._n_vertices]
                + [max(u, v) + 1 for u, v, _ in delta.inserted]
                + [max(u, v) + 1 for u, v, _ in delta.deleted]
            )
            key_list: list[int] = []
            for u, v, _ in delta.inserted + delta.deleted:
                key_list.append(edge_key(u, v))
                key_list.append(edge_key(v, u))
            keys = xp.asarray(key_list, dtype=xp.int64)

        # --- leaf location: one tree walk per directed update key ------
        index = SegmentIndex(self._pma, cached_levels=self.top_k_cached)
        uniq = counts = None
        if len(keys):
            leaves, cost = index.locate_bulk(keys)
            stats.shared_probes += cost.shared_probes
            stats.global_probes += cost.global_probes
            # histogram instead of a sort-based unique: leaves are dense
            # segment ids, and flatnonzero(bincount) is the same
            # ascending unique/counts pair at O(n + n_segments)
            occ = xp.bincount(leaves)
            uniq = xp.flatnonzero(occ)
            counts = occ[uniq]
        stats.locate_cycles += (
            stats.shared_probes * params.shared_access_cycles
            + stats.global_probes * params.global_transaction_cycles
        )

        # --- materialization: per touched segment, strategy by size ----
        seg_size = self._pma.segment_size
        warp = params.warp_size
        if uniq is not None:
            # vectorized pricing of every touched leaf at once; summed in
            # ascending leaf order so the float accumulation is identical
            # to the scalar per-leaf loop
            work = seg_size + counts
            txn = xp.ceil(work / warp) * params.global_transaction_cycles
            if seg_size <= warp:
                if self.cooperative_groups:
                    # sub-warp groups sized to the segment let one warp
                    # process warp/group segments concurrently
                    group = _pow2_at_least(seg_size, warp)
                    concurrency = warp // group
                    rounds = xp.ceil(work / group) / concurrency
                else:
                    rounds = xp.ceil(work / warp) * 1.0  # idle lanes wasted
                cycles = rounds * params.compute_cycles + txn
            else:
                # block strategy stages the segment in shared memory;
                # oversized work pays the global-scratch device price
                block = txn + work * params.shared_access_cycles / warp
                device = 2 * txn
                cycles = xp.where(work <= params.shared_memory_words, block, device)
            # sequential left-to-right float adds, same IEEE op order as
            # the python sum the frozen baselines pinned — accumulate's
            # last element is that sum computed in one C pass
            stats.materialize_cycles += float(
                _np.add.accumulate(xp.to_numpy(cycles))[-1]
            )
            stats.segments_touched = len(uniq)

        # --- structural mutation (real) + rebalance pricing -------------
        if self.faults is not None:
            self.faults.fire("gpma.apply")
        self._pma.opstats.reset()
        esc = 0
        if self.vectorized:
            if len(dele):
                esc += self._pma.batch_delete(del_keys)
            if self.faults is not None:
                self.faults.fire("gpma.mid")
            if len(ins):
                ins_vals = xp.concatenate((ins[:, 2], ins[:, 2]))
                esc += self._pma.batch_insert(xp.stack((ins_keys, ins_vals), axis=1))
        else:
            delete_keys: list[int] = []
            for u, v, _ in delta.deleted:
                delete_keys.extend((edge_key(u, v), edge_key(v, u)))
            insert_items: list[tuple[int, int]] = []
            for u, v, lbl in delta.inserted:
                insert_items.extend(((edge_key(u, v), lbl), (edge_key(v, u), lbl)))
            if delete_keys:
                esc += self._pma.batch_delete(delete_keys)
            if self.faults is not None:
                self.faults.fire("gpma.mid")
            if insert_items:
                esc += self._pma.batch_insert(insert_items)
        ops = self._pma.opstats
        stats.escalations = esc
        stats.segments_touched += ops.segments_touched
        moves_tx = ceil(max(ops.element_moves, 1) / warp)
        stats.rebalance_cycles += moves_tx * params.global_transaction_cycles
        stats.rebalance_cycles += ops.rebalances * params.compute_cycles * warp
        stats.rebalance_cycles += ops.grows * 4 * moves_tx * params.global_transaction_cycles
        return stats

    # ------------------------------------------------------------------
    # rollback support (the store's transactional-commit path)
    # ------------------------------------------------------------------
    def revert_runs(self, delete_runs: xp.ndarray, insert_runs: xp.ndarray) -> None:
        """Structurally undo an applied delta from its journaled key runs.

        ``insert_runs`` / ``delete_runs`` are the ``(2k, 2)`` directed
        ``(key, label)`` runs the commit inserted / deleted (see
        :func:`directed_key_runs`). Recovery is host-side bookkeeping:
        no device pricing, and op stats are cleared so the next priced
        batch starts from a clean slate. Counters (``update_count``,
        vertex high-water mark) are the caller's to restore via
        :meth:`restore_marks`.
        """
        if len(insert_runs):
            if self.vectorized:
                self._pma.batch_delete(xp.asarray(insert_runs[:, 0], dtype=xp.int64))
            else:
                self._pma.batch_delete(xp.to_numpy(insert_runs[:, 0]).tolist())
        if len(delete_runs):
            if self.vectorized:
                self._pma.batch_insert(xp.asarray(delete_runs, dtype=xp.int64))
            else:
                self._pma.batch_insert(
                    [(k, v) for k, v in xp.to_numpy(delete_runs).tolist()]
                )
        self._pma.opstats.reset()

    def restore_marks(self, update_count: int, n_vertices: int) -> None:
        """Reset the audit counters a rolled-back commit advanced."""
        self.update_count = update_count
        self._n_vertices = n_vertices


def _pow2_at_least(n: int, cap: int) -> int:
    """Smallest power of two >= n, clamped to cap."""
    p = 1
    while p < n and p < cap:
        p <<= 1
    return min(p, cap)
