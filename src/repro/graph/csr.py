"""Immutable CSR (compressed sparse row) snapshot of a labeled graph.

The matching kernels read adjacency through CSR-style contiguous
arrays — the same access pattern the paper's GPU kernels get from the
GPMA key range of a vertex — so the virtual GPU can account coalesced
memory transactions per 32-consecutive-word segment.

Snapshots are maintained batch-dynamically: :meth:`CSRGraph.apply_delta`
produces the post-batch snapshot by merging on the sorted directed
edge keys ``src * n + dst``. Only the batch's Δ keys are sorted; the
rest of the write is O(|E|) copies, and the merged keys are carried
forward as the new snapshot's :meth:`CSRGraph.edge_index`.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

try:  # posix shm_open/shm_unlink without resource-tracker involvement
    import _posixshmem
except ImportError:  # pragma: no cover - non-posix fallback
    _posixshmem = None

from repro.errors import UpdateError
from repro.graph.labeled_graph import LabeledGraph


def sorted_membership(
    sorted_arr: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Clamped insertion positions of ``values`` in ``sorted_arr`` plus
    the membership mask — the one shared formulation of the
    ``searchsorted`` membership idiom (re-exported for the matching
    kernels as :func:`repro.matching.intersect.positions_in`)."""
    n = len(sorted_arr)
    if not n:
        return (
            np.zeros(len(values), dtype=np.int64),
            np.zeros(len(values), dtype=bool),
        )
    pos = np.searchsorted(sorted_arr, values)
    np.minimum(pos, n - 1, out=pos)
    return pos, sorted_arr[pos] == values


def _flat_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i]+counts[i])`` for all
    rows without a python loop."""
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return np.repeat(starts, counts) + within


def _merge(old: np.ndarray, new: np.ndarray, is_new: np.ndarray) -> np.ndarray:
    """Interleave ``new`` into the slots ``is_new`` marks, ``old`` elsewhere."""
    out = np.empty(len(is_new), dtype=np.int64)
    out[is_new] = new
    out[~is_new] = old
    return out


class CSRGraph:
    """CSR view: ``neighbors[offsets[v]:offsets[v+1]]`` sorted ascending.

    ``edge_labels`` is aligned with ``neighbors``; ``vertex_labels[v]``
    is the label of ``v``.
    """

    __slots__ = (
        "offsets", "neighbors", "edge_labels", "vertex_labels", "_edge_index", "_degrees"
    )

    def __init__(
        self,
        offsets: np.ndarray,
        neighbors: np.ndarray,
        edge_labels: np.ndarray,
        vertex_labels: np.ndarray,
    ) -> None:
        self.offsets = offsets
        self.neighbors = neighbors
        self.edge_labels = edge_labels
        self.vertex_labels = vertex_labels
        self._edge_index: tuple[np.ndarray, np.ndarray] | None = None
        self._degrees: list[int] | None = None

    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted directed edge-key index ``(src * n + dst, labels)``.

        The CSR layout (sources ascending, neighbors sorted per row)
        makes the key array globally sorted, so bulk edge-existence and
        label lookups are one ``searchsorted``. Built lazily, cached for
        the snapshot's lifetime (snapshots are immutable).
        """
        if self._edge_index is None:
            self._edge_index = (self._directed_keys(self.n_vertices), self.edge_labels)
        return self._edge_index

    def _directed_keys(self, stride: int) -> np.ndarray:
        """``src * stride + dst`` per entry; sorted for any stride ≥ n."""
        src = np.repeat(np.arange(self.n_vertices, dtype=np.int64), np.diff(self.offsets))
        return src * np.int64(stride) + self.neighbors

    @classmethod
    def from_graph(cls, g: LabeledGraph) -> "CSRGraph":
        """Bulk CSR construction: one flat adjacency export from the
        graph (``fromiter`` over chained dicts — no per-edge python
        loop), then ``cumsum`` offsets and one ``argsort`` of the unique
        directed keys ``src * n + dst``, which also seeds
        :meth:`edge_index`."""
        n = g.n_vertices
        degrees, dst, lbl = g.adjacency_arrays()
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.asarray(degrees, dtype=np.int64), out=offsets[1:])
        src = np.repeat(np.arange(n, dtype=np.int64), degrees)
        keys = src * np.int64(n) + dst
        order = np.argsort(keys)
        out = cls(offsets, dst[order], lbl[order], np.asarray(g.vertex_labels, dtype=np.int64))
        out._edge_index = (keys[order], out.edge_labels)
        return out

    @classmethod
    def _from_graph_reference(cls, g: LabeledGraph) -> "CSRGraph":
        """Original per-vertex loop construction, kept as the equality
        oracle for :meth:`from_graph`'s vectorized path."""
        n = g.n_vertices
        offsets = np.zeros(n + 1, dtype=np.int64)
        for v in g.vertices():
            offsets[v + 1] = offsets[v] + g.degree(v)
        neighbors = np.empty(offsets[-1], dtype=np.int64)
        edge_labels = np.empty(offsets[-1], dtype=np.int64)
        for v in g.vertices():
            nbrs = g.neighbors(v)
            start = offsets[v]
            neighbors[start : start + len(nbrs)] = nbrs
            nbr_labels = g.neighbor_dict(v)
            edge_labels[start : start + len(nbrs)] = [nbr_labels[w] for w in nbrs]
        return cls(offsets, neighbors, edge_labels, np.asarray(g.vertex_labels, dtype=np.int64))

    def apply_delta(self, delta, graph_after: LabeledGraph) -> "CSRGraph":
        """Post-batch snapshot: this snapshot's sorted directed keys
        minus the deleted keys, merged with the sorted inserted keys
        (only the Δ keys are sorted); the merged keys become the new
        :meth:`edge_index`. ``graph_after`` supplies the post-batch
        vertex count (the key stride) and labels. A delete of a missing
        edge or an insert of an existing one raises :class:`UpdateError`.
        """
        n_new, n_old = graph_after.n_vertices, self.n_vertices
        stride = np.int64(n_new)
        # appended vertices change the stride: re-key from offsets
        keys, labels = (
            self.edge_index() if n_new == n_old else (self._directed_keys(n_new), self.edge_labels)
        )
        nbrs = self.neighbors
        ins, dele = delta.inserted_array, delta.deleted_array
        ins_src, ins_dst = (np.concatenate([ins[:, a], ins[:, 1 - a]]) for a in (0, 1))
        del_src, del_dst = (np.concatenate([dele[:, a], dele[:, 1 - a]]) for a in (0, 1))
        if len(del_src):
            pos, hit = sorted_membership(keys, del_src * stride + del_dst)
            if not hit.all():
                u, v = dele[int(np.argmin(hit)) % len(dele), :2].tolist()
                raise UpdateError(f"delete of missing edge ({u}, {v})")
            keep = np.ones(len(keys), dtype=bool)
            keep[pos] = False
            keys, nbrs, labels = keys[keep], nbrs[keep], labels[keep]
        if len(ins_src):
            ins_keys = ins_src * stride + ins_dst
            order = np.argsort(ins_keys)
            ins_keys = ins_keys[order]
            _, present = sorted_membership(keys, ins_keys)
            present[1:] |= ins_keys[1:] == ins_keys[:-1]
            if present.any():
                u, v = ins[int(order[np.argmax(present)]) % len(ins), :2].tolist()
                raise UpdateError(f"insert of existing edge ({u}, {v})")
            is_ins = np.zeros(len(keys) + len(ins_keys), dtype=bool)
            is_ins[np.searchsorted(keys, ins_keys) + np.arange(len(ins_keys))] = True
            ins_lbl = np.concatenate([ins[:, 2], ins[:, 2]])
            keys, nbrs, labels = (
                _merge(old, new, is_ins)
                for old, new in ((keys, ins_keys), (nbrs, ins_dst[order]), (labels, ins_lbl[order]))
            )
        shift = np.bincount(ins_src, minlength=n_new) - np.bincount(del_src, minlength=n_new)
        offsets = np.concatenate([self.offsets, np.full(n_new - n_old, self.offsets[-1])])
        offsets[1:] += np.cumsum(shift)
        out = CSRGraph(offsets, nbrs, labels, np.asarray(graph_after.vertex_labels, dtype=np.int64))
        out._edge_index = (keys, labels)
        return out

    @property
    def n_vertices(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_edges(self) -> int:
        return len(self.neighbors) // 2

    def degree(self, v: int) -> int:
        """Degree of ``v`` from a per-snapshot int list, built on first
        use (snapshots are immutable, so it never goes stale)."""
        degrees = self._degrees
        if degrees is None:
            degrees = self._degrees = np.diff(self.offsets).tolist()
        return degrees[v]

    def neighbor_slice(self, v: int) -> np.ndarray:
        """Sorted neighbor array of ``v`` (a view, do not mutate)."""
        return self.neighbors[self.offsets[v] : self.offsets[v + 1]]

    def edge_label_slice(self, v: int) -> np.ndarray:
        """Edge labels aligned with :meth:`neighbor_slice`."""
        return self.edge_labels[self.offsets[v] : self.offsets[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbor_slice(u)
        i = int(np.searchsorted(nbrs, v))
        return i < len(nbrs) and nbrs[i] == v

    def snapshot_arrays(self) -> "dict[str, np.ndarray]":
        """The snapshot's flat arrays keyed for shared-memory
        publication (see :func:`publish_snapshot`)."""
        return {
            "offsets": self.offsets,
            "neighbors": self.neighbors,
            "edge_labels": self.edge_labels,
            "vertex_labels": self.vertex_labels,
        }

    @classmethod
    def from_arrays(cls, arrays: "dict[str, np.ndarray]") -> "CSRGraph":
        """Rebuild a snapshot from :meth:`snapshot_arrays` output —
        typically zero-copy views over an attached shared-memory block."""
        return cls(
            arrays["offsets"],
            arrays["neighbors"],
            arrays["edge_labels"],
            arrays["vertex_labels"],
        )


# --------------------------------------------------------------------------
# shared-memory snapshot publication (sharded serving tier)
#
# A committed CSR snapshot is a handful of flat int64/uint64 arrays — the
# zero-copy representation the worker processes of the sharded serving
# tier map read-only. The parent copies the arrays into one
# ``multiprocessing.shared_memory`` block per commit and broadcasts the
# picklable :class:`SharedSnapshotHandle`; workers attach the block and
# rebuild the snapshot as non-writeable numpy views with no
# deserialization cost proportional to the graph.
# --------------------------------------------------------------------------

_SHM_ALIGN = 64  # cache-line align each array within the block


@dataclass(frozen=True)
class SharedSnapshotHandle:
    """Picklable descriptor of one published shared-memory snapshot.

    ``fields`` lays out the block: ``(key, shape, dtype_str, byte_offset)``
    per array. ``version`` is the store version the snapshot was taken
    at, so a worker can audit that it attached the snapshot its batch
    message promised (the ``worker.snapshot.stale`` fault site exercises
    the failure mode where it did not).
    """

    shm_name: str
    fields: tuple[tuple[str, tuple[int, ...], str, int], ...]
    nbytes: int
    version: int = 0


def _untrack_shm(block: "shared_memory.SharedMemory") -> None:
    """Detach ``block`` from this process's resource tracker.

    On Python < 3.13 *attaching* to an existing block also registers it
    with the tracker, so a worker exiting would unlink a segment the
    parent still owns (bpo-39959). Only the publishing parent may
    unlink; attachers must unregister.
    """
    try:  # pragma: no cover - depends on interpreter internals
        resource_tracker.unregister(block._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass


def publish_snapshot(
    arrays: "dict[str, np.ndarray]", version: int = 0
) -> SharedSnapshotHandle:
    """Copy ``arrays`` into a fresh shared-memory block; return its handle.

    The publishing process keeps no mapping open — the handle alone
    (plus :func:`unlink_snapshot` at end-of-life) manages the segment.
    """
    fields: list[tuple[str, tuple[int, ...], str, int]] = []
    contiguous: list[np.ndarray] = []
    offset = 0
    for key, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        offset = -(-offset // _SHM_ALIGN) * _SHM_ALIGN
        fields.append((key, arr.shape, arr.dtype.str, offset))
        contiguous.append(arr)
        offset += arr.nbytes
    block = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    try:
        for (key, shape, dtype, off), arr in zip(fields, contiguous):
            view = np.ndarray(shape, dtype=dtype, buffer=block.buf, offset=off)
            view[...] = arr
            del view
    finally:
        block.close()
    return SharedSnapshotHandle(block.name, tuple(fields), max(offset, 1), version)


def unlink_snapshot(handle: SharedSnapshotHandle) -> None:
    """Free a published segment (publisher-side; idempotent)."""
    if _posixshmem is not None:
        # unlink directly: reopening via SharedMemory would re-register
        # with the resource tracker and race concurrent worker attaches
        try:
            _posixshmem.shm_unlink("/" + handle.shm_name)
        except FileNotFoundError:
            return
        try:  # the publisher's create registered it; balance the books
            resource_tracker.unregister("/" + handle.shm_name, "shared_memory")
        except Exception:  # pragma: no cover - tracker already gone
            pass
        return
    try:  # pragma: no cover - non-posix fallback
        block = shared_memory.SharedMemory(name=handle.shm_name)
    except FileNotFoundError:
        return
    block.close()
    try:
        block.unlink()
    except FileNotFoundError:
        pass


class AttachedSnapshot:
    """A worker-side read-only mapping of a published snapshot.

    ``arrays`` holds non-writeable numpy views over the block; they and
    anything built on them (the :class:`CSRGraph`) stay valid until
    :meth:`close`.
    """

    def __init__(self, handle: SharedSnapshotHandle) -> None:
        self.handle = handle
        self.version = handle.version
        self._block = None
        self._mmap = None
        if _posixshmem is not None:
            # map the segment directly: a SharedMemory attach would
            # (re-)register the name with the resource tracker, and with
            # many workers attaching one segment the concurrent
            # register/unregister traffic races (bpo-39959)
            fd = _posixshmem.shm_open("/" + handle.shm_name, os.O_RDONLY, mode=0o600)
            try:
                self._mmap = mmap.mmap(fd, handle.nbytes, prot=mmap.PROT_READ)
            finally:
                os.close(fd)
            buf: "memoryview | mmap.mmap" = self._mmap
        else:  # pragma: no cover - non-posix fallback
            self._block = shared_memory.SharedMemory(name=handle.shm_name)
            _untrack_shm(self._block)
            buf = self._block.buf
        self.arrays: dict[str, np.ndarray] = {}
        for key, shape, dtype, off in handle.fields:
            view = np.ndarray(shape, dtype=dtype, buffer=buf, offset=off)
            if view.flags.writeable:  # read-only mmaps already are not
                view.flags.writeable = False
            self.arrays[key] = view

    def csr(self) -> CSRGraph:
        """The attached CSR snapshot (zero-copy views)."""
        return CSRGraph.from_arrays(self.arrays)

    def close(self) -> None:
        """Drop the mapping (best-effort: outstanding views keep the
        buffer exported, in which case the close is deferred to GC)."""
        self.arrays.clear()
        for mapping in (self._mmap, self._block):
            if mapping is None:
                continue
            try:
                mapping.close()
            except BufferError:  # pragma: no cover - views still alive
                pass
