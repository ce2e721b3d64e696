"""Undirected labeled graph: the shared data model for queries and data.

Vertices are dense integer ids ``0..n-1``. Every vertex carries an
integer label; every edge carries an integer label (``0`` when the
dataset has a single edge label, mirroring the paper's Table II where
four of six datasets have ``|ΣE| = 1``).

The structure is mutable — edge insertions and deletions are the whole
point of the batch-dynamic problem. Adjacency lives in one of two
states:

* **eager** — per-vertex ``dict[neighbor] -> edge label`` for O(1)
  membership, the historical representation and still the default for
  graphs built edge by edge;
* **derived view** (:meth:`from_csr`) — the columnar CSR snapshot *is*
  the topology and the whole-graph dicts do not exist yet. Bulk reads
  (``degree``, ``neighbors``, ``has_edge``, ``nlf``,
  ``adjacency_arrays``) are served straight from the snapshot, and
  ``neighbor_dict(v)`` builds only ``v``'s row dict from the snapshot
  row, cached per vertex. Mutation, ``__eq__`` and
  :meth:`ensure_materialized` materialize the dicts once, after which
  the graph is eager. A view absorbs a committed batch by *rebasing*
  onto the post-batch snapshot (:meth:`absorb_delta`) — O(1), no
  per-edge dict writes.

Scalar oracles and baselines see an identical dict interface either
way. Both states keep a lazily cached sorted neighbor tuple for the
matching kernels, which scan adjacency in key order (the PMA layout
does the same on "device").
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence

from repro.errors import GraphError

Edge = tuple[int, int]


def canonical(u: int, v: int) -> Edge:
    """Return the canonical (min, max) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


class LabeledGraph:
    """Undirected graph with vertex and edge labels.

    Parameters
    ----------
    vertex_labels:
        Label of vertex ``i`` at position ``i``. The vertex count is
        ``len(vertex_labels)``.
    """

    __slots__ = (
        "_labels", "_adj_store", "_n_edges", "_sorted_cache", "_row_cache", "_csr_source"
    )

    def __init__(self, vertex_labels: Sequence[int] = ()) -> None:
        self._labels: list[int] = list(vertex_labels)
        self._adj_store: list[dict[int, int]] | None = [{} for _ in self._labels]
        self._n_edges = 0
        self._sorted_cache: dict[int, tuple[int, ...]] = {}
        #: per-vertex ``{neighbor: edge label}`` rows of a derived view,
        #: built from the source snapshot on demand
        self._row_cache: dict[int, dict[int, int]] = {}
        self._csr_source = None

    # ------------------------------------------------------------------
    # adjacency representation (eager dicts vs derived CSR view)
    # ------------------------------------------------------------------
    @property
    def _adj(self) -> list[dict[int, int]]:
        """The whole-graph adjacency dicts, materializing the derived
        view on first use (mutation, ``__eq__``, ``ensure_materialized``)."""
        adj = self._adj_store
        if adj is None:
            adj = self._materialize()
        return adj

    def _materialize(self) -> list[dict[int, int]]:
        csr = self._csr_source
        nbrs = csr.neighbors.tolist()
        lbls = csr.edge_labels.tolist()
        bounds = csr.offsets.tolist()
        adj: list[dict[int, int]] = [
            dict(zip(nbrs[bounds[v] : bounds[v + 1]], lbls[bounds[v] : bounds[v + 1]]))
            for v in range(csr.n_vertices)
        ]
        # vertices appended after the snapshot was cut have no edges yet
        adj.extend({} for _ in range(len(self._labels) - csr.n_vertices))
        self._adj_store = adj
        self._csr_source = None
        self._row_cache.clear()
        return adj

    @property
    def is_materialized(self) -> bool:
        """False while adjacency is still a derived view over a CSR
        snapshot (no dicts built)."""
        return self._adj_store is not None

    def ensure_materialized(self) -> "LabeledGraph":
        """Force the eager dict representation (oracle/bench arms)."""
        self._adj
        return self

    @classmethod
    def from_csr(cls, csr) -> "LabeledGraph":
        """Derived view over an immutable CSR snapshot.

        Topology reads, per-vertex ``neighbor_dict`` rows included, are
        served from the snapshot; the whole-graph adjacency dicts
        materialize only on mutation, ``__eq__`` or
        :meth:`ensure_materialized`.
        """
        g = cls.__new__(cls)
        vl = csr.vertex_labels
        g._labels = vl.tolist() if hasattr(vl, "tolist") else list(vl)
        g._adj_store = None
        g._csr_source = csr
        g._n_edges = csr.n_edges
        g._sorted_cache = {}
        g._row_cache = {}
        return g

    def absorb_delta(self, delta, csr=None, strict: bool = False) -> None:
        """Absorb a committed batch's net :class:`EffectiveDelta`.

        When this graph is an unmaterialized derived view and ``csr``
        is the post-batch snapshot, the absorb is a *rebase*: the view
        swaps its source snapshot in O(1) with no per-edge work.
        Materialized graphs — or calls without a snapshot — fall back
        to the per-edge :func:`repro.graph.updates.apply_effective_delta`
        replay; ``strict=True`` validates the delta against the dicts
        before any mutation.
        """
        if self._adj_store is None and csr is not None:
            self._csr_source = csr
            self._n_edges = csr.n_edges
            if len(self._labels) != csr.n_vertices:
                vl = csr.vertex_labels
                self._labels = vl.tolist() if hasattr(vl, "tolist") else list(vl)
            self._sorted_cache.clear()
            self._row_cache.clear()
            return
        from repro.graph.updates import apply_effective_delta

        apply_effective_delta(self, delta, strict=strict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        vertex_labels: Sequence[int],
        edges: Iterable[tuple[int, int] | tuple[int, int, int]],
    ) -> "LabeledGraph":
        """Build a graph from vertex labels and an edge list.

        Each edge is ``(u, v)`` or ``(u, v, edge_label)``.
        """
        g = cls(vertex_labels)
        for e in edges:
            if len(e) == 2:
                u, v = e  # type: ignore[misc]
                g.add_edge(u, v)
            else:
                u, v, lbl = e  # type: ignore[misc]
                g.add_edge(u, v, lbl)
        return g

    def copy(self) -> "LabeledGraph":
        """Deep copy (labels and adjacency).

        Copying a derived view is O(|V|): the immutable source snapshot
        is shared, not rebuilt into dicts.
        """
        g = LabeledGraph.__new__(LabeledGraph)
        g._labels = list(self._labels)
        g._n_edges = self._n_edges
        g._sorted_cache = {}
        g._row_cache = {}
        if self._adj_store is None:
            g._adj_store = None
            g._csr_source = self._csr_source
        else:
            g._adj_store = [dict(nbrs) for nbrs in self._adj_store]
            g._csr_source = None
        return g

    # ------------------------------------------------------------------
    # vertices
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return len(self._labels)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def vertices(self) -> range:
        return range(len(self._labels))

    def add_vertex(self, label: int) -> int:
        """Append a vertex with ``label``; return its id."""
        self._labels.append(label)
        if self._adj_store is not None:
            self._adj_store.append({})
        return len(self._labels) - 1

    def vertex_label(self, v: int) -> int:
        self._check_vertex(v)
        return self._labels[v]

    @property
    def vertex_labels(self) -> list[int]:
        """Labels indexed by vertex id (do not mutate)."""
        return self._labels

    def label_alphabet(self) -> set[int]:
        """Distinct vertex labels present in the graph."""
        return set(self._labels)

    def edge_label_alphabet(self) -> set[int]:
        """Distinct edge labels present in the graph."""
        if self._adj_store is None:
            return set(self._csr_source.edge_labels.tolist())
        out: set[int] = set()
        for u in self.vertices():
            for v, lbl in self._adj_store[u].items():
                if u <= v:
                    out.add(lbl)
        return out

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        if self._adj_store is None:
            csr = self._csr_source
            n = csr.n_vertices
            if u >= n or v >= n:
                return False  # post-snapshot vertices have no edges yet
            return bool(csr.has_edge(u, v))
        return v in self._adj_store[u]

    def edge_label(self, u: int, v: int) -> int:
        self._check_vertex(u)
        self._check_vertex(v)
        if self._adj_store is None:
            csr = self._csr_source
            n = csr.n_vertices
            if u < n and v < n:
                import numpy as np

                nbrs = csr.neighbor_slice(u)
                i = int(np.searchsorted(nbrs, v))
                if i < len(nbrs) and nbrs[i] == v:
                    return int(csr.edge_label_slice(u)[i])
            raise GraphError(f"edge ({u}, {v}) does not exist")
        try:
            return self._adj_store[u][v]
        except KeyError:
            raise GraphError(f"edge ({u}, {v}) does not exist") from None

    def add_edge(self, u: int, v: int, label: int = 0) -> None:
        """Insert the undirected edge ``(u, v)`` with an edge label.

        Raises :class:`GraphError` on self loops or duplicates — the
        update machinery relies on exact semantics here.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self loop ({u}, {u}) not allowed")
        adj = self._adj
        if v in adj[u]:
            raise GraphError(f"edge ({u}, {v}) already exists")
        adj[u][v] = label
        adj[v][u] = label
        self._n_edges += 1
        self._sorted_cache.pop(u, None)
        self._sorted_cache.pop(v, None)

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the undirected edge ``(u, v)``."""
        self._check_vertex(u)
        self._check_vertex(v)
        adj = self._adj
        if v not in adj[u]:
            raise GraphError(f"edge ({u}, {v}) does not exist")
        del adj[u][v]
        del adj[v][u]
        self._n_edges -= 1
        self._sorted_cache.pop(u, None)
        self._sorted_cache.pop(v, None)

    def edges(self) -> Iterator[Edge]:
        """Iterate canonical ``(u, v)`` pairs with ``u < v``."""
        if self._adj_store is None:
            csr = self._csr_source
            for u in range(csr.n_vertices):
                for v in csr.neighbor_slice(u).tolist():
                    if u < v:
                        yield (u, v)
            return
        for u in self.vertices():
            for v in self._adj_store[u]:
                if u < v:
                    yield (u, v)

    def labeled_edges(self) -> Iterator[tuple[int, int, int]]:
        """Iterate ``(u, v, edge_label)`` with ``u < v``."""
        if self._adj_store is None:
            csr = self._csr_source
            for u in range(csr.n_vertices):
                row = csr.neighbor_slice(u).tolist()
                row_lbl = csr.edge_label_slice(u).tolist()
                for v, lbl in zip(row, row_lbl):
                    if u < v:
                        yield (u, v, lbl)
            return
        for u in self.vertices():
            for v, lbl in self._adj_store[u].items():
                if u < v:
                    yield (u, v, lbl)

    # ------------------------------------------------------------------
    # neighborhoods
    # ------------------------------------------------------------------
    def degree(self, v: int) -> int:
        self._check_vertex(v)
        if self._adj_store is None:
            csr = self._csr_source
            return csr.degree(v) if v < csr.n_vertices else 0
        return len(self._adj_store[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted neighbor tuple (cached until the vertex mutates)."""
        self._check_vertex(v)
        cached = self._sorted_cache.get(v)
        if cached is None:
            if self._adj_store is None:
                csr = self._csr_source
                if v < csr.n_vertices:
                    cached = tuple(csr.neighbor_slice(v).tolist())
                else:
                    cached = ()
            else:
                cached = tuple(sorted(self._adj_store[v]))
            self._sorted_cache[v] = cached
        return cached

    def neighbor_dict(self, v: int) -> dict[int, int]:
        """Neighbor -> edge-label mapping (do not mutate).

        A derived view builds just ``v``'s row from its source snapshot
        (cached until the view rebases or materializes) instead of
        materializing every vertex's dict."""
        self._check_vertex(v)
        if self._adj_store is not None:
            return self._adj_store[v]
        row = self._row_cache.get(v)
        if row is None:
            csr = self._csr_source
            if v < csr.n_vertices:
                row = dict(
                    zip(csr.neighbor_slice(v).tolist(), csr.edge_label_slice(v).tolist())
                )
            else:
                row = {}  # vertices appended after the snapshot have no edges yet
            self._row_cache[v] = row
        return row

    def neighbors_with_label(self, v: int, label: int) -> list[int]:
        """Neighbors of ``v`` whose *vertex* label is ``label`` (paper's
        ``N^l(v)``)."""
        labels = self._labels
        return [w for w in self.neighbors(v) if labels[w] == label]

    def adjacency_arrays(self) -> tuple["object", "object", "object"]:
        """Flat directed adjacency in C-speed iteration order.

        Returns ``(degrees, dst, labels)`` where ``degrees[v]`` is the
        out-degree of ``v`` and ``dst``/``labels`` are numpy int64
        arrays of every directed edge's head and edge label, grouped by
        source vertex (dict insertion order within a group). This is
        the bulk export the CSR snapshot builds from. A derived view
        returns its source snapshot's columns directly (already grouped
        and sorted — consumers re-sort or copy, never mutate); the
        eager representation walks the adjacency once with one
        interleaved ``fromiter`` over chained ``dict.items`` views.
        """
        import numpy as np

        if self._adj_store is None:
            csr = self._csr_source
            degrees = np.diff(csr.offsets)
            extra = len(self._labels) - csr.n_vertices
            if extra:
                degrees = np.concatenate(
                    [degrees, np.zeros(extra, dtype=np.int64)]
                )
            return degrees, csr.neighbors, csr.edge_labels
        from itertools import chain

        adj = self._adj_store
        degrees = np.fromiter(map(len, adj), dtype=np.int64, count=len(adj))
        total = int(degrees.sum())
        flat = np.fromiter(
            chain.from_iterable(chain.from_iterable(d.items() for d in adj)),
            dtype=np.int64,
            count=2 * total,
        )
        return degrees, flat[0::2], flat[1::2]

    def nlf(self, v: int) -> Counter:
        """Neighborhood label frequency: Counter(label -> count)."""
        if self._adj_store is None:
            self._check_vertex(v)
            csr = self._csr_source
            if v >= csr.n_vertices:
                return Counter()
            return Counter(csr.vertex_labels[csr.neighbor_slice(v)].tolist())
        labels = self._labels
        return Counter(labels[w] for w in self._adj_store[v])

    def avg_degree(self) -> float:
        if not self._labels:
            return 0.0
        return 2.0 * self._n_edges / len(self._labels)

    def max_degree(self) -> int:
        if not self._labels:
            return 0
        if self._adj_store is None:
            import numpy as np

            csr = self._csr_source
            if csr.n_vertices == 0:
                return 0
            return int(np.diff(csr.offsets).max())
        return max(len(nbrs) for nbrs in self._adj_store)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, keep: Iterable[int]) -> tuple["LabeledGraph", dict[int, int]]:
        """Induced subgraph on ``keep``.

        Returns the new graph plus the mapping ``old id -> new id``.
        """
        keep_sorted = sorted(set(keep))
        remap = {old: new for new, old in enumerate(keep_sorted)}
        sub = LabeledGraph([self._labels[v] for v in keep_sorted])
        adj = self._adj
        for old_u in keep_sorted:
            for old_v, lbl in adj[old_u].items():
                if old_u < old_v and old_v in remap:
                    sub.add_edge(remap[old_u], remap[old_v], lbl)
        return sub, remap

    def to_networkx(self):
        """Convert to a networkx.Graph (oracle cross-checks in tests)."""
        import networkx as nx

        g = nx.Graph()
        for v in self.vertices():
            g.add_node(v, label=self._labels[v])
        for u, v, lbl in self.labeled_edges():
            g.add_edge(u, v, label=lbl)
        return g

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._labels):
            raise GraphError(f"vertex {v} out of range [0, {len(self._labels)})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._labels == other._labels and self._adj == other._adj

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("LabeledGraph is unhashable")

    def __repr__(self) -> str:
        return (
            f"LabeledGraph(|V|={self.n_vertices}, |E|={self.n_edges}, "
            f"|ΣV|={len(self.label_alphabet())})"
        )
