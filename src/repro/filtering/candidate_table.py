"""Bitmap candidate table (paper §IV-B, Figure 4 right).

Rows are data vertices, columns are query vertices; a bit marks
``v ∈ C(u)``. The table is the space-efficient representation chosen
over per-query-vertex arrays because device memory is scarce; here a
numpy boolean matrix plays that role, and per-column sorted candidate
id arrays are materialized lazily for the kernels' Gen-Candidates
initialization.

Both the initial build and every per-batch refresh are one broadcasted
``(codes & q) == q`` over the encoding table's packed uint64 code
matrix — the massively parallel bitwise AND of the paper — instead of
an O(n_data × n_query) python loop. The scalar loop survives behind
``vectorized=False`` as the equality oracle.
"""

from __future__ import annotations

from typing import Collection

from repro import xp

from repro.errors import MatchingError
from repro.filtering.encoding import EncodingSchema, EncodingTable
from repro.graph.labeled_graph import LabeledGraph


class CandidateTable:
    """Candidacy bitmap plus lazily cached per-query-vertex arrays."""

    def __init__(
        self,
        query: LabeledGraph,
        graph: LabeledGraph,
        encodings: EncodingTable | None = None,
        bits_per_label: int = 2,
        *,
        vectorized: bool = True,
    ) -> None:
        self.query = query
        self.vectorized = vectorized
        if encodings is None:
            schema = EncodingSchema.for_query(query, bits_per_label)
            encodings = EncodingTable(schema, graph, vectorized=vectorized)
        self.encodings = encodings
        self.query_codes: list[int] = [
            encodings.schema.encode(query, u) for u in query.vertices()
        ]
        #: packed (n_query, n_words) uint64 query-code matrix
        self._query_packed = encodings.schema.pack_codes(self.query_codes)
        n_data = len(encodings)
        if vectorized:
            self.bitmap = self._bitmap_rows(xp.arange(n_data, dtype=xp.int64))
        else:
            self.bitmap = self._bitmap_rows_reference(range(n_data))
        self._columns: dict[int, xp.ndarray] = {}

    # ------------------------------------------------------------------
    def _bitmap_rows(self, rows: xp.ndarray) -> xp.ndarray:
        """Candidacy of ``rows`` against every query vertex: one
        broadcasted ``(rows, 1) & (1, nq)`` AND-compare per packed word,
        AND-ed across the (few) words — no ``(rows, nq, words)``
        temporary. Codes always span at least one word."""
        codes = self.encodings.packed[rows]
        q = self._query_packed
        out = (codes[:, None, 0] & q[None, :, 0]) == q[None, :, 0]
        for w in range(1, q.shape[1]):
            out &= (codes[:, None, w] & q[None, :, w]) == q[None, :, w]
        return out

    def _bitmap_rows_reference(self, rows) -> xp.ndarray:
        """Original per-cell scalar loop (equality oracle)."""
        out = xp.zeros((len(rows), self.query.n_vertices), dtype=bool)
        for i, v in enumerate(rows):
            code_v = self.encodings[int(v)]
            for u in range(self.query.n_vertices):
                out[i, u] = EncodingSchema.is_candidate(self.query_codes[u], code_v)
        return out

    # ------------------------------------------------------------------
    def is_candidate(self, u: int, v: int) -> bool:
        """Does data vertex ``v`` pass query vertex ``u``'s filter?"""
        if not 0 <= u < self.query.n_vertices:
            raise MatchingError(f"query vertex {u} out of range")
        if not 0 <= v < self.bitmap.shape[0]:
            return False  # vertices appended after table build: no claim
        return bool(self.bitmap[v, u])

    def candidates_of(self, u: int) -> xp.ndarray:
        """Sorted int64 data-vertex ids in ``C(u)`` (cached per column;
        a view — do not mutate)."""
        col = self._columns.get(u)
        if col is None:
            col = xp.nonzero(self.bitmap[:, u])[0].astype(xp.int64)
            self._columns[u] = col
        return col

    def candidate_count(self, u: int) -> int:
        return len(self.candidates_of(u))

    # ------------------------------------------------------------------
    def refresh_rows(self, changed: Collection[int]) -> None:
        """Recompute the rows of vertices whose encoding changed
        (``changed`` holds each vertex once).

        Grows the bitmap with a single allocation when updates appended
        new vertices, rebuilds only the changed rows with one
        broadcasted AND-compare, and invalidates only the cached
        columns whose bits actually flipped (a row refresh that leaves
        a column identical keeps its sorted candidate array).
        """
        if not changed:
            return
        n_data = len(self.encodings)
        if n_data > self.bitmap.shape[0]:
            grown = xp.zeros((n_data, self.query.n_vertices), dtype=bool)
            grown[: self.bitmap.shape[0]] = self.bitmap
            self.bitmap = grown
        vs = xp.fromiter(changed, dtype=xp.int64, count=len(changed))
        vs.sort()
        old_rows = self.bitmap[vs]  # fancy index: a copy
        if self.vectorized:
            new_rows = self._bitmap_rows(vs)
        else:
            new_rows = self._bitmap_rows_reference(xp.to_numpy(vs).tolist())
        self.bitmap[vs] = new_rows
        flipped = xp.nonzero((old_rows != new_rows).any(axis=0))[0]
        for u in xp.to_numpy(flipped).tolist():
            self._columns.pop(u, None)

    def stats(self) -> dict[str, float]:
        """Selectivity diagnostics (used by matching-order generation)."""
        counts = self.bitmap.sum(axis=0)
        return {
            "min": xp.to_scalar(counts.min()) * 1.0 if counts.size else 0.0,
            "max": xp.to_scalar(counts.max()) * 1.0 if counts.size else 0.0,
            "mean": xp.to_scalar(counts.mean()) * 1.0 if counts.size else 0.0,
        }
