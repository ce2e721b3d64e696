"""Bitmap candidate table (paper §IV-B, Figure 4 right).

Rows are data vertices, columns are query vertices; a bit marks
``v ∈ C(u)``. The table is the space-efficient representation chosen
over per-query-vertex arrays because device memory is scarce; here a
numpy boolean matrix plays that role, and per-column sorted candidate
id arrays are materialized lazily for the kernels' Gen-Candidates
initialization.

Every query a host serves shares one :class:`CandidateStack`: a single
``(n_data, Σ|V(Q)| + n_unions)`` bitmap whose leading columns are the
stacked query vertices of every hosted query (one contiguous range
each), followed by the orbit-union columns of the coalesced groups
that relax their core filter (``k > 0``). A :class:`CandidateTable`
is a column-range view of its stack. The build and every per-batch
refresh are one broadcasted ``(codes & q) == q`` over the encoding
table's packed uint64 codes against the stacked query codes — the
massively parallel bitwise AND of the paper — so a batch refreshes the
changed rows of every hosted query with one compare per packed word,
then ORs the union columns out of the fresh rows. A table built on its
own gets a private one-query stack, so there is one refresh path. The
scalar per-cell loop survives behind ``vectorized=False`` as the
equality oracle.
"""

from __future__ import annotations

from typing import Collection, Sequence

from repro import xp

from repro.errors import MatchingError
from repro.filtering.encoding import EncodingSchema, EncodingTable
from repro.graph.labeled_graph import LabeledGraph

#: cells (rows x query columns) per AND-compare step: ~1 MB of uint64
#: temporaries
_COMPARE_CELLS = 1 << 17


class _Columns:
    """Where one view's columns sit in its stack, and the view's cached
    sorted columns. The stack keeps these records, not the views, so
    views and their stack form no reference cycle: a dropped host frees
    its bitmap at once instead of at the next cyclic collection."""

    __slots__ = ("codes", "packed", "lo", "ulo", "unions", "cache")

    def __init__(self, codes: list[int], packed: xp.ndarray) -> None:
        self.codes = codes  # scalar query codes, one per query vertex
        self.packed = packed  # (len(codes), n_words) uint64
        self.lo = self.ulo = 0  # set by the stack's layout
        #: orbit (query vertex tuple) -> index among the view's unions
        self.unions: dict[tuple[int, ...], int] = {}
        #: query vertex -> sorted candidate ids
        self.cache: dict[int, xp.ndarray] = {}


class CandidateStack:
    """One candidacy bitmap over every query vertex a host serves.

    Column layout: the views' exact columns in registration order
    (view ``t`` owns ``[t.lo, t.lo + t.n_query)``), then every view's
    orbit-union columns (view ``t`` owns ``[t.ulo, t.ulo +
    len(t.unions))``). Adding or removing a view, or binding unions,
    bumps :attr:`epoch`, which invalidates column indices callers
    cached.
    """

    def __init__(self, encodings: EncodingTable, *, vectorized: bool = True) -> None:
        self.encodings = encodings
        self.vectorized = vectorized
        self.bitmap = xp.zeros((len(encodings), 0), dtype=bool)
        self._ranges: list[_Columns] = []  # in column order
        #: encoding version of the last commit :meth:`observe` refreshed
        self.version = encodings.version
        self.epoch = 0
        self._layout()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def _attach(self, cols: _Columns) -> None:
        self._grow_rows()
        rows = self._exact_rows(cols, xp.arange(self.bitmap.shape[0], dtype=xp.int64))
        e = self._n_exact
        self.bitmap = xp.concatenate([self.bitmap[:, :e], rows, self.bitmap[:, e:]], axis=1)
        self._ranges.append(cols)
        self._layout()

    def remove(self, view: "CandidateTable") -> None:
        """Drop a view's exact and union columns."""
        cols = view.cols
        keep = xp.ones(self.bitmap.shape[1], dtype=bool)
        keep[cols.lo : cols.lo + len(cols.codes)] = False
        keep[cols.ulo : cols.ulo + len(cols.unions)] = False
        self.bitmap = self.bitmap[:, keep]
        self._ranges.remove(cols)
        self._layout()

    def bind_unions(self, view: "CandidateTable", orbits: Sequence[tuple[int, ...]]) -> None:
        """Give ``view`` one union column per distinct orbit (query
        vertex tuples, at least two each) it does not hold yet."""
        cols = view.cols
        new = [o for o in dict.fromkeys(orbits) if o not in cols.unions]
        if not new:
            return
        rows = self.bitmap[:, [cols.lo + o[0] for o in new]]
        for j, orbit in enumerate(new):
            for w in orbit[1:]:
                rows[:, j] |= self.bitmap[:, cols.lo + w]
        at = cols.ulo + len(cols.unions)
        self.bitmap = xp.concatenate([self.bitmap[:, :at], rows, self.bitmap[:, at:]], axis=1)
        for orbit in new:
            cols.unions[orbit] = len(cols.unions)
        self._layout()

    def rebuild(self, view: "CandidateTable") -> None:
        """Recompute every column of ``view`` from the current codes
        (a quarantined query's recovery; other views are untouched)."""
        cols = view.cols
        self._grow_rows()
        rows = xp.arange(self.bitmap.shape[0], dtype=xp.int64)
        self.bitmap[:, cols.lo : cols.lo + len(cols.codes)] = self._exact_rows(cols, rows)
        for orbit, j in cols.unions.items():
            col = self.bitmap[:, cols.lo + orbit[0]].copy()
            for w in orbit[1:]:
                col |= self.bitmap[:, cols.lo + w]
            self.bitmap[:, cols.ulo + j] = col
        cols.cache.clear()

    def _layout(self) -> None:
        """Recompute offsets, the stacked query codes and the union
        reduction indices after a membership change."""
        lo = 0
        for cols in self._ranges:
            cols.lo = lo
            lo += len(cols.codes)
        self._n_exact = lo
        for cols in self._ranges:
            cols.ulo = lo
            lo += len(cols.unions)
        n_words = self.encodings.schema.n_words
        self._packed = (
            xp.concatenate([c.packed for c in self._ranges])
            if self._ranges
            else xp.zeros((0, n_words), dtype=xp.uint64)
        )
        members: list[int] = []
        starts: list[int] = []
        for cols in self._ranges:
            for orbit in cols.unions:  # insertion order = column order
                starts.append(len(members))
                members.extend(cols.lo + w for w in orbit)
        self._u_members = xp.asarray(members, dtype=xp.int64)
        self._u_starts = xp.asarray(starts, dtype=xp.int64)
        #: owning range of each exact column
        self._owner = [c for c in self._ranges for _ in c.codes]
        self.epoch += 1

    def _grow_rows(self) -> None:
        """Zero rows for vertices the encodings gained (updates append
        vertices zero-coded until an edge touches them)."""
        n_data = len(self.encodings)
        if n_data > self.bitmap.shape[0]:
            grown = xp.zeros((n_data, self.bitmap.shape[1]), dtype=bool)
            grown[: self.bitmap.shape[0]] = self.bitmap
            self.bitmap = grown

    # ------------------------------------------------------------------
    # candidacy of rows
    # ------------------------------------------------------------------
    def _compare(self, rows: xp.ndarray, q: xp.ndarray) -> xp.ndarray:
        """Candidacy of ``rows`` against the packed query codes ``q``:
        one broadcasted ``(rows, 1) & (1, cols)`` AND-compare per packed
        word, AND-ed across the (few) words — no ``(rows, cols, words)``
        temporary. Codes always span at least one word. Rows go in
        steps of ``_COMPARE_CELLS`` cells, which bounds the ``uint64``
        AND temporaries whatever the batch and query count."""
        codes = self.encodings.packed[rows]
        out = xp.empty((len(rows), len(q)), dtype=bool)
        step = max(1, _COMPARE_CELLS // max(len(q), 1))
        for lo in range(0, len(rows), step):
            c, o = codes[lo : lo + step], out[lo : lo + step]
            o[...] = (c[:, None, 0] & q[None, :, 0]) == q[None, :, 0]
            for w in range(1, q.shape[1]):
                o &= (c[:, None, w] & q[None, :, w]) == q[None, :, w]
        return out

    def _reference(self, codes: list[int], rows: list[int]) -> xp.ndarray:
        """Original per-cell scalar loop (equality oracle)."""
        out = xp.zeros((len(rows), len(codes)), dtype=bool)
        for i, v in enumerate(rows):
            code_v = self.encodings[int(v)]
            for u, code_u in enumerate(codes):
                out[i, u] = EncodingSchema.is_candidate(code_u, code_v)
        return out

    def _exact_rows(self, cols: _Columns, rows: xp.ndarray) -> xp.ndarray:
        if self.vectorized:
            return self._compare(rows, cols.packed)
        return self._reference(cols.codes, xp.to_numpy(rows).tolist())

    def refresh_rows(self, changed: Collection[int]) -> None:
        """Recompute the rows of vertices whose encoding changed
        (``changed`` holds each vertex once), for every column.

        Grows the bitmap with a single allocation when updates appended
        new vertices, rebuilds the changed rows of all exact columns
        with one broadcasted AND-compare and of all union columns with
        one segmented OR, and invalidates only the cached sorted
        columns whose bits actually flipped.
        """
        if not changed or not self._ranges:
            return
        self._grow_rows()
        vs = xp.fromiter(changed, dtype=xp.int64, count=len(changed))
        vs.sort()
        if self.vectorized:
            exact = self._compare(vs, self._packed)
        else:
            rows = xp.to_numpy(vs).tolist()
            exact = self._reference([c for r in self._ranges for c in r.codes], rows)
        if any(c.cache for c in self._ranges):
            flipped = (self.bitmap[vs, : self._n_exact] != exact).any(axis=0)
            for c in xp.to_numpy(xp.nonzero(flipped)[0]).tolist():
                cols = self._owner[c]
                cols.cache.pop(c - cols.lo, None)
        if len(self._u_starts):
            unions = xp.logical_or.reduceat(exact[:, self._u_members], self._u_starts, axis=1)
            self.bitmap[vs] = xp.concatenate([exact, unions], axis=1)
        else:
            self.bitmap[vs] = exact

    def observe(self, commit) -> None:
        """Refresh the rows a store commit re-encoded, once per commit
        however many hosted runtimes observe it."""
        if commit.version == self.version:
            return
        self.refresh_rows(commit.changed_vertices)
        self.version = commit.version


class CandidateTable:
    """One query's columns of a :class:`CandidateStack`, plus lazily
    cached per-query-vertex candidate arrays.

    Built directly, the table owns a private one-query stack over
    ``encodings`` (an encoding table of ``graph`` under the query's own
    schema when omitted); given a ``stack``, it appends its columns to
    that shared stack instead, built for every row.
    """

    def __init__(
        self,
        query: LabeledGraph,
        graph: LabeledGraph | None = None,
        encodings: EncodingTable | None = None,
        bits_per_label: int = 2,
        *,
        vectorized: bool = True,
        stack: CandidateStack | None = None,
    ) -> None:
        if stack is None:
            if encodings is None:
                schema = EncodingSchema.for_query(query, bits_per_label)
                encodings = EncodingTable(schema, graph, vectorized=vectorized)
            stack = CandidateStack(encodings, vectorized=vectorized)
        self.query = query
        self.n_query = query.n_vertices
        self.stack = stack
        self.vectorized = stack.vectorized
        schema = stack.encodings.schema
        codes = [schema.encode(query, u) for u in query.vertices()]
        #: this view's entry in the stack's layout
        self.cols = _Columns(codes, schema.pack_codes(codes))
        stack._attach(self.cols)

    @property
    def encodings(self) -> EncodingTable:
        return self.stack.encodings

    @property
    def lo(self) -> int:
        """Stack column of query vertex 0."""
        return self.cols.lo

    @property
    def ulo(self) -> int:
        """Stack column of this view's first union column."""
        return self.cols.ulo

    @property
    def unions(self) -> dict[tuple[int, ...], int]:
        """Orbit -> index of its union column among this view's."""
        return self.cols.unions

    @property
    def bitmap(self) -> xp.ndarray:
        """``(n_data, n_query)`` view of this query's stacked columns."""
        return self.stack.bitmap[:, self.cols.lo : self.cols.lo + self.n_query]

    # ------------------------------------------------------------------
    def column_index(self, qv: int, orbit: tuple[int, ...] = ()) -> int:
        """Stack column of ``qv``'s filter: ``qv``'s exact column, or
        the union column bound for ``orbit`` when it has two or more
        vertices."""
        if len(orbit) < 2:
            return self.cols.lo + qv
        j = self.cols.unions.get(orbit)
        if j is None:
            raise MatchingError(f"no union column bound for orbit {orbit}")
        return self.cols.ulo + j

    def is_candidate(self, u: int, v: int) -> bool:
        """Does data vertex ``v`` pass query vertex ``u``'s filter?"""
        if not 0 <= u < self.n_query:
            raise MatchingError(f"query vertex {u} out of range")
        bitmap = self.stack.bitmap
        if not 0 <= v < bitmap.shape[0]:
            return False  # vertices appended after table build: no claim
        return bool(bitmap[v, self.cols.lo + u])

    def candidates_of(self, u: int) -> xp.ndarray:
        """Sorted int64 data-vertex ids in ``C(u)`` (cached per column;
        a view — do not mutate)."""
        cache = self.cols.cache
        col = cache.get(u)
        if col is None:
            col = xp.nonzero(self.stack.bitmap[:, self.cols.lo + u])[0].astype(xp.int64)
            cache[u] = col
        return col

    def candidate_count(self, u: int) -> int:
        return len(self.candidates_of(u))

    # ------------------------------------------------------------------
    def refresh_rows(self, changed: Collection[int]) -> None:
        """Recompute the changed rows of the table's stack (every view
        on it); see :meth:`CandidateStack.refresh_rows`."""
        self.stack.refresh_rows(changed)

    def stats(self) -> dict[str, float]:
        """Selectivity diagnostics (used by matching-order generation)."""
        counts = self.bitmap.sum(axis=0)
        return {
            "min": xp.to_scalar(counts.min()) * 1.0 if counts.size else 0.0,
            "max": xp.to_scalar(counts.max()) * 1.0 if counts.size else 0.0,
            "mean": xp.to_scalar(counts.mean()) * 1.0 if counts.size else 0.0,
        }
