"""GSI-style neighborhood-label-frequency binary encoding (paper §IV-B).

Every vertex gets a K-bit code: the first N bits one-hot encode the
vertex label over the *query graph's* label alphabet (labels absent
from the query are not encoded — the paper's refinement of GSI), and
the remaining N groups of M bits encode, in saturating unary, how many
neighbors carry each query label (count ``c`` sets the low
``min(c, M)`` bits of its group).

Unary saturation is what makes candidacy a single bitwise AND::

    v ∈ C(u)  ⇔  ENC(u) & ENC(v) == ENC(u)

because group-wise superset testing is exactly ``count_v ≥ count_u``
clamped at M — matching Figure 4, where v0's code survives an edge
insertion unchanged ("a trade-off between space and filtering
capabilities") while v2's counter ticks from "00" to "01".

Codes are stored bit-packed as a ``(n_data, n_words)`` ``uint64``
matrix, so encoding the whole graph is one bincount over the CSR
neighbor array and candidacy for a whole column is one broadcasted
``(codes & q) == q`` — the "massively parallel bitwise AND" the paper
runs on device. The per-vertex scalar path (:meth:`EncodingSchema.encode`)
is kept as the equality oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import xp

from repro.errors import MatchingError
from repro.graph.csr import CSRGraph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.updates import EffectiveDelta

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1


def pack_bit_matrix(bits: xp.ndarray, n_words: int) -> xp.ndarray:
    """Pack a ``(rows, K)`` boolean bit matrix into ``(rows, n_words)``
    ``uint64`` words; bit ``b`` of a code lands in word ``b // 64`` at
    position ``b % 64`` (little-endian view over ``packbits`` bytes, so
    no word-sized temporary is materialized)."""
    rows = bits.shape[0]
    packed8 = xp.packbits(bits, axis=1, bitorder="little")
    out8 = xp.zeros((rows, n_words * 8), dtype=xp.uint8)
    out8[:, : packed8.shape[1]] = packed8
    return out8.view(xp.dtype("<u8"))


@dataclass(frozen=True)
class EncodingSchema:
    """Bit layout of the encoding for one query's label alphabet."""

    labels: tuple[int, ...]  # sorted query vertex labels
    bits_per_label: int  # M

    @classmethod
    def for_query(cls, query: LabeledGraph, bits_per_label: int = 2) -> "EncodingSchema":
        return cls.for_labels(query.label_alphabet(), bits_per_label)

    @classmethod
    def for_labels(cls, labels, bits_per_label: int = 2) -> "EncodingSchema":
        """Schema over an explicit label alphabet.

        For any query whose labels are contained in ``labels``, a
        superset schema filters *identically* to the query-restricted
        one (extra label groups carry zero counts in every query code,
        so they never constrain the AND test) — which is what lets one
        shared :class:`EncodingTable` serve many concurrently
        registered queries. A query label *outside* the alphabet is
        simply unencoded: results stay exact (the kernels re-check
        labels), but that vertex loses encoding selectivity — widen the
        store's ``extra_labels`` if such queries are expected.
        """
        if bits_per_label < 1:
            raise MatchingError(f"bits_per_label must be >= 1, got {bits_per_label}")
        return cls(tuple(sorted(set(labels))), bits_per_label)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def total_bits(self) -> int:
        """K = N label bits + N groups of M counter bits."""
        return self.n_labels * (1 + self.bits_per_label)

    @property
    def n_words(self) -> int:
        """64-bit words per packed code (at least one)."""
        return max(1, -(-self.total_bits // _WORD_BITS))

    def label_index(self, label: int) -> int | None:
        """Position of ``label`` in the alphabet, or None if unencoded."""
        lo, hi = 0, len(self.labels)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.labels[mid] < label:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(self.labels) and self.labels[lo] == label:
            return lo
        return None

    def encode(self, graph: LabeledGraph, v: int) -> int:
        """K-bit code of vertex ``v`` in ``graph`` (scalar oracle)."""
        m = self.bits_per_label
        n = self.n_labels
        code = 0
        idx = self.label_index(graph.vertex_label(v))
        if idx is not None:
            code |= 1 << idx
        counts = [0] * n
        labels = graph.vertex_labels
        for w in graph.neighbor_dict(v):
            j = self.label_index(labels[w])
            if j is not None:
                counts[j] += 1
        for j, c in enumerate(counts):
            sat = min(c, m)
            group = (1 << sat) - 1  # saturating unary
            code |= group << (n + j * m)
        return code

    # ------------------------------------------------------------------
    # packed representation
    # ------------------------------------------------------------------
    def pack_code(self, code: int) -> xp.ndarray:
        """Scalar python-int code -> ``(n_words,)`` uint64 row."""
        return xp.array(
            [(code >> (_WORD_BITS * i)) & _WORD_MASK for i in range(self.n_words)],
            dtype=xp.uint64,
        )

    def pack_codes(self, codes: Sequence[int]) -> xp.ndarray:
        """Scalar codes -> ``(len(codes), n_words)`` uint64 matrix."""
        out = xp.zeros((len(codes), self.n_words), dtype=xp.uint64)
        for i, code in enumerate(codes):
            out[i] = self.pack_code(code)
        return out

    @staticmethod
    def unpack_code(row: xp.ndarray) -> int:
        """``(n_words,)`` uint64 row -> scalar python-int code."""
        code = 0
        for i, word in enumerate(xp.to_numpy(row).tolist()):
            code |= word << (_WORD_BITS * i)
        return code

    def encode_all(self, csr: CSRGraph, vertices: xp.ndarray | None = None) -> xp.ndarray:
        """Vectorized encode of ``vertices`` (default: every vertex)
        against a CSR snapshot.

        Each vertex label maps to its alphabet index once per call (−1
        when the label is outside the alphabet); neighbor-label groups
        are then one gather ``vidx[nbr]``, one ``bincount`` per
        (vertex, label-group) cell, one bit-pack — no per-vertex python
        loop. Returns the packed ``(len(vertices), n_words)`` uint64
        code matrix.
        """
        n_labels, m = self.n_labels, self.bits_per_label
        if vertices is None:
            vs = xp.arange(csr.n_vertices, dtype=xp.int64)
            nbr = csr.neighbors
            row_of_entry = xp.repeat(vs, xp.diff(csr.offsets))
        else:
            vs = xp.asarray(vertices, dtype=xp.int64)
            deg = csr.offsets[vs + 1] - csr.offsets[vs]
            total = int(deg.sum())
            row_of_entry = xp.repeat(xp.arange(len(vs), dtype=xp.int64), deg)
            # flat CSR indices of every touched vertex's neighbor slice
            starts = xp.repeat(csr.offsets[vs], deg)
            within = xp.arange(total, dtype=xp.int64) - xp.repeat(
                xp.cumsum(deg) - deg, deg
            )
            nbr = csr.neighbors[starts + within]
        rows = len(vs)
        bits = xp.zeros((rows, max(self.total_bits, 1)), dtype=bool)
        if n_labels:
            alphabet = xp.asarray(self.labels, dtype=xp.int64)
            vlabels = csr.vertex_labels
            li = xp.minimum(xp.searchsorted(alphabet, vlabels), n_labels - 1)
            vidx = xp.where(alphabet[li] == vlabels, li, -1)
            # one-hot vertex-label bit
            own = vidx[vs]
            enc = own >= 0
            bits[xp.nonzero(enc)[0], own[enc]] = True
            # saturating unary neighbor-label counters
            nl = vidx[nbr]
            valid = nl >= 0
            counts = xp.bincount(
                row_of_entry[valid] * n_labels + nl[valid],
                minlength=rows * n_labels,
            ).reshape(rows, n_labels)
            sat = xp.minimum(counts, m)
            unary = xp.arange(m, dtype=xp.int64)[None, None, :] < sat[:, :, None]
            bits[:, n_labels:] = unary.reshape(rows, n_labels * m)
        return pack_bit_matrix(bits, self.n_words)

    @staticmethod
    def is_candidate(enc_query: int, enc_data: int) -> bool:
        """Bitwise-AND candidacy test (the GPU's massively parallel op)."""
        return enc_query & enc_data == enc_query


class EncodingTable:
    """Packed codes for every data vertex, refreshed per batch.

    ``vectorized`` selects the bulk ``encode_all`` path (default) or
    the scalar per-vertex oracle — both produce the identical packed
    matrix, which the equivalence tests assert.
    """

    def __init__(
        self,
        schema: EncodingSchema,
        graph: LabeledGraph,
        csr: CSRGraph | None = None,
        *,
        vectorized: bool = True,
    ) -> None:
        self.schema = schema
        self.vectorized = vectorized
        if vectorized:
            if csr is None:
                csr = CSRGraph.from_graph(graph)
            self.packed = schema.encode_all(csr)
        else:
            self.packed = schema.pack_codes(
                [schema.encode(graph, v) for v in graph.vertices()]
            )
        #: bumped once per applied batch delta; the shared store's
        #: consistency audit requires it to match the store version
        self.version = 0

    @property
    def codes(self) -> list[int]:
        """Scalar python-int view of the packed code matrix."""
        return [EncodingSchema.unpack_code(row) for row in xp.to_numpy(self.packed)]

    def __getitem__(self, v: int) -> int:
        return EncodingSchema.unpack_code(self.packed[v])

    def __len__(self) -> int:
        return len(self.packed)

    def apply_delta(
        self,
        graph_after: LabeledGraph,
        delta: EffectiveDelta,
        csr: CSRGraph | None = None,
    ) -> set[int]:
        """Incrementally re-encode after a batch (graph already updated).

        Only endpoints of net-changed edges can change code; they are
        one ``unique`` over the delta's four endpoint columns. Returns
        the vertices whose code did change. ``csr`` is the post-update
        CSR snapshot when the caller (the shared store) already has one.
        """
        ins, dele = delta.inserted_array, delta.deleted_array
        vs = xp.unique(xp.concatenate([ins[:, 0], ins[:, 1], dele[:, 0], dele[:, 1]]))
        self.version += 1
        if not len(vs):
            return set()
        # re-encode all of them in one vectorized shot; the code store
        # grows to the target size with a single allocation (vertices
        # appended by updates arrive zero-coded until an edge touches
        # them)
        target = int(vs[-1]) + 1
        if target > len(self.packed):
            grown = xp.zeros((target, self.schema.n_words), dtype=xp.uint64)
            grown[: len(self.packed)] = self.packed
            self.packed = grown
        if self.vectorized:
            if csr is None:
                csr = CSRGraph.from_graph(graph_after)
            new_rows = self.schema.encode_all(csr, vs)
        else:
            new_rows = self.schema.pack_codes(
                [self.schema.encode(graph_after, v) for v in xp.to_numpy(vs).tolist()]
            )
        diff = (new_rows != self.packed[vs]).any(axis=1)
        self.packed[vs] = new_rows
        return set(xp.to_numpy(vs[diff]).tolist())
