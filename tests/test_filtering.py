"""Tests for NLF binary encoding and the candidate table (§IV-B)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import xp
from repro.errors import MatchingError
from repro.filtering import CandidateTable, EncodingSchema, EncodingTable
from repro.graph import LabeledGraph
from repro.graph.generators import attach_labels, power_law_graph
from repro.graph.updates import apply_batch, effective_delta, make_batch
from repro.matching import find_matches

PAPER_Q = LabeledGraph.from_edges([0, 1, 1, 2], [(0, 1), (0, 2), (1, 2), (1, 3)])


class TestEncodingSchema:
    def test_layout(self):
        schema = EncodingSchema.for_query(PAPER_Q, bits_per_label=2)
        assert schema.labels == (0, 1, 2)
        assert schema.n_labels == 3
        assert schema.total_bits == 9  # paper's example: K = 9, N = 3, M = 2

    def test_label_index(self):
        schema = EncodingSchema(labels=(2, 5, 9), bits_per_label=2)
        assert schema.label_index(5) == 1
        assert schema.label_index(3) is None

    def test_bad_bits(self):
        with pytest.raises(MatchingError):
            EncodingSchema.for_query(PAPER_Q, bits_per_label=0)

    def test_encode_label_onehot(self):
        schema = EncodingSchema.for_query(PAPER_Q)
        g = LabeledGraph([0, 1, 2])
        assert EncodingSchema.for_query(PAPER_Q).encode(g, 0) & 0b111 == 0b001
        assert schema.encode(g, 1) & 0b111 == 0b010
        assert schema.encode(g, 2) & 0b111 == 0b100

    def test_saturating_counters(self):
        """The paper's v0: three B-neighbors still encode as '11' with
        M=2, so a fourth changes nothing (space/filtering trade-off)."""
        schema = EncodingSchema.for_query(PAPER_Q, bits_per_label=2)
        g = LabeledGraph.from_edges([0, 1, 1, 1], [(0, 1), (0, 2), (0, 3)])
        code3 = schema.encode(g, 0)
        g.add_vertex(1)
        g.add_edge(0, 4)
        assert schema.encode(g, 0) == code3

    def test_counter_increments_below_saturation(self):
        schema = EncodingSchema.for_query(PAPER_Q, bits_per_label=2)
        g = LabeledGraph.from_edges([0, 1], [(0, 1)])
        one = schema.encode(g, 0)
        g.add_vertex(1)
        g.add_edge(0, 2)
        two = schema.encode(g, 0)
        assert one != two

    def test_labels_absent_from_query_ignored(self):
        """The paper's refinement of GSI: only query labels are encoded."""
        schema = EncodingSchema.for_query(PAPER_Q)
        g = LabeledGraph.from_edges([0, 99, 99], [(0, 1), (0, 2)])
        code = schema.encode(g, 0)
        # neighbors labeled 99 contribute to no counter group
        assert code == schema.encode(LabeledGraph([0]), 0)

    def test_is_candidate_semantics(self):
        """ENC(u) & ENC(v) == ENC(u) iff labels equal and counts >=."""
        schema = EncodingSchema.for_query(PAPER_Q)
        q = PAPER_Q
        g = LabeledGraph.from_edges([0, 1, 1, 2], [(0, 1), (0, 2), (1, 2), (1, 3)])
        for u in q.vertices():
            cu = schema.encode(q, u)
            for v in g.vertices():
                expected = g.vertex_label(v) == q.vertex_label(u) and all(
                    sum(1 for w in g.neighbors(v) if g.vertex_label(w) == lbl) >= min(cnt, 2)
                    for lbl, cnt in q.nlf(u).items()
                )
                assert EncodingSchema.is_candidate(cu, schema.encode(g, v)) == expected


class TestEncodingTableIncremental:
    def test_incremental_equals_full(self):
        g = attach_labels(power_law_graph(30, 4.0, seed=2), 3, 1, seed=3)
        schema = EncodingSchema.for_query(PAPER_Q)
        table = EncodingTable(schema, g)
        non_edge = next(
            (u, v)
            for u in range(30)
            for v in range(u + 1, 30)
            if not g.has_edge(u, v)
        )
        batch = make_batch([("+", *non_edge), ("-", *next(iter(g.edges())))])
        delta = effective_delta(g, batch)
        apply_batch(g, batch)
        table.apply_delta(g, delta)
        fresh = EncodingTable(schema, g)
        assert table.codes == fresh.codes

    def test_changed_set_minimal(self):
        """Only vertices whose code actually changed are reported (the
        paper's v0 stays unchanged thanks to saturation)."""
        schema = EncodingSchema.for_query(PAPER_Q, bits_per_label=2)
        # v0 has 3 B-neighbors already; adding a 4th leaves it saturated
        g = LabeledGraph.from_edges([0, 1, 1, 1, 1], [(0, 1), (0, 2), (0, 3)])
        table = EncodingTable(schema, g)
        batch = make_batch([("+", 0, 4)])
        delta = effective_delta(g, batch)
        apply_batch(g, batch)
        changed = table.apply_delta(g, delta)
        assert 0 not in changed  # saturated counter: code unchanged
        assert 4 in changed  # v4 gained an A-neighbor


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000), n=st.integers(8, 30))
def test_incremental_encoding_property(seed, n):
    """Property: incremental re-encode after a random batch equals a
    from-scratch encode of the updated graph."""
    import random

    g = attach_labels(power_law_graph(n, 3.0, seed=seed), 3, 1, seed=seed + 5)
    rng = random.Random(seed)
    edges = list(g.edges())
    non = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    rng.shuffle(edges)
    rng.shuffle(non)
    ops = [("+", u, v) for u, v in non[:3]] + [("-", u, v) for u, v in edges[:3]]
    if not ops:
        return
    batch = make_batch(ops)
    schema = EncodingSchema.for_query(PAPER_Q)
    table = EncodingTable(schema, g)
    delta = effective_delta(g, batch)
    apply_batch(g, batch)
    table.apply_delta(g, delta)
    assert table.codes == EncodingTable(schema, g).codes


class TestCandidateTable:
    def test_soundness(self):
        """Every vertex of every true match passes the filter."""
        g = attach_labels(power_law_graph(25, 3.5, seed=9), 3, 1, seed=10)
        table = CandidateTable(PAPER_Q, g)
        for m in find_matches(PAPER_Q, g):
            for u in PAPER_Q.vertices():
                assert table.is_candidate(u, m[u])

    def test_label_filter(self):
        g = LabeledGraph.from_edges([0, 1, 2], [(0, 1), (1, 2)])
        table = CandidateTable(PAPER_Q, g)
        assert not table.is_candidate(0, 1)  # label B can't match u0 (A)

    def test_candidates_of_sorted(self):
        g = attach_labels(power_law_graph(25, 3.5, seed=11), 3, 1, seed=12)
        table = CandidateTable(PAPER_Q, g)
        for u in PAPER_Q.vertices():
            cands = xp.to_numpy(table.candidates_of(u))
            assert list(cands) == sorted(cands)
            assert table.candidate_count(u) == len(cands)

    def test_refresh_rows(self):
        g = attach_labels(power_law_graph(25, 3.5, seed=13), 3, 1, seed=14)
        table = CandidateTable(PAPER_Q, g)
        batch = make_batch([("+", 0, 24)] if not g.has_edge(0, 24) else [("-", 0, next(iter(g.neighbors(0))))])
        delta = effective_delta(g, batch)
        apply_batch(g, batch)
        changed = table.encodings.apply_delta(g, delta)
        table.refresh_rows(changed)
        fresh = CandidateTable(PAPER_Q, g)
        assert (table.bitmap == fresh.bitmap).all()

    def test_out_of_range_vertex(self):
        g = LabeledGraph([0])
        table = CandidateTable(PAPER_Q, g)
        assert not table.is_candidate(0, 99)
        with pytest.raises(MatchingError):
            table.is_candidate(99, 0)

    def test_stats(self):
        g = attach_labels(power_law_graph(25, 3.5, seed=15), 3, 1, seed=16)
        table = CandidateTable(PAPER_Q, g)
        s = table.stats()
        assert 0 <= s["min"] <= s["mean"] <= s["max"] <= g.n_vertices
