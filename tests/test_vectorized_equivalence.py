"""Scalar/vectorized equivalence for the whole filtering + matching
hot path.

Every array kernel this repo runs — bit-packed ``encode_all``, the
broadcasted candidate-bitmap build/refresh, the incremental CSR
splice, and CSR-backed Gen-Candidates — keeps its original scalar
formulation alive as a correctness oracle (``vectorized=False`` /
reference methods). These tests drive both paths through randomized
labeled and unlabeled graphs, batch deletes, and vertices appended
mid-stream, and require identical results *and* identical modeled
cycle accounting.
"""

import random

import numpy as np
import pytest

from repro import xp
from repro.errors import UpdateError
from repro.filtering import CandidateTable, EncodingSchema, EncodingTable
from repro.graph import CSRGraph, LabeledGraph
from repro.graph.generators import attach_labels, power_law_graph
from repro.graph.updates import EffectiveDelta, apply_batch, effective_delta, make_batch
from repro.matching.bfs_kernel import BFSEngine
from repro.matching.static_match import oracle_delta
from repro.matching.launch_env import WBMConfig
from repro.pipeline import GammaSystem

PAPER_Q = LabeledGraph.from_edges([0, 1, 1, 2], [(0, 1), (0, 2), (1, 2), (1, 3)])
TRIANGLE_Q = LabeledGraph.from_edges([0, 0, 0], [(0, 1), (1, 2), (0, 2)])  # automorphic


def random_graph(seed: int, n: int = 40, n_labels: int = 3, n_elabels: int = 1):
    base = power_law_graph(n, 3.2, seed=seed)
    if n_labels <= 1:
        return base  # unlabeled: every vertex/edge carries label 0
    return attach_labels(base, n_labels, n_elabels, seed=seed + 1)


def random_batch(g: LabeledGraph, rng: random.Random, k: int = 6, labeled_edges=False):
    """Mixed insert/delete batch against the current graph state."""
    edges = list(g.edges())
    rng.shuffle(edges)
    non = [
        (u, v)
        for u in range(g.n_vertices)
        for v in range(u + 1, g.n_vertices)
        if not g.has_edge(u, v)
    ]
    rng.shuffle(non)
    ops = [
        ("+", u, v, rng.randint(0, 1) if labeled_edges else 0)
        for u, v in non[: k // 2]
    ] + [("-", u, v) for u, v in edges[: k // 2]]
    return make_batch(ops)


# ---------------------------------------------------------------------------
# encoding layer
# ---------------------------------------------------------------------------
class TestEncodeAllEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_labels", [1, 3, 6])
    def test_build_matches_scalar(self, seed, n_labels):
        g = random_graph(seed, n_labels=n_labels)
        schema = EncodingSchema.for_labels(g.label_alphabet() | {97}, 2)
        vec = EncodingTable(schema, g, vectorized=True)
        ref = EncodingTable(schema, g, vectorized=False)
        np.testing.assert_array_equal(vec.packed, ref.packed)
        assert vec.codes == ref.codes

    def test_multiword_codes(self):
        """Alphabets past 21 labels need more than one uint64 word."""
        g = LabeledGraph.from_edges(
            list(range(40)), [(i, (i + 1) % 40, i % 3) for i in range(40)]
        )
        schema = EncodingSchema.for_labels(range(40), 2)
        assert schema.n_words == 2
        vec = EncodingTable(schema, g, vectorized=True)
        ref = EncodingTable(schema, g, vectorized=False)
        np.testing.assert_array_equal(vec.packed, ref.packed)

    @pytest.mark.parametrize("seed", range(5))
    def test_refresh_after_batches(self, seed):
        rng = random.Random(seed)
        g = random_graph(seed)
        schema = EncodingSchema.for_query(PAPER_Q)
        vec = EncodingTable(schema, g, vectorized=True)
        ref = EncodingTable(schema, g, vectorized=False)
        for _ in range(3):
            batch = random_batch(g, rng)
            delta = effective_delta(g, batch)
            apply_batch(g, batch)
            ch_v = vec.apply_delta(g, delta)
            ch_r = ref.apply_delta(g, delta)
            assert ch_v == ch_r  # identical changed-vertex reporting
            np.testing.assert_array_equal(vec.packed, ref.packed)

    def test_vertices_appended_mid_stream(self):
        g = random_graph(3)
        schema = EncodingSchema.for_query(PAPER_Q)
        vec = EncodingTable(schema, g, vectorized=True)
        ref = EncodingTable(schema, g, vectorized=False)
        w1 = g.add_vertex(1)
        w2 = g.add_vertex(2)
        batch = make_batch([("+", 0, w1), ("+", w1, w2)])
        delta = effective_delta(g, batch)
        apply_batch(g, batch)
        assert vec.apply_delta(g, delta) == ref.apply_delta(g, delta)
        np.testing.assert_array_equal(vec.packed, ref.packed)
        assert len(vec) == w2 + 1  # grown to the target size in one shot

    @pytest.mark.parametrize("case", ["narrow_schema", "appended_vertices", "empty"])
    def test_apply_delta_equals_oracle_and_full_encode(self, case):
        """The array re-encode equals the scalar oracle and a full
        ``encode_all`` of the post-batch snapshot."""
        g = random_graph(7, n_labels=5)
        labels = {0, 2} if case == "narrow_schema" else g.label_alphabet()
        assert (case == "narrow_schema") is bool(g.label_alphabet() - labels)
        schema = EncodingSchema.for_labels(labels, 2)
        vec = EncodingTable(schema, g, vectorized=True)
        ref = EncodingTable(schema, g, vectorized=False)
        if case == "appended_vertices":
            w = g.add_vertex(1)
            g.add_vertex(3)  # isolated: stays outside the table
            batch = make_batch([("+", 0, w), ("+", w, 5)])
        else:
            batch = make_batch([] if case == "empty" else random_batch(g, random.Random(7)).ops)
        delta = effective_delta(g, batch)
        apply_batch(g, batch)
        csr = CSRGraph.from_graph(g)
        changed = vec.apply_delta(g, delta, csr=csr)
        assert changed == ref.apply_delta(g, delta)
        assert (changed == set()) is (case == "empty")
        np.testing.assert_array_equal(vec.packed, ref.packed)
        np.testing.assert_array_equal(vec.packed, schema.encode_all(csr)[: len(vec)])
        if case == "appended_vertices":
            assert len(vec) == w + 1


# ---------------------------------------------------------------------------
# candidate bitmap
# ---------------------------------------------------------------------------
class TestBitmapEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_build(self, seed, n_labels):
        g = random_graph(seed, n_labels=n_labels)
        vec = CandidateTable(PAPER_Q, g, vectorized=True)
        ref = CandidateTable(PAPER_Q, g, vectorized=False)
        np.testing.assert_array_equal(vec.bitmap, ref.bitmap)

    @pytest.mark.parametrize("seed", range(5))
    def test_refresh(self, seed):
        rng = random.Random(seed + 100)
        g = random_graph(seed)
        vec = CandidateTable(PAPER_Q, g, vectorized=True)
        ref = CandidateTable(PAPER_Q, g, vectorized=False)
        # the store's form: re-encoding reads the spliced CSR snapshot
        spliced = CandidateTable(PAPER_Q, g, vectorized=True)
        csr = CSRGraph.from_graph(g)
        for _ in range(3):
            batch = random_batch(g, rng)
            delta = effective_delta(g, batch)
            apply_batch(g, batch)
            csr = csr.apply_delta(delta, g)
            changed_v = vec.encodings.apply_delta(g, delta)
            changed_r = ref.encodings.apply_delta(g, delta)
            changed_s = spliced.encodings.apply_delta(g, delta, csr=csr)
            assert changed_v == changed_r == changed_s
            vec.refresh_rows(changed_v)
            ref.refresh_rows(changed_r)
            spliced.refresh_rows(changed_s)
            np.testing.assert_array_equal(vec.bitmap, ref.bitmap)
            np.testing.assert_array_equal(spliced.bitmap, ref.bitmap)
            fresh = CandidateTable(PAPER_Q, g)
            np.testing.assert_array_equal(vec.bitmap, fresh.bitmap)

    def test_column_cache_refreshed_selectively(self):
        """Cached candidate arrays stay correct when only some columns
        flip, and survive refreshes that flip none of their bits."""
        g = random_graph(7)
        table = CandidateTable(PAPER_Q, g, vectorized=True)
        before = {
            u: list(xp.to_numpy(table.candidates_of(u))) for u in PAPER_Q.vertices()
        }
        rng = random.Random(7)
        batch = random_batch(g, rng)
        delta = effective_delta(g, batch)
        apply_batch(g, batch)
        table.refresh_rows(table.encodings.apply_delta(g, delta))
        fresh = CandidateTable(PAPER_Q, g)
        for u in PAPER_Q.vertices():
            assert list(xp.to_numpy(table.candidates_of(u))) == list(
                xp.to_numpy(fresh.candidates_of(u))
            )
        assert before is not None  # cache was populated before refresh

    def test_growth_single_allocation(self):
        g = random_graph(5)
        table = CandidateTable(PAPER_Q, g, vectorized=True)
        w = g.add_vertex(0)
        batch = make_batch([("+", 1, w)])
        delta = effective_delta(g, batch)
        apply_batch(g, batch)
        table.refresh_rows(table.encodings.apply_delta(g, delta))
        assert table.bitmap.shape[0] == w + 1
        fresh = CandidateTable(PAPER_Q, g)
        np.testing.assert_array_equal(table.bitmap, fresh.bitmap)


# ---------------------------------------------------------------------------
# incremental CSR maintenance
# ---------------------------------------------------------------------------
def assert_splice_matches_rebuild(csr: CSRGraph, g: LabeledGraph) -> None:
    """``csr`` (a spliced snapshot) equals ``CSRGraph.from_graph(g)``
    array for array, and so does its carried ``edge_index`` — against
    both the rebuild's seeded index and one built cold from offsets."""
    ref = CSRGraph.from_graph(g)
    for name in ("offsets", "neighbors", "edge_labels", "vertex_labels"):
        np.testing.assert_array_equal(getattr(csr, name), getattr(ref, name))
    keys, labels = csr.edge_index()
    cold = CSRGraph(ref.offsets, ref.neighbors, ref.edge_labels, ref.vertex_labels)
    for want_keys, want_labels in (ref.edge_index(), cold.edge_index()):
        np.testing.assert_array_equal(keys, want_keys)
        np.testing.assert_array_equal(labels, want_labels)


class TestIncrementalCSR:
    @pytest.mark.parametrize("seed", range(6))
    def test_apply_delta_equals_rebuild(self, seed):
        rng = random.Random(seed)
        g = random_graph(seed, n_labels=4, n_elabels=3)
        csr = CSRGraph.from_graph(g)
        for step in range(4):
            batch = random_batch(g, rng, labeled_edges=True)
            if step == 2:  # vertex appended mid-stream
                w = g.add_vertex(rng.randint(0, 3))
                batch.ops.extend(make_batch([("+", 0, w, 1)]).ops)
            delta = effective_delta(g, batch)
            apply_batch(g, batch)
            csr = csr.apply_delta(delta, g)
            assert_splice_matches_rebuild(csr, g)

    def test_vertex_append_restrides_index(self):
        """Appending vertices changes the key stride: the carried index
        must be re-keyed with the new vertex count, not reused."""
        g = random_graph(2, n_labels=3)
        csr = CSRGraph.from_graph(g)
        csr.edge_index()  # warm the cache the splice must not reuse
        w = g.add_vertex(1)
        g.add_vertex(2)  # an isolated appended vertex too
        batch = make_batch([("+", 0, w, 1), ("+", w, 3, 0)])
        delta = effective_delta(g, batch)
        apply_batch(g, batch)
        assert_splice_matches_rebuild(csr.apply_delta(delta, g), g)

    @pytest.mark.parametrize("kind", ["delete", "insert", "relabel", "empty"])
    def test_single_kind_deltas(self, kind):
        g = random_graph(4, n_labels=3, n_elabels=3)
        csr = CSRGraph.from_graph(g)
        (a, b), (c, d) = list(g.edges())[:2]
        new = next(
            (u, v)
            for u in range(g.n_vertices)
            for v in range(u + 1, g.n_vertices)
            if not g.has_edge(u, v)
        )
        ops = {
            "delete": [("-", a, b), ("-", c, d)],
            "insert": [("+", *new, 2)],
            "relabel": [("-", a, b), ("+", a, b, g.edge_label(a, b) + 1)],
            "empty": [("+", *new, 1), ("-", *new)],
        }[kind]
        batch = make_batch(ops)
        delta = effective_delta(g, batch)
        if kind == "relabel":
            assert delta.inserted_edges == delta.deleted_edges == ((a, b),)
        assert bool(delta) is (kind != "empty")
        apply_batch(g, batch)
        assert_splice_matches_rebuild(csr.apply_delta(delta, g), g)

    @pytest.mark.parametrize("case", ["delete_missing", "insert_existing", "insert_twice"])
    def test_invalid_delta_raises_and_keeps_source(self, case):
        g = random_graph(5, n_labels=3)
        csr = CSRGraph.from_graph(g)
        u, v = next(iter(g.edges()))
        x, y = 0, next(w for w in range(1, g.n_vertices) if not g.has_edge(0, w))
        delta, message = {
            "delete_missing": (EffectiveDelta((), ((x, y, 0),)), "delete of missing"),
            "insert_existing": (EffectiveDelta(((u, v, 0),), ()), "insert of existing"),
            "insert_twice": (EffectiveDelta(((x, y, 1), (x, y, 1)), ()), "insert of existing"),
        }[case]
        named = (u, v) if case == "insert_existing" else (x, y)
        before = {k: a.copy() for k, a in csr.snapshot_arrays().items()}
        with pytest.raises(UpdateError, match=rf"{message} edge \({named[0]}, {named[1]}\)"):
            csr.apply_delta(delta, g)
        for k, a in csr.snapshot_arrays().items():
            np.testing.assert_array_equal(a, before[k])


# ---------------------------------------------------------------------------
# Gen-Candidates + full engines (matches AND modeled cycles)
# ---------------------------------------------------------------------------
class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("query", [PAPER_Q, TRIANGLE_Q])
    def test_wbm_matches_and_cycles(self, seed, query):
        """Vectorized and scalar engines must emit identical match sets
        and identical modeled cycle totals batch by batch — the
        vectorization is an implementation detail of the host, not a
        change to the modeled GPU."""
        rng = random.Random(seed)
        n_labels = 1 if query is TRIANGLE_Q else 3
        g = random_graph(seed, n=35, n_labels=n_labels)
        gg = g.copy()
        vec = GammaSystem(query, g, config=WBMConfig(vectorized=True))
        ref = GammaSystem(query, g, config=WBMConfig(vectorized=False))
        for _ in range(3):
            batch = random_batch(gg, rng)
            apply_batch(gg, batch)
            rv = vec.process_batch(batch).result
            rr = ref.process_batch(batch).result
            assert rv.positives == rr.positives
            assert rv.negatives == rr.negatives
            assert rv.total_cycles() == pytest.approx(rr.total_cycles())
            assert rv.kernel_stats.kernel_cycles == pytest.approx(
                rr.kernel_stats.kernel_cycles
            )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_wbm_tracks_oracle(self, seed):
        rng = random.Random(seed + 50)
        g = random_graph(seed, n=30)
        gg = g.copy()
        system = GammaSystem(PAPER_Q, g, config=WBMConfig(vectorized=True))
        for _ in range(2):
            batch = random_batch(gg, rng)
            pos, neg = oracle_delta(PAPER_Q, gg, batch)
            apply_batch(gg, batch)
            result = system.process_batch(batch).result
            assert result.positives == pos
            assert result.negatives == neg

    @pytest.mark.parametrize("seed", [1, 4])
    def test_bfs_engine_both_modes(self, seed):
        rng = random.Random(seed + 80)
        g = random_graph(seed, n=28)
        gg = g.copy()
        vec = BFSEngine(PAPER_Q, g, vectorized=True)
        ref = BFSEngine(PAPER_Q, g, vectorized=False)
        for _ in range(2):
            batch = random_batch(gg, rng)
            pos, neg = oracle_delta(PAPER_Q, gg, batch)
            apply_batch(gg, batch)
            rv = vec.process_batch(batch)
            rr = ref.process_batch(batch)
            assert rv.positives == rr.positives == pos
            assert rv.negatives == rr.negatives == neg

    def test_vertices_appended_mid_stream_engine(self):
        """Updates that grow the vertex set flow through the vectorized
        path (bitmap shorter than the data graph, CSR splice on a grown
        graph) identically to the scalar one."""
        g = random_graph(9, n=25)
        gg = g.copy()
        vec = GammaSystem(PAPER_Q, g, config=WBMConfig(vectorized=True))
        ref = GammaSystem(PAPER_Q, g, config=WBMConfig(vectorized=False))
        for system in (vec, ref):
            system.service.store.graph.add_vertex(1)
        w = gg.add_vertex(1)
        batch = make_batch([("+", 0, w), ("+", 1, w), ("+", 2, w)])
        pos, neg = oracle_delta(PAPER_Q, gg, batch)
        rv = vec.process_batch(batch).result
        rr = ref.process_batch(batch).result
        assert rv.positives == rr.positives == pos
        assert rv.negatives == rr.negatives == neg
        assert rv.total_cycles() == pytest.approx(rr.total_cycles())
