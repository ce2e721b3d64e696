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
from repro.filtering import CandidateTable, EncodingSchema, EncodingTable
from repro.graph import CSRGraph, LabeledGraph
from repro.graph.generators import attach_labels, power_law_graph
from repro.graph.updates import apply_batch, effective_delta, make_batch
from repro.matching.bfs_kernel import BFSEngine
from repro.matching.static_match import oracle_delta
from repro.matching.wbm import WBMConfig
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
            ref = CSRGraph.from_graph(g)
            np.testing.assert_array_equal(csr.offsets, ref.offsets)
            np.testing.assert_array_equal(csr.neighbors, ref.neighbors)
            np.testing.assert_array_equal(csr.edge_labels, ref.edge_labels)
            np.testing.assert_array_equal(csr.vertex_labels, ref.vertex_labels)


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
