"""Service-layer tests: shared store lifecycle, multi-query fan-out,
runtime (un)registration, and the empty-delta pricing fix."""

import random

import pytest

from repro.errors import MatchingError
from repro.filtering import EncodingTable
from repro.graph import LabeledGraph
from repro.graph.generators import attach_labels, power_law_graph
from repro.graph.updates import UpdateStream, apply_batch, make_batch
from repro.gpu import DeviceParams
from repro.matching import find_matches, oracle_delta
from repro.pipeline import GammaSystem, PipelineModel
from repro.pma.gpma import GPMAGraph
from repro.service import DynamicGraphStore, MatchingService

PARAMS = DeviceParams(num_sms=2, warps_per_block=4)
PAPER_Q = LabeledGraph.from_edges([0, 1, 1, 2], [(0, 1), (0, 2), (1, 2), (1, 3)])
TRI_Q = LabeledGraph.from_edges([0, 1, 1], [(0, 1), (0, 2), (1, 2)])
PATH_Q = LabeledGraph.from_edges([0, 1, 0], [(0, 1), (1, 2)])
QUERIES = [PAPER_Q, TRI_Q, PATH_Q]


def make_stream(seed: int, n: int = 22, n_batches: int = 4):
    g = attach_labels(power_law_graph(n, 3.2, seed=seed), 3, 1, seed=seed + 1)
    rng = random.Random(seed)
    shadow = g.copy()
    batches = []
    for _ in range(n_batches):
        ops = []
        edges = list(shadow.edges())
        non = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not shadow.has_edge(u, v)
        ]
        rng.shuffle(edges)
        rng.shuffle(non)
        ops += [("+", u, v) for u, v in non[:3]]
        ops += [("-", u, v) for u, v in edges[:2]]
        rng.shuffle(ops)
        batch = make_batch(ops)
        apply_batch(shadow, batch)
        batches.append(batch)
    return g, UpdateStream(batches)


class TestDynamicGraphStore:
    def test_commit_applies_once_and_versions(self):
        g, stream = make_stream(1, n_batches=2)
        for vectorized in (True, False):
            store = DynamicGraphStore(g, PARAMS, vectorized=vectorized)
            assert store.version == 0
            for i, batch in enumerate(stream):
                delta = store.prepare(batch)
                commit = store.commit(batch, delta)
                assert commit.version == i + 1 == store.version
                assert store.gpma.update_count == i + 1
                assert store.encodings.version == i + 1
                store.check_consistency()

    def test_store_copies_graph_by_default(self):
        g, stream = make_stream(2, n_batches=1)
        snapshot = g.copy()
        DynamicGraphStore(g, PARAMS).process(stream[0])
        assert g == snapshot

    def test_csr_snapshot_cached_until_commit(self):
        g, stream = make_stream(3, n_batches=1)
        store = DynamicGraphStore(g, PARAMS)
        csr1 = store.csr_snapshot()
        assert store.csr_snapshot() is csr1  # cached between commits
        store.process(stream[0])
        csr2 = store.csr_snapshot()
        assert csr2 is not csr1
        assert csr2.n_edges == store.graph.n_edges

    def test_noop_commit(self):
        g, _ = make_stream(4, n_batches=1)
        store = DynamicGraphStore(g, PARAMS)
        u, v = next(
            (u, v)
            for u in range(g.n_vertices)
            for v in range(u + 1, g.n_vertices)
            if not g.has_edge(u, v)
        )
        commit = store.process(make_batch([("+", u, v), ("-", u, v)]))
        assert commit.is_noop
        assert commit.transfer_words == 0
        assert commit.changed_vertices == frozenset()


class TestSingleQueryEquivalence:
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_service_matches_gamma_and_oracle(self, seed):
        """Single-query MatchingService == pre-refactor GammaSystem
        semantics (byte-identical positives/negatives) on a seeded
        random stream, both anchored to the static oracle."""
        g, stream = make_stream(seed)
        system = GammaSystem(PAPER_Q, g, PARAMS)
        service = MatchingService(g, params=PARAMS)
        service.register_query(PAPER_Q, name="q")
        shadow = g.copy()
        for batch in stream:
            pos, neg = oracle_delta(PAPER_Q, shadow, batch)
            report = system.process_batch(batch)
            sreport = service.process_batch(batch)
            qres = sreport.queries["q"].result
            assert report.result.positives == qres.positives == pos
            assert report.result.negatives == qres.negatives == neg
            apply_batch(shadow, batch)


class TestMultiQuerySharing:
    def test_one_gpma_and_encoding_update_for_eight_queries(self, monkeypatch):
        """With 8 registered queries, each batch triggers exactly one
        GPMA apply_delta and one encoding apply_delta (the acceptance
        criterion; independent systems would do 8 of each)."""
        g, stream = make_stream(8, n_batches=3)
        gpma_calls, enc_calls = [], []
        orig_gpma = GPMAGraph.apply_delta
        orig_enc = EncodingTable.apply_delta
        monkeypatch.setattr(
            GPMAGraph,
            "apply_delta",
            lambda self, delta: (gpma_calls.append(1), orig_gpma(self, delta))[1],
        )
        monkeypatch.setattr(
            EncodingTable,
            "apply_delta",
            lambda self, graph, delta, **kw: (
                enc_calls.append(1),
                orig_enc(self, graph, delta, **kw),
            )[1],
        )
        service = MatchingService(g, params=PARAMS)
        for i in range(8):
            service.register_query(QUERIES[i % len(QUERIES)], name=f"q{i}")
        for n_batch, batch in enumerate(stream, start=1):
            service.process_batch(batch)
            assert len(gpma_calls) == n_batch
            assert len(enc_calls) == n_batch

        # the counterfactual: 8 independent GammaSystems replay each
        # batch 8 times through their private stores
        gpma_calls.clear()
        enc_calls.clear()
        g2, stream2 = make_stream(8, n_batches=1)
        systems = [GammaSystem(QUERIES[i % len(QUERIES)], g2, PARAMS) for i in range(8)]
        for system in systems:
            system.process_batch(stream2[0])
        assert len(gpma_calls) == 8
        assert len(enc_calls) == 8

    def test_all_queries_track_oracle(self):
        g, stream = make_stream(9)
        service = MatchingService(g, params=PARAMS)
        names = {f"q{i}": q for i, q in enumerate(QUERIES)}
        for name, q in names.items():
            service.register_query(q, name=name)
        shadow = g.copy()
        for batch in stream:
            oracles = {n: oracle_delta(q, shadow, batch) for n, q in names.items()}
            report = service.process_batch(batch)
            for n in names:
                pos, neg = oracles[n]
                assert report.queries[n].result.positives == pos
                assert report.queries[n].result.negatives == neg
            apply_batch(shadow, batch)

    def test_per_query_kernel_stages_in_pipeline(self):
        g, stream = make_stream(10, n_batches=3)
        service = MatchingService(g, params=PARAMS)
        service.register_query(PAPER_Q, name="a")
        service.register_query(TRI_Q, name="b")
        reports, pipeline = service.process_stream(stream)
        assert len(reports) == 3
        for r in reports:
            assert [s for s, _ in r.stages] == [
                "preprocess", "transfer", "update", "kernel:a", "kernel:b", "postprocess",
            ]
        assert "kernel:a" in pipeline.per_stage_total
        assert "kernel:b" in pipeline.per_stage_total
        assert pipeline.makespan <= pipeline.serial_total + 1e-12


class TestRegistrationLifecycle:
    def test_bootstrap_answers_against_current_graph(self):
        """A query registered mid-stream starts from the static match
        set of the *current* graph and stays exact afterwards."""
        g, stream = make_stream(11)
        service = MatchingService(g, params=PARAMS)
        service.register_query(PAPER_Q, name="early")
        service.process_batch(stream[0])
        service.process_batch(stream[1])
        # late registration: bootstrap sees the post-batch-1 state
        service.register_query(TRI_Q, name="late")
        assert service.matches("late") == find_matches(TRI_Q, service.graph)
        service.process_batch(stream[2])
        service.process_batch(stream[3])
        assert service.matches("late") == find_matches(TRI_Q, service.graph)
        assert service.matches("early") == find_matches(PAPER_Q, service.graph)

    def test_unregister_frees_only_query_state(self):
        g, stream = make_stream(12)
        service = MatchingService(g, params=PARAMS)
        service.register_query(PAPER_Q, name="keep")
        service.register_query(TRI_Q, name="drop")
        service.process_batch(stream[0])
        version_before = service.store.version
        service.unregister_query("drop")
        assert service.query_names == ["keep"]
        assert service.store.version == version_before  # store untouched
        shadow = service.graph.copy()
        pos, neg = oracle_delta(PAPER_Q, shadow, stream[1])
        report = service.process_batch(stream[1])
        assert set(report.queries) == {"keep"}
        assert report.queries["keep"].result.positives == pos
        assert report.queries["keep"].result.negatives == neg

    def test_auto_names_skip_explicitly_taken_ones(self):
        g, _ = make_stream(17, n_batches=1)
        service = MatchingService(g, params=PARAMS)
        service.register_query(PAPER_Q, name="q0")
        service.register_query(TRI_Q, name="q1")
        auto = service.register_query(PATH_Q)  # must not collide
        assert auto not in ("q0", "q1")
        assert len(service.query_names) == 3

    def test_per_query_results_carry_shared_transfer_cycles(self):
        """The single shared upload shows up in each query's
        kernel_stats (as it did when engines uploaded privately)."""
        g, stream = make_stream(18, n_batches=1)
        service = MatchingService(g, params=PARAMS)
        service.register_query(PAPER_Q, name="q")
        report = service.process_batch(stream[0])
        result = report.queries["q"].result
        assert result.transfer_words > 0
        assert result.kernel_stats.transfer_cycles > 0

    def test_duplicate_and_missing_names_raise(self):
        g, _ = make_stream(13, n_batches=1)
        service = MatchingService(g, params=PARAMS)
        service.register_query(PAPER_Q, name="q")
        with pytest.raises(MatchingError):
            service.register_query(TRI_Q, name="q")
        with pytest.raises(MatchingError):
            service.unregister_query("ghost")
        with pytest.raises(MatchingError):
            service.runtime("ghost")

    def test_runtime_detects_missed_commit(self):
        """A runtime that skips a store commit must fail loudly rather
        than match against stale candidate rows — and the service turns
        that failure into a quarantine instead of raising to the
        caller (the fault-isolation contract)."""
        g, stream = make_stream(14, n_batches=3)
        service = MatchingService(g, params=PARAMS)
        service.register_query(PAPER_Q, name="q")
        runtime = service.runtime("q")
        # commit behind the service's back: the runtime is now stale
        service.store.process(stream[0])
        with pytest.raises(MatchingError):
            runtime.launch([(0, 1, 0)])
        report = service.process_batch(stream[1])
        assert report.health["q"] == "quarantined"
        with pytest.raises(MatchingError):
            service.matches("q")
        # cooldown elapses on the next batch: the runtime re-bootstraps
        # from the current graph and recovers
        report = service.process_batch(stream[2])
        assert report.health["q"] == "recovered"
        assert service.query_health("q") == "ok"


class TestEmptyDeltaPricing:
    def test_noop_batch_prices_all_stages_zero(self):
        """An insert+delete of the same edge nets to nothing after
        effective_delta; the old report charged preprocess/postprocess
        floors anyway — it must now cost zero model seconds."""
        g, _ = make_stream(15, n_batches=1)
        system = GammaSystem(PAPER_Q, g, PARAMS)
        u, v = next(
            (u, v)
            for u in range(g.n_vertices)
            for v in range(u + 1, g.n_vertices)
            if not g.has_edge(u, v)
        )
        report = system.process_batch(make_batch([("+", u, v), ("-", u, v)]))
        assert report.stage_seconds["preprocess"] == 0.0
        assert report.total_seconds == 0.0
        assert report.result.positives == set() and report.result.negatives == set()

    def test_effective_batch_still_charges_preprocess(self):
        g, stream = make_stream(16, n_batches=1)
        system = GammaSystem(PAPER_Q, g, PARAMS)
        report = system.process_batch(stream[0])
        assert report.stage_seconds["preprocess"] > 0.0


class TestPipelinePerBatchStages:
    def test_batch_stage_lists_override_model_stages(self):
        model = PipelineModel([("a", "cpu"), ("b", "gpu")])
        report = model.schedule(
            [{"a": 1.0, "b": 2.0}, {"a": 1.0, "k1": 2.0, "k2": 2.0}],
            batch_stages=[
                [("a", "cpu"), ("b", "gpu")],
                [("a", "cpu"), ("k1", "gpu"), ("k2", "gpu")],
            ],
        )
        assert report.per_stage_total["k1"] == pytest.approx(2.0)
        assert report.per_stage_total["k2"] == pytest.approx(2.0)
        assert report.serial_total == pytest.approx(8.0)
        # gpu is exclusive: b(2) + k1(2) + k2(2) serialized on it
        assert report.makespan >= 6.0

    def test_mismatched_stage_list_length_raises(self):
        model = PipelineModel([("a", "cpu")])
        with pytest.raises(ValueError):
            model.schedule([{"a": 1.0}], batch_stages=[])
