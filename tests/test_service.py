"""Service-layer tests: shared store lifecycle, multi-query fan-out,
runtime (un)registration, and the empty-delta pricing fix."""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro import xp
from repro.errors import MatchingError
from repro.filtering import CandidateTable, EncodingTable
from repro.graph import LabeledGraph
from repro.graph.generators import attach_labels, power_law_graph
from repro.graph.updates import UpdateStream, apply_batch, make_batch
from repro.gpu import DeviceParams
from repro.matching import PhaseEdges, find_matches, oracle_delta
from repro.matching.wbm import KernelOutput, _Env, _initial_items, working_items
from repro.pipeline import GammaSystem, PipelineModel
from repro.pma.gpma import GPMAGraph
from repro.service import DynamicGraphStore, MatchingService
from repro.service.matching_service import InProcessHost
from repro.testing import FaultPlan, FaultSpec

PARAMS = DeviceParams(num_sms=2, warps_per_block=4)
PAPER_Q = LabeledGraph.from_edges([0, 1, 1, 2], [(0, 1), (0, 2), (1, 2), (1, 3)])
TRI_Q = LabeledGraph.from_edges([0, 1, 1], [(0, 1), (0, 2), (1, 2)])
PATH_Q = LabeledGraph.from_edges([0, 1, 0], [(0, 1), (1, 2)])
QUERIES = [PAPER_Q, TRI_Q, PATH_Q]
#: no whole-query automorphism, but removing pendant 4 leaves a core
#: with one: gating keeps its k=1 groups, whose core filter is an
#: orbit-union column of the candidate stack
K_Q = LabeledGraph.from_edges([0, 0, 0, 1, 2], [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])


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

    def test_extra_labels_widen_the_shared_schema(self):
        """A query label the graph does not carry yet is encoded once the
        store is widened by ``extra_labels``: that query vertex then has
        no candidate, where the narrower schema leaves it unencoded (a
        weaker filter). Matches are exact either way."""
        g, stream = make_stream(12, n_batches=2)
        q = LabeledGraph.from_edges([0, 7], [(0, 1)])
        wide = MatchingService(g, params=PARAMS, extra_labels=(7,))
        narrow = MatchingService(g, params=PARAMS)
        for svc in (wide, narrow):
            svc.register_query(q, name="q")
        assert 7 in wide.store.schema.labels and 7 not in narrow.store.schema.labels
        assert not xp.to_numpy(wide.runtime("q").table.bitmap[:, 1]).any()
        assert xp.to_numpy(narrow.runtime("q").table.bitmap[:, 1]).any()
        for batch in stream:
            for svc in (wide, narrow):
                svc.process_batch(batch)
            assert wide.matches("q") == narrow.matches("q") == set()

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


# ---------------------------------------------------------------------------
# one candidate stack and one working-items pass per host, in lockstep
# with the scalar oracles
# ---------------------------------------------------------------------------
def scalar_items(runtime, phase, csr):
    """The scalar oracle's per-edge items over a freshly built scalar
    candidate table (which ORs orbit columns itself)."""
    fresh = CandidateTable(runtime.query, runtime.graph, vectorized=False)
    env = _Env(
        runtime.query, runtime.graph, fresh, runtime.plan, phase,
        replace(runtime.config, vectorized=False), KernelOutput(), csr=csr,
    )
    out = {}
    for i, (x, y, lbl) in enumerate(zip(phase.exl, phase.eyl, phase.ell)):
        items = _initial_items(env, x, y, lbl, i)
        if items:
            out[i] = items
    return out


class TestCandidateStackLockstep:
    """A mixed stream through one host with mid-stream registration,
    unregistration of a middle query, vertex growth and two quarantines
    followed by ``rebootstrap``. After every batch each query's stacked
    columns equal a fresh scalar table; during every phase each query's
    batched items equal ``_initial_items``; per-query ``KernelStats``
    equal a twin service hosting that query alone."""

    def _batch(self, shadow, rng, grow=None):
        edges = list(shadow.edges())
        non = [
            (u, v)
            for u in range(shadow.n_vertices)
            for v in range(u + 1, shadow.n_vertices)
            if not shadow.has_edge(u, v)
        ]
        rng.shuffle(edges)
        rng.shuffle(non)
        ops = [("+", u, v) for u, v in non[:4]] + [("-", u, v) for u, v in edges[:3]]
        if grow is not None:
            ops += [("+", u, grow) for u in range(4)]
        return make_batch(ops)

    def test_stacked_columns_items_and_stats_track_oracles(self, monkeypatch):
        checked = []
        real = InProcessHost._phase_items

        def audited(host, edges, names):
            items = real(host, edges, names)
            csr = host.store.csr_snapshot()
            for name in names:
                runtime = host.runtimes[name]
                assert items[name] == scalar_items(runtime, edges, csr)
            # edges whose endpoints lie beyond the launch-time snapshot
            n = csr.n_vertices
            beyond = PhaseEdges(list(edges.edges) + [(n + 2, 0, 0), (3, n + 5, 0), (n, n + 1, 0)])
            runtimes = [host.runtimes[name] for name in names]
            for runtime, batched in zip(runtimes, working_items(beyond, csr, runtimes)):
                assert batched == scalar_items(runtime, beyond, csr)
                assert all(i < len(edges) for i in batched)
            checked.append(len(names))
            return items

        monkeypatch.setattr(InProcessHost, "_phase_items", audited)

        g = attach_labels(power_law_graph(30, 4.0, seed=4), 3, 1, seed=5)
        faults = FaultPlan(
            (
                FaultSpec("runtime.observe", 1, query="a"),  # before the refresh
                FaultSpec("runtime.observe.mid", 3, query="k"),  # after it
            )
        )
        service = MatchingService(g, params=PARAMS, faults=faults)
        twins = {}

        def register(name, query):
            service.register_query(query, name=name)
            twins[name] = MatchingService(service.graph, params=PARAMS)
            twins[name].register_query(query, name=name)

        for name, query in (("a", PAPER_Q), ("k", K_Q), ("c", TRI_Q), ("e", PATH_Q)):
            register(name, query)
        host = service._hosts[0]
        k_table = host.runtimes["k"].table
        assert k_table.unions, "K_Q should keep a k>0 group"
        # the union column is looser than a member's exact column, so
        # filtering on the wrong one would show
        assert any(
            (host.stack.bitmap[:, k_table.ulo + j] != k_table.bitmap[:, w]).any()
            for orbit, j in k_table.unions.items()
            for w in orbit
        )
        assert all(rt.table.stack is host.stack for rt in host.runtimes.values())

        rng = random.Random(7)
        shadow = g.copy()
        health = []
        for index in range(6):
            grow = None
            if index == 2:  # vertex growth: the batch wires up a new vertex
                grow = shadow.add_vertex(0)
                for svc in (service, *twins.values()):
                    svc.store.graph.add_vertex(0)
            batch = self._batch(shadow, rng, grow)
            report = service.process_batch(batch)
            apply_batch(shadow, batch)
            health.append(dict(report.health))
            for name, twin in twins.items():
                if name not in service.query_names:
                    continue
                twin_row = twin.process_batch(batch).queries[name]
                if report.health[name] == "quarantined":
                    continue
                row = report.queries[name]
                assert row.result.kernel_stats == twin_row.result.kernel_stats
                assert row.result.positives == twin_row.result.positives
                assert row.result.negatives == twin_row.result.negatives
                assert service.matches(name) == find_matches(service.runtime(name).query, shadow)
                table = service.runtime(name).table
                fresh = CandidateTable(table.query, shadow, vectorized=False)
                np.testing.assert_array_equal(
                    xp.to_numpy(table.bitmap), xp.to_numpy(fresh.bitmap)
                )
                bitmap = xp.to_numpy(host.stack.bitmap)
                for orbit, j in table.unions.items():
                    union = np.logical_or.reduce(xp.to_numpy(fresh.bitmap)[:, list(orbit)], axis=1)
                    np.testing.assert_array_equal(bitmap[:, table.ulo + j], union)
            if index == 1:
                service.unregister_query("c")  # the middle of the stack
                del twins["c"]
            if index == 2:
                register("d", TRI_Q)  # mid-stream, after vertex growth
        assert host.stack.bitmap.shape[1] == sum(
            rt.table.n_query + len(rt.table.unions) for rt in host.runtimes.values()
        )
        assert [h["a"] for h in health][1:3] == ["quarantined", "recovered"]
        assert [h["k"] for h in health][3:5] == ["quarantined", "recovered"]
        assert sum(checked) > 0

    def test_shared_pass_fault_falls_back_to_per_query_items(self, monkeypatch):
        """A fault in the host's shared working-items pass quarantines
        nobody: each launch resolves its own items inside its guard, and
        matches and stats equal a twin whose pass works."""
        import repro.service.matching_service as ms

        g, stream = make_stream(19, n_batches=2)
        service = MatchingService(g, params=PARAMS)
        twin = MatchingService(g, params=PARAMS)
        for svc in (service, twin):
            for i, q in enumerate(QUERIES):
                svc.register_query(q, name=f"q{i}")

        def faulty(phase, csr, runtimes):
            if runtimes[0].store is service.store:
                raise RuntimeError("shared pass down")
            return working_items(phase, csr, runtimes)

        monkeypatch.setattr(ms, "working_items", faulty)
        for batch in stream:
            report = service.process_batch(batch)
            expected = twin.process_batch(batch)
            assert set(report.health.values()) == {"ok"}
            for name, row in report.queries.items():
                assert row.result.kernel_stats == expected.queries[name].result.kernel_stats
                assert row.result.positives == expected.queries[name].result.positives
                assert row.result.negatives == expected.queries[name].result.negatives
