"""Columnar authoritative graph state (ISSUE 10).

The contracts under test:

* ``LabeledGraph.from_csr`` is a **derived view**: every read accessor
  answers from the CSR columns without materializing adjacency dicts,
  and ``absorb_delta(delta, csr=...)`` rebases the view in O(1). A
  randomized mixed stream keeps a derived view and an eagerly
  materialized mirror in lockstep.
* ``DynamicGraphStore`` commits never touch per-edge dict writes while
  the mirror stays a view, and rollback restores the view **as a
  view** (no materialization on the undo path either).
* Serving never materializes the view: with ``_materialize`` patched
  to raise, multi-query and hub-heavy streams stay healthy and exact
  in-process and on forked worker replicas (``neighbor_dict`` serves
  per-vertex snapshot rows).
* ``apply_effective_delta(strict=True)`` validates the whole delta
  against the replica *before* mutating — a desynced replica raises
  ``UpdateError`` instead of silently diverging, in the store and in
  the sharded worker replay path.
* ``effective_delta``'s CSR fast path consults the live graph for
  edges incident to vertices appended after the snapshot cut
  (regression: it used to treat them as out of range / absent).
* ``PMA.batch_delete`` rejects duplicate keys up front on **both**
  arms, and the vectorized arm's batched underflow rebalances stay
  byte-identical to the scalar oracle under adversarial delete mixes.
"""

import multiprocessing
import random

import numpy as np
import pytest

from repro.errors import UpdateError
from repro.graph import LabeledGraph
from repro.graph.csr import AttachedSnapshot, CSRGraph, publish_snapshot, unlink_snapshot
from repro.graph.generators import attach_labels, power_law_graph
from repro.graph.updates import (
    apply_batch,
    apply_effective_delta,
    effective_delta,
    make_batch,
)
from repro.gpu import DeviceParams
from repro.matching import WBMConfig, find_matches
from repro.pma.pma import PMA, PmaError
from repro.service import MatchingService, ShardedMatchingService, ShardPolicy
from repro.service.sharded import _SharedEncodings, _WorkerStore
from repro.service.store import DynamicGraphStore
from test_dfs_level_step import CHORD_Q, DENSE_Q, hub_heavy_workload, mixed_stream

PARAMS = DeviceParams(num_sms=2, warps_per_block=4)


def base_graph(seed: int, n: int = 24):
    return attach_labels(power_law_graph(n, 3.0, seed=seed), 3, 2, seed=seed + 1)


def mixed_batches(g: LabeledGraph, seed: int, n_batches: int = 6):
    """Inserts, deletes, and label changes (delete + reinsert with a new
    label inside one batch) against a shadow copy."""
    rng = random.Random(seed)
    shadow = g.copy()
    n = g.n_vertices
    batches = []
    for _ in range(n_batches):
        edges = list(shadow.edges())
        non = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not shadow.has_edge(u, v)
        ]
        rng.shuffle(edges)
        rng.shuffle(non)
        ops = [("+", u, v, rng.randrange(2)) for u, v in non[:4]]
        ops += [("-", u, v) for u, v in edges[:3]]
        rng.shuffle(ops)
        if len(edges) > 3:
            # net label change: delete then reinsert with the other
            # label — appended unshuffled so the pair stays ordered
            u, v = edges[3]
            old = shadow.edge_label(u, v)
            ops += [("-", u, v), ("+", u, v, 1 - old)]
        batch = make_batch(ops)
        apply_batch(shadow, batch)
        batches.append(batch)
    return batches


def read_surface(g: LabeledGraph):
    """Every read accessor, none of which may materialize a view."""
    degs, nbrs, labels = np.asarray(g.adjacency_arrays()[0]), None, None
    return {
        "edges": sorted(g.labeled_edges()),
        "degrees": [g.degree(v) for v in g.vertices()],
        "neighbors": {v: tuple(g.neighbors(v)) for v in g.vertices()},
        "nlf": {v: g.nlf(v) for v in g.vertices()},
        "max_degree": g.max_degree(),
        "n_edges": g.n_edges,
        "adj_degrees": degs.tolist(),
        "elabels": sorted(g.edge_label_alphabet()),
    }


class TestDerivedView:
    def test_lockstep_mixed_stream(self):
        g = base_graph(11)
        batches = mixed_batches(g, 7)
        eager = g.copy()
        eager.ensure_materialized()
        csr = CSRGraph.from_graph(g)
        view = LabeledGraph.from_csr(csr)
        assert not view.is_materialized
        for batch in batches:
            delta = effective_delta(eager, batch)
            csr = csr.apply_delta(delta, eager)
            apply_effective_delta(eager, delta)
            view.absorb_delta(delta, csr=csr, strict=True)
            assert not view.is_materialized
            assert read_surface(view) == read_surface(eager)
            assert not view.is_materialized
            # sampled point probes, incl. absent edges
            for u in range(0, g.n_vertices, 3):
                for v in range(1, g.n_vertices, 4):
                    assert view.has_edge(u, v) == eager.has_edge(u, v)
        # dict-shaped access materializes an identical mirror on demand
        assert view == eager
        assert view.is_materialized

    def test_view_copy_is_copy_on_write(self):
        g = base_graph(3)
        view = LabeledGraph.from_csr(CSRGraph.from_graph(g))
        clone = view.copy()
        assert not clone.is_materialized
        clone.ensure_materialized()
        assert clone.is_materialized and not view.is_materialized
        assert clone == g

    def test_strict_absorb_raises_before_mutating(self):
        g = base_graph(5)
        eager = g.copy()
        bogus = make_batch([("-", 0, 1)]) if g.has_edge(0, 1) else None
        # build a delta valid for g, then desync the replica
        batch = mixed_batches(g, 1, n_batches=1)[0]
        delta = effective_delta(g, batch)
        u, v, lbl = delta.inserted[0]
        eager.add_edge(u, v, lbl)  # replica already has the first insert
        before = sorted(eager.labeled_edges())
        with pytest.raises(UpdateError, match="insert of existing edge"):
            apply_effective_delta(eager, delta, strict=True)
        assert sorted(eager.labeled_edges()) == before
        del bogus

    def test_strict_absorb_missing_delete_raises(self):
        g = base_graph(6)
        batch = mixed_batches(g, 2, n_batches=1)[0]
        delta = effective_delta(g, batch)
        u, v, _ = delta.deleted[0]
        replica = g.copy()
        replica.remove_edge(u, v)
        before = sorted(replica.labeled_edges())
        with pytest.raises(UpdateError, match="delete of missing edge"):
            apply_effective_delta(replica, delta, strict=True)
        assert sorted(replica.labeled_edges()) == before


class TestStoreDerivedMirror:
    def test_store_mirror_stays_view_across_commits(self):
        """The derived view stays a view across commits; a mirror
        materialized up front (the eager form) stays materialized and
        commits to the same state."""
        g = base_graph(13)
        for eager in (False, True):
            store = DynamicGraphStore(g, PARAMS)
            assert not store.graph.is_materialized
            if eager:
                store.graph.ensure_materialized()
            reference = g.copy()
            for batch in mixed_batches(g, 17, n_batches=5):
                delta = store.prepare(batch)
                store.commit(batch, delta)
                apply_batch(reference, batch)
                assert store.graph.is_materialized == eager
                assert read_surface(store.graph) == read_surface(reference)
                store.check_consistency()
            assert store.graph.is_materialized == eager
            assert store.version == 5

    def test_rollback_restores_the_view(self):
        g = base_graph(19)
        store = DynamicGraphStore(g, PARAMS)
        surface0 = read_surface(store.graph)
        batch = mixed_batches(g, 23, n_batches=1)[0]
        delta = store.prepare(batch)
        commit = store.commit(batch, delta)
        store.rollback(commit)
        assert not store.graph.is_materialized
        assert read_surface(store.graph) == surface0
        store.check_consistency()

    def test_tampered_mirror_fails_commit_and_recovers(self):
        g = base_graph(29)
        store = DynamicGraphStore(g, PARAMS)
        store.graph.ensure_materialized()
        non = next(
            (u, v)
            for u in range(g.n_vertices)
            for v in range(u + 1, g.n_vertices)
            if not g.has_edge(u, v)
        )
        batch = make_batch([("+",) + non])
        delta = store.prepare(batch)
        # desync the mirror behind the store's back: the strict replay
        # in commit must refuse rather than silently double-apply
        store.graph.add_edge(*non, 0)
        with pytest.raises(UpdateError, match="insert of existing edge"):
            store.commit(batch, delta)
        # the tolerant rollback removed the tampered edge while undoing
        # the delta: graph/gpma/encodings are back at the pre-batch state
        assert not store.graph.has_edge(*non)
        assert sorted(store.graph.labeled_edges()) == sorted(g.labeled_edges())
        store.check_consistency()


class TestBulkEdgeStatePostSnapshotVertices:
    """Regression: the CSR fast path of ``_bulk_edge_state`` answered
    "absent" for edges incident to vertices appended after the snapshot
    cut, so ``effective_delta`` judged the batch against stale state."""

    def _setup(self):
        g = base_graph(31)
        csr = CSRGraph.from_graph(g)
        w = g.add_vertex(1)
        g.add_edge(0, w, 1)
        return g, csr, w

    def test_insert_of_existing_post_snapshot_edge_raises_both_arms(self):
        for vectorized in (True, False):
            g, csr, w = self._setup()
            batch = make_batch([("+", 0, w, 1)])
            with pytest.raises(UpdateError, match="insert of existing edge"):
                effective_delta(g, batch, csr=csr, vectorized=vectorized)

    def test_delete_of_post_snapshot_edge_nets_both_arms(self):
        g, csr, w = self._setup()
        batch = make_batch([("-", 0, w), ("+", 0, w, 0)])
        vec = effective_delta(g, batch, csr=csr, vectorized=True)
        ref = effective_delta(g, batch, csr=None, vectorized=False)
        assert vec.inserted == ref.inserted
        assert vec.deleted == ref.deleted
        # a pure re-insert with the same label nets to nothing
        same = make_batch([("-", 0, w), ("+", 0, w, 1)])
        net = effective_delta(g, same, csr=csr, vectorized=True)
        assert net.inserted == () and net.deleted == ()


class TestWorkerReplay:
    def _publish(self, store):
        arrays = store.csr_snapshot().snapshot_arrays()
        arrays["enc_packed"] = store.encodings.packed
        return publish_snapshot(arrays, version=store.version)

    def _worker_store(self, store, handle):
        att = AttachedSnapshot(handle)
        enc = _SharedEncodings(
            store.encodings.schema, att.arrays["enc_packed"], handle.version, True
        )
        return _WorkerStore(
            LabeledGraph.from_csr(att.csr()), enc, att, True, None
        )

    def test_advance_with_handle_rebases_view(self):
        g = base_graph(37)
        store = DynamicGraphStore(g, PARAMS)
        h0 = self._publish(store)
        handles = [h0]
        try:
            ws = self._worker_store(store, h0)
            assert not ws.graph.is_materialized
            for batch in mixed_batches(g, 41, n_batches=3):
                delta = store.prepare(batch)
                store.commit(batch, delta)
                h = self._publish(store)
                handles.append(h)
                ws.advance(delta, h)
                assert ws.version == store.version
                assert not ws.graph.is_materialized
                assert read_surface(ws.graph) == read_surface(store.graph)
        finally:
            for h in handles:
                unlink_snapshot(h)

    def test_advance_stale_replays_strictly(self):
        g = base_graph(43)
        store = DynamicGraphStore(g, PARAMS)
        h0 = self._publish(store)
        try:
            ws = self._worker_store(store, h0)
            batch = mixed_batches(g, 47, n_batches=1)[0]
            delta = store.prepare(batch)
            store.commit(batch, delta)
            ws.advance(delta, None)  # stale-snapshot fault path
            assert sorted(ws.graph.labeled_edges()) == sorted(
                store.graph.labeled_edges()
            )
            # version did NOT advance: the supervisor quarantines on that
            assert ws.version == store.version - 1
        finally:
            unlink_snapshot(h0)

    def test_advance_mismatched_delta_raises_before_mutating(self):
        g = base_graph(53)
        store = DynamicGraphStore(g, PARAMS)
        h0 = self._publish(store)
        try:
            ws = self._worker_store(store, h0)
            batch = mixed_batches(g, 59, n_batches=1)[0]
            delta = store.prepare(batch)
            store.commit(batch, delta)
            before = sorted(ws.graph.labeled_edges())
            ws.advance(delta, None)
            with pytest.raises(UpdateError):
                ws.advance(delta, None)  # replaying the same delta twice
            assert sorted(store.graph.labeled_edges()) != before
        finally:
            unlink_snapshot(h0)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_sharded_service_lockstep(self, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        g = base_graph(61)
        batches = mixed_batches(g, 67, n_batches=3)
        query = LabeledGraph.from_edges([0, 1, 1], [(0, 1), (0, 2), (1, 2)])
        single = MatchingService(g, params=PARAMS)
        single.register_query(query, WBMConfig(), name="tri")
        sharded = ShardedMatchingService(
            g,
            params=PARAMS,
            shard_policy=ShardPolicy(
                n_workers=2,
                start_method=start_method,
                heartbeat_timeout_s=5.0,
                batch_deadline_s=30.0,
            ),
        )
        sharded.register_query(query, WBMConfig(), name="tri")
        try:
            for batch in batches:
                ra = single.process_batch(batch)
                rb = sharded.process_batch(batch)
                qa, qb = ra.queries["tri"], rb.queries["tri"]
                assert sorted(qa.result.positives) == sorted(qb.result.positives)
                assert sorted(qa.result.negatives) == sorted(qb.result.negatives)
            assert single.matches("tri") == sharded.matches("tri")
        finally:
            sharded.close()


def never_materialize(self):
    raise AssertionError("a serving path materialized the dict mirror")


def serving_streams():
    """A multi-query mixed stream and the hub-heavy C4 stream:
    ``(start graph, {query name: query}, batches)``."""
    g, batches = mixed_stream(4)
    queries = {
        "chord": CHORD_Q,
        "dense": DENSE_Q,
        "tri": LabeledGraph.from_edges([0, 1, 0], [(0, 1), (1, 2), (0, 2)]),
    }
    yield g, queries, batches
    hub_g, c4, hub_batches = hub_heavy_workload()
    yield hub_g, {"c4": c4}, hub_batches


class TestMirrorNeverMaterializes:
    """The serving paths — store commits, candidate refresh and every
    Gen-Candidates strategy of the DFS — read the CSR snapshot and
    per-vertex snapshot rows only: the whole-graph dict mirror is
    never built, in-process or in a forked worker replica (which
    inherits the patched ``_materialize`` and would fault its shard)."""

    def _serve(self, service, g, queries, batches):
        for name, q in queries.items():
            service.register_query(q, WBMConfig(work_stealing="active"), name=name)
        reference = g.copy()
        for batch in batches:
            rep = service.process_batch(batch)
            apply_batch(reference, batch)
            assert rep.failure is None and not rep.rolled_back
            assert set(rep.health) == set(queries)
            assert all(h == "ok" for h in rep.health.values()), rep.health
            assert all(h == "ok" for h in getattr(rep, "shard_health", {}).values())
            assert not service.store.graph.is_materialized
            for name, q in queries.items():
                assert service.matches(name) == find_matches(q, reference), name

    def test_in_process(self, monkeypatch):
        monkeypatch.setattr(LabeledGraph, "_materialize", never_materialize)
        for g, queries, batches in serving_streams():
            self._serve(MatchingService(g, params=PARAMS), g, queries, batches)

    def test_sharded_workers(self, monkeypatch):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork unavailable: workers would not inherit the patch")
        monkeypatch.setattr(LabeledGraph, "_materialize", never_materialize)
        for g, queries, batches in serving_streams():
            service = ShardedMatchingService(
                g,
                params=PARAMS,
                shard_policy=ShardPolicy(
                    n_workers=2,
                    start_method="fork",
                    heartbeat_timeout_s=5.0,
                    batch_deadline_s=30.0,
                ),
            )
            try:
                self._serve(service, g, queries, batches)
            finally:
                service.close()


def paired():
    return PMA(vectorized=False), PMA(vectorized=True)


def assert_identical(s: PMA, v: PMA):
    assert list(s.keys()) == list(v.keys())
    assert list(s.items()) == list(v.items())
    assert s.opstats.__dict__ == v.opstats.__dict__


class TestBatchDeleteContract:
    def test_duplicate_keys_raise_both_arms_pre_mutation(self):
        s, v = paired()
        keys = list(range(0, 400, 7))
        s.batch_insert([(k, k) for k in keys])
        v.batch_insert([(k, k) for k in keys])
        for p in (s, v):
            with pytest.raises(PmaError, match="duplicate key 7 in batch"):
                p.batch_delete([21, 7, 14, 7])
        assert_identical(s, v)  # neither arm mutated

    def test_duplicate_reports_smallest_duplicated_key(self):
        s, v = paired()
        s.batch_insert([(k, 0) for k in range(32)])
        v.batch_insert([(k, 0) for k in range(32)])
        for p in (s, v):
            with pytest.raises(PmaError, match="duplicate key 3 in batch"):
                p.batch_delete([9, 9, 3, 3, 5])

    def test_batched_underflow_rebalances_lockstep(self):
        rng = random.Random(1009)
        s, v = paired()
        keys = rng.sample(range(10**6), 6000)
        s.batch_insert([(k, k) for k in keys])
        v.batch_insert([(k, k) for k in keys])
        assert_identical(s, v)
        pool = sorted(keys)
        # adversarial: large strided batches hit many segments at once,
        # driving multi-trigger rounds through the batched spread path
        for step in range(12):
            take = pool[step % 3 :: 3][: max(1, len(pool) // 8)]
            es = s.batch_delete(list(take))
            ev = v.batch_delete(list(take))
            assert es == ev
            for k in take:
                pool.remove(k)
            assert_identical(s, v)

    def test_randomized_mixed_stream_lockstep(self):
        for seed in range(6):
            rng = random.Random(seed)
            s, v = paired()
            live: set[int] = set()
            for _ in range(60):
                if rng.random() < 0.5 or len(live) < 10:
                    fresh = [
                        k for k in rng.sample(range(50000), rng.randint(1, 40))
                        if k not in live
                    ]
                    if not fresh:
                        continue
                    items = [(k, k * 2) for k in fresh]
                    assert s.batch_insert(list(items)) == v.batch_insert(list(items))
                    live.update(fresh)
                else:
                    n = rng.randint(1, max(1, len(live) * 3 // 4))
                    take = rng.sample(sorted(live), n)
                    assert s.batch_delete(list(take)) == v.batch_delete(list(take))
                    live.difference_update(take)
                assert_identical(s, v)


class TestBaselineNlfIndex:
    def test_matrix_filter_matches_counter_fallback(self):
        from repro.baselines.graphflow import Graphflow
        from repro.baselines.rapidflow import RapidFlow

        g = base_graph(71)
        query = LabeledGraph.from_edges([0, 1, 1], [(0, 1), (0, 2), (1, 2)])
        batches = mixed_batches(g, 73, n_batches=3)
        for engine_cls in (Graphflow, RapidFlow):
            fast = engine_cls(query, g)
            slow = engine_cls(query, g)
            slow._nlf_counts = None  # force the Counter fallback
            assert fast._nlf_counts is not None
            for batch in batches:
                pa, na = fast.process_batch(batch)
                pb, nb = slow.process_batch(batch)
                assert pa == pb and na == nb
            # the maintained matrix equals a from-scratch rebuild
            rebuilt = engine_cls(query, fast.graph)
            assert np.array_equal(fast._nlf_counts, rebuilt._nlf_counts)


@pytest.mark.backend_matrix
class TestBackendMatrixColumnar:
    """Re-run the batch-delete lockstep contract under every registered
    ``repro.xp`` backend (opt-in via ``REPRO_BACKEND_MATRIX=1``). The
    ``strict_numpy`` leg proves the batched underflow-rebalance planner
    never escapes scalars outside the sanctioned ``to_numpy``/
    ``to_scalar`` chokepoints."""

    def test_batched_underflow_lockstep_per_backend(self, backend):
        rng = random.Random(4021)
        s, v = paired()
        keys = rng.sample(range(10**6), 3000)
        s.batch_insert([(k, k) for k in keys])
        v.batch_insert([(k, k) for k in keys])
        pool = sorted(keys)
        for step in range(6):
            take = pool[step % 3 :: 3][: len(pool) // 6]
            assert s.batch_delete(list(take)) == v.batch_delete(list(take))
            for k in take:
                pool.remove(k)
            assert_identical(s, v)
            s.check_invariants()
            v.check_invariants()
