"""Supervised sharded serving tier (ISSUE 8).

The contracts under test:

* Healthy shards are **byte-identical** to single-process serving:
  same matches, same ``KernelStats``, same stage pricing — for every
  batch, under both ``fork`` and ``spawn`` start methods, and in the
  presence of faults on *other* shards.
* Process-level faults (worker crash, hang past the deadline, torn
  IPC reply, stale snapshot attach) quarantine the shard for that
  batch only: the supervisor respawns the worker, republishes the
  snapshot, and re-bootstraps its queries within one batch.
* Respawn-retry exhaustion latches the shard; with
  ``degrade_to_inprocess`` its queries keep serving from the parent
  process, byte-identical from the re-anchored boundary.
* Per-query faults inside a worker quarantine only that query (the
  shard keeps serving), with the same recovery lifecycle — and the
  same per-batch reports — as single-process serving.
* ``repro.errors`` exceptions survive pickling with their structured
  context (satellite 1); ``FaultPlan`` schedules are deterministic in
  forked and spawned children (satellite 3).

All fault schedules are seeded ``FaultPlan``\\ s — no monkeypatching —
so any failure here replays exactly.
"""

import dataclasses
import multiprocessing
import pickle
import random

import numpy as np
import pytest

from repro.errors import (
    BudgetExceeded,
    ConfigMismatchError,
    GraphError,
    InjectedFault,
    QueryQuarantinedError,
    ReproError,
    ServiceError,
    ShardFaultError,
)
from repro.graph import LabeledGraph
from repro.graph.csr import (
    AttachedSnapshot,
    CSRGraph,
    publish_snapshot,
    unlink_snapshot,
)
from repro.graph.generators import attach_labels, power_law_graph
from repro.graph.updates import apply_batch, make_batch
from repro.gpu import DeviceParams
from repro.matching import WBMConfig, find_matches
from repro.service import (
    MatchingService,
    ResiliencePolicy,
    ShardedMatchingService,
    ShardPolicy,
)
from repro.testing import FaultPlan, FaultSpec, replay_script
from repro.testing.faults import (
    _replay_in_child,
    _replay_seeded_in_child,
    dataclass_tuple,
)

PARAMS = DeviceParams(num_sms=2, warps_per_block=4)
TRI_Q = LabeledGraph.from_edges([0, 1, 1], [(0, 1), (0, 2), (1, 2)])
PATH_Q = LabeledGraph.from_edges([0, 1, 0], [(0, 1), (1, 2)])
PAPER_Q = LabeledGraph.from_edges([0, 1, 1, 2], [(0, 1), (0, 2), (1, 2), (1, 3)])

#: (name, query) registration order — alternates across the two shards
QUERIES = [("tri", TRI_Q), ("path", PATH_Q), ("paper", PAPER_Q), ("path2", PATH_Q)]


def make_stream(seed: int, n: int = 26, n_batches: int = 4):
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
    return g, batches


def _result_key(qrep):
    return (
        sorted(qrep.result.positives),
        sorted(qrep.result.negatives),
        dataclasses.asdict(qrep.result.kernel_stats),
    )


@pytest.fixture(scope="module")
def workload():
    return make_stream(5)


@pytest.fixture(scope="module")
def baseline(workload):
    """Single-process reports + final match views for the module workload."""
    g, batches = workload
    svc = MatchingService(g, params=PARAMS)
    for name, q in QUERIES:
        svc.register_query(q, WBMConfig(), name=name)
    reports = [svc.process_batch(b) for b in batches]
    finals = {name: svc.matches(name) for name, _ in QUERIES}
    return reports, finals


def make_sharded(g, *, faults=None, shard_policy=None, policy=None):
    svc = ShardedMatchingService(
        g,
        params=PARAMS,
        policy=policy,
        shard_policy=shard_policy
        or ShardPolicy(n_workers=2, heartbeat_timeout_s=5.0, batch_deadline_s=30.0),
        faults=faults,
    )
    for name, q in QUERIES:
        svc.register_query(q, WBMConfig(), name=name)
    return svc


def assert_query_identical(base_report, sharded_report, name):
    assert _result_key(base_report.queries[name]) == _result_key(
        sharded_report.queries[name]
    ), name


# ---------------------------------------------------------------------------
# satellite 1: pickle-safe errors with structured context
# ---------------------------------------------------------------------------
class TestPickleSafeErrors:
    CASES = [
        QueryQuarantinedError("q3", "injected fault"),
        ShardFaultError("shard1", "worker process crashed mid-batch"),
        InjectedFault("runtime.launch", 2, query="q1"),
        BudgetExceeded(1200, 1000),
        ConfigMismatchError("vectorized store, scalar config"),
        GraphError("vertex 99 out of range"),
    ]

    @pytest.mark.parametrize("err", CASES, ids=lambda e: type(e).__name__)
    def test_round_trip_preserves_type_message_and_attrs(self, err):
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is type(err)
        assert str(clone) == str(err)
        assert clone.__dict__ == err.__dict__

    def test_context_survives_round_trip(self):
        err = ShardFaultError("shard0", "heartbeat silence").with_context(
            query="tri", batch_version=7, fault_site="worker.batch.hang"
        )
        clone = pickle.loads(pickle.dumps(err))
        assert clone.context == {
            "query": "tri",
            "batch_version": 7,
            "fault_site": "worker.batch.hang",
        }
        assert clone.shard == "shard0"
        assert isinstance(clone, ReproError)

    def test_injected_fault_context_from_plan(self):
        plan = FaultPlan([FaultSpec("runtime.launch", 0, query="q1")])
        with pytest.raises(InjectedFault) as exc:
            plan.fire("runtime.launch", query="q1")
        clone = pickle.loads(pickle.dumps(exc.value))
        assert clone.context["site"] == "runtime.launch"
        assert clone.query == "q1"


# ---------------------------------------------------------------------------
# shared-memory snapshot publication
# ---------------------------------------------------------------------------
def _attach_in_child(conn, handle):
    try:
        att = AttachedSnapshot(handle)
        conn.send(("ok", {k: np.asarray(v).tolist() for k, v in att.arrays.items()}))
        att.close()
    except Exception as exc:  # noqa: BLE001
        conn.send(("error", repr(exc)))
    finally:
        conn.close()


class TestSharedSnapshot:
    def _graph(self):
        return attach_labels(power_law_graph(18, 3.0, seed=3), 3, 1, seed=4)

    def test_round_trip_same_process(self):
        csr = CSRGraph.from_graph(self._graph())
        handle = publish_snapshot(csr.snapshot_arrays(), version=5)
        try:
            att = AttachedSnapshot(pickle.loads(pickle.dumps(handle)))
            assert att.version == 5
            rebuilt = att.csr()
            for key, arr in csr.snapshot_arrays().items():
                assert np.array_equal(att.arrays[key], arr), key
                assert not att.arrays[key].flags.writeable
            assert np.array_equal(rebuilt.neighbors, csr.neighbors)
            att.close()
        finally:
            unlink_snapshot(handle)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_attach_from_child_process(self, start_method):
        csr = CSRGraph.from_graph(self._graph())
        arrays = csr.snapshot_arrays()
        handle = publish_snapshot(arrays, version=2)
        try:
            ctx = multiprocessing.get_context(start_method)
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_attach_in_child, args=(child, handle))
            proc.start()
            child.close()
            status, got = parent.recv()
            proc.join(10)
            assert status == "ok", got
            for key, arr in arrays.items():
                assert got[key] == np.asarray(arr).tolist(), key
        finally:
            unlink_snapshot(handle)
        # the child's exit must not have unlinked the parent-owned
        # segment before the explicit unlink above (bpo-39959 regression
        # guard): a second unlink is an idempotent no-op
        unlink_snapshot(handle)

    def test_attach_after_unlink_raises(self):
        handle = publish_snapshot({"a": np.arange(4, dtype=np.int64)})
        unlink_snapshot(handle)
        with pytest.raises(FileNotFoundError):
            AttachedSnapshot(handle)


# ---------------------------------------------------------------------------
# satellite 3: FaultPlan determinism in forked/spawned children
# ---------------------------------------------------------------------------
def _script(n=40):
    sites = ("runtime.launch", "store.prepare", "worker.batch.abort", "gpma.apply")
    queries = (None, "q0", "shard0")
    return [(sites[i % len(sites)], queries[i % len(queries)]) for i in range(n)]


class TestFaultPlanChildDeterminism:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pickled_plan_replays_identically(self, start_method):
        plan = FaultPlan.seeded(
            17, n_faults=6, horizon=10, queries=("q0", "shard0"), min_spacing=1
        )
        script = _script()
        expected = replay_script(
            FaultPlan(plan.specs), script
        )  # fresh counters, same specs
        ctx = multiprocessing.get_context(start_method)
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=_replay_in_child, args=(child, FaultPlan(plan.specs), script)
        )
        proc.start()
        child.close()
        status, log = parent.recv()
        proc.join(10)
        assert status == "ok", log
        assert log == expected
        assert expected, "schedule fired nothing — test is vacuous"

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_seed_rebuilt_in_child_matches_parent(self, start_method):
        kwargs = dict(n_faults=6, horizon=10, queries=("q0", "shard0"), min_spacing=1)
        parent_plan = FaultPlan.seeded(23, **kwargs)
        script = _script()
        parent_log = replay_script(FaultPlan(parent_plan.specs), script)
        ctx = multiprocessing.get_context(start_method)
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=_replay_seeded_in_child, args=(child, 23, kwargs, script)
        )
        proc.start()
        child.close()
        status, child_specs, child_log = parent.recv()
        proc.join(10)
        assert status == "ok", child_specs
        assert child_specs == [dataclass_tuple(s) for s in parent_plan.specs]
        assert child_log == parent_log


# ---------------------------------------------------------------------------
# healthy path: byte-identity with single-process serving
# ---------------------------------------------------------------------------
class TestHealthyPath:
    def test_fork_byte_identity_every_batch(self, workload, baseline):
        for n_workers in (1, 2, 4):
            self._fork_byte_identity(workload, baseline, n_workers)

    def _fork_byte_identity(self, workload, baseline, n_workers):
        g, batches = workload
        base_reports, finals = baseline
        shards = [f"shard{k}" for k in range(n_workers)]
        svc = make_sharded(
            g,
            shard_policy=ShardPolicy(
                n_workers=n_workers, heartbeat_timeout_s=5.0, batch_deadline_s=30.0
            ),
        )
        try:
            # registration fills the least-loaded shard, first one on ties
            for i, (name, _) in enumerate(QUERIES):
                assert svc.shard_of(name) == shards[i % n_workers], n_workers
            for base, batch in zip(base_reports, batches):
                rep = svc.process_batch(batch)
                assert rep.shard_health == dict.fromkeys(shards, "ok")
                for name, _ in QUERIES:
                    assert_query_identical(base, rep, name)
                    assert rep.queries[name].health == "ok"
                    assert (
                        rep.queries[name].kernel_seconds
                        == base.queries[name].kernel_seconds
                    )
                # the per-query table refresh is split out per shard
                # (it runs in the workers); the op totals are conserved
                refresh = sum(
                    v for k, v in rep.stage_seconds.items() if k.startswith("refresh:")
                )
                assert rep.stage_seconds["preprocess"] + refresh == pytest.approx(
                    base.stage_seconds["preprocess"]
                )
                assert rep.stage_seconds["update"] == base.stage_seconds["update"]
                assert rep.stage_seconds["postprocess"] == base.stage_seconds["postprocess"]
            for name, _ in QUERIES:
                assert svc.matches(name) == finals[name]
        finally:
            svc.close()

    def test_spawn_byte_identity(self, workload, baseline):
        g, batches = workload
        base_reports, _ = baseline
        svc = make_sharded(
            g, shard_policy=ShardPolicy(n_workers=2, start_method="spawn")
        )
        try:
            for base, batch in zip(base_reports[:2], batches[:2]):
                rep = svc.process_batch(batch)
                for name, _ in QUERIES:
                    assert_query_identical(base, rep, name)
        finally:
            svc.close()

    def test_stage_plan_prices_kernels_per_shard(self, workload):
        g, batches = workload
        svc = make_sharded(g)
        try:
            plan = dict(svc.stage_plan())
            assert plan["kernel:tri"] == "gpu:0"
            assert plan["kernel:path"] == "gpu:1"
            assert plan["kernel:paper"] == "gpu:0"
            assert plan["refresh:shard0"] == "cpu:0"
            assert plan["refresh:shard1"] == "cpu:1"
            reports, pipeline = svc.process_stream(batches[:2])
            assert len(reports) == 2
            assert pipeline.makespan > 0
            for resource in ("gpu:0", "gpu:1", "cpu:0", "cpu:1"):
                assert resource in pipeline.per_resource_busy
            # per-shard stages run as fork-join groups: the modeled
            # makespan beats pricing every stage on shared resources
            assert pipeline.makespan < pipeline.serial_total
        finally:
            svc.close()

    def test_worker_registration_after_batches(self, workload):
        g, batches = workload
        svc = make_sharded(g)
        try:
            svc.process_batch(batches[0])
            name = svc.register_query(TRI_Q, WBMConfig(), name="late")
            shadow = g.copy()
            apply_batch(shadow, batches[0])
            assert svc.matches(name) == find_matches(TRI_Q, shadow)
            svc.process_batch(batches[1])
            apply_batch(shadow, batches[1])
            assert svc.matches(name) == find_matches(TRI_Q, shadow)
            svc.unregister_query(name)
            assert "late" not in svc.query_names
        finally:
            svc.close()


# ---------------------------------------------------------------------------
# chaos: process-level faults, supervision, recovery
# ---------------------------------------------------------------------------
class TestChaos:
    RECOVERABLE_SITES = (
        "worker.batch.abort",
        "worker.batch.hang",
        "worker.ipc.torn",
        "worker.snapshot.stale",
    )

    def _run(self, g, batches, plan, **kwargs):
        svc = make_sharded(g, faults=plan, **kwargs)
        try:
            reports = [svc.process_batch(b) for b in batches]
            finals = {}
            for name, _ in QUERIES:
                try:
                    finals[name] = svc.matches(name)
                except QueryQuarantinedError as err:
                    finals[name] = err
            return reports, finals, svc.shard_health()
        finally:
            svc.close()

    @pytest.mark.parametrize("site", RECOVERABLE_SITES)
    def test_shard_fault_recovers_within_one_batch(self, workload, baseline, site):
        g, batches = workload
        base_reports, base_finals = baseline
        policy = (
            ShardPolicy(n_workers=2, heartbeat_timeout_s=1.5, batch_deadline_s=20.0)
            if site == "worker.batch.hang"
            else None
        )
        plan = FaultPlan([FaultSpec(site, 1, query="shard0")])
        reports, finals, shard_health = self._run(
            g, batches, plan, shard_policy=policy
        )
        seq = [r.shard_health["shard0"] for r in reports]
        assert seq == ["ok", "quarantined", "ok", "ok"], (site, seq)
        # the faulted batch quarantines exactly the shard's queries
        assert reports[1].queries["tri"].health == "quarantined"
        assert reports[1].queries["paper"].health == "quarantined"
        assert reports[1].queries["tri"].error is not None
        # the healthy shard is byte-identical in EVERY batch, including
        # the faulted one
        for base, rep in zip(base_reports, reports):
            assert rep.shard_health["shard1"] == "ok"
            for name in ("path", "path2"):
                assert_query_identical(base, rep, name)
        # post-respawn batches are byte-identical again
        for i in (2, 3):
            for name, _ in QUERIES:
                assert_query_identical(base_reports[i], reports[i], name)
        # the re-bootstrap re-anchored the match views exactly
        assert finals == base_finals
        assert shard_health == {"shard0": "ok", "shard1": "ok"}

    def test_duplicated_reply_is_tolerated(self, workload, baseline):
        g, batches = workload
        base_reports, base_finals = baseline
        plan = FaultPlan([FaultSpec("worker.ipc.dup", 1, query="shard0")])
        reports, finals, _ = self._run(g, batches, plan)
        assert [r.shard_health["shard0"] for r in reports] == ["ok"] * 4
        for base, rep in zip(base_reports, reports):
            for name, _ in QUERIES:
                assert_query_identical(base, rep, name)
        assert finals == base_finals

    def test_respawn_retries_through_bootstrap_fault(self, workload, baseline):
        """Kill the worker, then fail its first respawn's bootstrap too:
        the bounded retry loop eats both and recovers in the same batch."""
        g, batches = workload
        base_reports, base_finals = baseline
        plan = FaultPlan(
            [
                FaultSpec("worker.batch.abort", 1, query="shard0"),
                # occurrence 1 = the first respawn (spawn 0 was init)
                FaultSpec("worker.bootstrap", 1, query="shard0"),
            ]
        )
        reports, finals, shard_health = self._run(g, batches, plan)
        seq = [r.shard_health["shard0"] for r in reports]
        assert seq == ["ok", "quarantined", "ok", "ok"], seq
        assert finals == base_finals
        assert shard_health["shard0"] == "ok"

    def test_exhaustion_latches_then_degrades_to_inprocess(self, workload, baseline):
        g, batches = workload
        base_reports, base_finals = baseline
        plan = FaultPlan(
            [FaultSpec("worker.batch.abort", 1, query="shard0")]
            + [FaultSpec("shard.respawn", k, query="shard0") for k in range(2)]
        )
        reports, finals, shard_health = self._run(
            g,
            batches,
            plan,
            shard_policy=ShardPolicy(
                n_workers=2, max_respawns=2, degrade_to_inprocess=True
            ),
        )
        seq = [r.shard_health["shard0"] for r in reports]
        assert seq == ["ok", "quarantined", "degraded", "degraded"], seq
        assert [s.site for s in plan.fired].count("shard.respawn") == 2
        assert shard_health["shard0"] == "degraded"
        # degraded queries keep serving, byte-identical from the
        # re-anchored boundary
        for i in (2, 3):
            for name, _ in QUERIES:
                assert_query_identical(base_reports[i], reports[i], name)
        assert finals == base_finals

    def test_exhaustion_without_degrade_stays_quarantined(self, workload, baseline):
        g, batches = workload
        _, base_finals = baseline
        plan = FaultPlan(
            [FaultSpec("worker.batch.abort", 1, query="shard0")]
            + [FaultSpec("shard.respawn", k, query="shard0") for k in range(2)]
        )
        reports, finals, shard_health = self._run(
            g,
            batches,
            plan,
            shard_policy=ShardPolicy(
                n_workers=2, max_respawns=2, degrade_to_inprocess=False
            ),
        )
        assert [r.shard_health["shard0"] for r in reports] == [
            "ok",
            "quarantined",
            "quarantined",
            "quarantined",
        ]
        assert isinstance(finals["tri"], QueryQuarantinedError)
        assert isinstance(finals["paper"], QueryQuarantinedError)
        # the healthy shard's queries are untouched
        assert finals["path"] == base_finals["path"]
        assert finals["path2"] == base_finals["path2"]
        assert shard_health == {"shard0": "quarantined", "shard1": "ok"}

    def test_worker_query_fault_matches_single_process_lifecycle(self, workload):
        """A per-query fault inside a worker produces the same per-batch
        reports (health rows, stats, recovery timing) as the identical
        fault schedule on single-process serving."""
        g, batches = workload
        specs = [FaultSpec("runtime.launch", 1, query="tri")]
        base = MatchingService(g, params=PARAMS, faults=FaultPlan(specs))
        for name, q in QUERIES:
            base.register_query(q, WBMConfig(), name=name)
        base_reports = [base.process_batch(b) for b in batches]
        svc = make_sharded(g, faults=FaultPlan(specs))
        try:
            reports = [svc.process_batch(b) for b in batches]
            for i, (b_rep, s_rep) in enumerate(zip(base_reports, reports)):
                assert s_rep.shard_health == {"shard0": "ok", "shard1": "ok"}, i
                assert s_rep.health == b_rep.health, i
                for name, _ in QUERIES:
                    if b_rep.queries[name].health == "quarantined":
                        assert s_rep.queries[name].health == "quarantined"
                        continue
                    assert_query_identical(b_rep, s_rep, name)
            assert svc.matches("tri") == base.matches("tri")
            assert svc.query_health("tri") == base.query_health("tri") == "ok"
        finally:
            svc.close()

    def test_unregister_on_quarantined_shard_requires_force(self, workload):
        g, batches = workload
        plan = FaultPlan(
            [FaultSpec("worker.batch.abort", 0, query="shard0")]
            + [FaultSpec("shard.respawn", k, query="shard0") for k in range(2)]
        )
        svc = make_sharded(
            g,
            faults=plan,
            shard_policy=ShardPolicy(
                n_workers=2, max_respawns=2, degrade_to_inprocess=False
            ),
        )
        try:
            svc.process_batch(batches[0])
            assert svc.shard_health()["shard0"] == "quarantined"
            with pytest.raises(QueryQuarantinedError):
                svc.unregister_query("tri")
            svc.unregister_query("tri", force=True)
            assert "tri" not in svc.query_names
            # registration avoids the quarantined shard
            assert svc.register_query(TRI_Q, WBMConfig(), name="tri2") == "tri2"
            assert svc.shard_of("tri2") == "shard1"
        finally:
            svc.close()

    def test_seeded_worker_chaos_never_raises(self, workload, baseline):
        """Randomized-but-reproducible process-level chaos: the service
        never raises to the caller, every healthy query's batch result
        is byte-identical to single-process serving, a quarantined
        shard serves again on the next batch, and healthy shards stay
        consistent."""
        g, batches = workload
        base_reports, _ = baseline
        plan = FaultPlan.seeded(
            41,
            sites=("worker.batch.abort", "worker.ipc.torn", "worker.snapshot.stale"),
            n_faults=3,
            horizon=3,
            queries=("shard0", "shard1"),
            kinds=("injected",),
            min_spacing=1,
        )
        svc = make_sharded(g, faults=plan)
        try:
            saw_fault = False
            reports = []
            for base, batch in zip(base_reports, batches):
                report = svc.process_batch(batch)
                reports.append(report)
                for shard, state in report.shard_health.items():
                    assert state in ("ok", "quarantined", "recovered")
                    saw_fault |= state == "quarantined"
                for name, _ in QUERIES:
                    if report.queries[name].health != "quarantined":
                        assert_query_identical(base, report, name)
            assert saw_fault, "seeded schedule never fired — vacuous"
            for before, after in zip(reports, reports[1:]):
                for shard, state in before.shard_health.items():
                    if state == "quarantined":
                        assert after.shard_health[shard] in ("recovered", "ok"), shard
            shadow = g.copy()
            for batch in batches:
                apply_batch(shadow, batch)
            for name, q in QUERIES:
                if svc.query_health(name) == "ok":
                    assert svc.matches(name) == find_matches(q, shadow), name
        finally:
            svc.close()


# ---------------------------------------------------------------------------
# PR-8 test gap: AttachedSnapshot unlink ordering under mid-batch faults
# ---------------------------------------------------------------------------
class TestSnapshotUnlinkOrdering:
    """The parent retires the previous batch's shared segment only at
    the very end of ``process_batch`` — after reply collection, any
    mid-batch respawn (which re-attaches the *current* handle), and any
    degrade-to-in-process transition. These spies pin that ordering:
    no unlink ever targets the live handle, the live handle stays
    attachable at every unlink point, and every published segment is
    unlinked exactly once by ``close()``.
    """

    def _install_spies(self, monkeypatch):
        import repro.service.sharded as sharded_mod

        state = {
            "published": [],
            "unlinked": [],
            "svc": None,
            "in_batch": False,
        }
        real_publish = sharded_mod.publish_snapshot
        real_unlink = sharded_mod.unlink_snapshot

        def spy_publish(arrays, version):
            handle = real_publish(arrays, version=version)
            state["published"].append(handle.shm_name)
            return handle

        def spy_unlink(handle):
            svc = state["svc"]
            if state["in_batch"] and svc is not None:
                live = svc._handle
                # never the currently-published segment: a respawned
                # worker or a late reply may still need to attach it
                assert handle.shm_name != live.shm_name
                attached = AttachedSnapshot(live)
                try:
                    assert attached.version == live.version
                finally:
                    attached.close()
            # never the same segment twice
            assert handle.shm_name not in state["unlinked"]
            state["unlinked"].append(handle.shm_name)
            real_unlink(handle)

        monkeypatch.setattr(sharded_mod, "publish_snapshot", spy_publish)
        monkeypatch.setattr(sharded_mod, "unlink_snapshot", spy_unlink)
        return state

    def _run_with_spies(self, g, batches, plan, shard_policy, monkeypatch):
        state = self._install_spies(monkeypatch)
        svc = make_sharded(g, faults=plan, shard_policy=shard_policy)
        state["svc"] = svc
        try:
            reports = []
            for batch in batches:
                state["in_batch"] = True
                try:
                    reports.append(svc.process_batch(batch))
                finally:
                    state["in_batch"] = False
            finals = {}
            for name, _ in QUERIES:
                try:
                    finals[name] = svc.matches(name)
                except QueryQuarantinedError as err:
                    finals[name] = err
        finally:
            svc.close()
        return state, reports, finals

    def test_respawn_midbatch_keeps_live_segment(
        self, workload, baseline, monkeypatch
    ):
        """A worker abort mid-batch triggers a same-batch respawn whose
        re-bootstrap attaches the current snapshot — the previous
        segment's retirement must not race it."""
        g, batches = workload
        base_reports, base_finals = baseline
        plan = FaultPlan([FaultSpec("worker.batch.abort", 1, query="shard0")])
        state, reports, finals = self._run_with_spies(
            g, batches, plan, None, monkeypatch
        )
        assert [r.shard_health["shard0"] for r in reports] == [
            "ok",
            "quarantined",
            "ok",
            "ok",
        ]
        # ordering held (the spy asserts at each unlink), recovery is
        # byte-identical, and no segment leaked or double-freed
        assert finals == base_finals
        assert sorted(state["unlinked"]) == sorted(state["published"])

    def test_degraded_shard_never_loses_its_segment(
        self, workload, baseline, monkeypatch
    ):
        """Respawn exhaustion mid-batch degrades the shard to
        in-process serving; the parent must not unlink a segment the
        shard could still reference while the transition is in flight,
        and the degraded queries keep serving correctly afterwards."""
        g, batches = workload
        _, base_finals = baseline
        plan = FaultPlan(
            [FaultSpec("worker.batch.abort", 1, query="shard0")]
            + [FaultSpec("shard.respawn", k, query="shard0") for k in range(2)]
        )
        state, reports, finals = self._run_with_spies(
            g,
            batches,
            plan,
            ShardPolicy(n_workers=2, max_respawns=2, degrade_to_inprocess=True),
            monkeypatch,
        )
        assert [r.shard_health["shard0"] for r in reports] == [
            "ok",
            "quarantined",
            "degraded",
            "degraded",
        ]
        # the degraded shard's queries are correct from the re-anchored
        # boundary — they survived the segment retirements
        assert finals == base_finals
        assert sorted(state["unlinked"]) == sorted(state["published"])


# ---------------------------------------------------------------------------
# one protocol over every host kind: defects propagate, API contract matches
# ---------------------------------------------------------------------------
HOST_KINDS = ("in_process", "fork_worker", "degraded_shard")


def _degraded_shard0(g, batches):
    """A 2-worker fork service whose shard0 latched and now runs its
    queries in-process; ``batches[0]`` is consumed getting there."""
    plan = FaultPlan(
        [FaultSpec("worker.batch.abort", 0, query="shard0")]
        + [FaultSpec("shard.respawn", k, query="shard0") for k in range(2)]
    )
    svc = make_sharded(
        g,
        faults=plan,
        shard_policy=ShardPolicy(n_workers=2, max_respawns=2, degrade_to_inprocess=True),
    )
    svc.process_batch(batches[0])
    assert svc.shard_health()["shard0"] == "degraded"
    return svc


class TestDefectPropagation:
    """A strict-backend escape is a kernel defect, not a fault: every
    host kind re-raises it from ``process_batch`` instead of
    quarantining the query (fork workers inherit the planted method)."""

    @pytest.mark.parametrize("method", ["launch", "observe_commit"])
    @pytest.mark.parametrize("host_kind", HOST_KINDS)
    def test_scalar_escape_propagates(self, workload, monkeypatch, host_kind, method):
        from repro import xp
        from repro.matching import QueryRuntime

        g, batches = workload

        def escape(self, *args, **kwargs):
            raise xp.ScalarEscapeError(f"planted escape in QueryRuntime.{method}")

        if host_kind == "in_process":
            monkeypatch.setattr(QueryRuntime, method, escape)
            svc = MatchingService(g, params=PARAMS)
            for name, q in QUERIES:
                svc.register_query(q, WBMConfig(), name=name)
            with pytest.raises(xp.ScalarEscapeError, match="planted"):
                svc.process_batch(batches[0])
            return
        if host_kind == "fork_worker":
            monkeypatch.setattr(QueryRuntime, method, escape)
            svc = make_sharded(g)
            batch = batches[0]
        else:
            svc = _degraded_shard0(g, batches)
            monkeypatch.setattr(QueryRuntime, method, escape)  # parent only
            batch = batches[1]
        try:
            with pytest.raises(xp.ScalarEscapeError, match="planted"):
                svc.process_batch(batch)
        finally:
            svc.close()


@pytest.fixture(params=["in_process", "sharded"])
def make_service(request):
    """Build either service over the same graph and options."""
    built = []

    def make(g, **kwargs):
        if request.param == "in_process":
            return MatchingService(g, params=PARAMS, **kwargs)
        svc = ShardedMatchingService(
            g,
            params=PARAMS,
            shard_policy=ShardPolicy(n_workers=2, heartbeat_timeout_s=5.0, batch_deadline_s=30.0),
            **kwargs,
        )
        built.append(svc)
        return svc

    yield make
    for svc in built:
        svc.close()


class TestApiParity:
    """The registration / read / recovery contract is the same whether
    queries run in-process or in worker processes."""

    def test_name_collision_and_unknown_names(self, workload, make_service):
        g, _ = workload
        svc = make_service(g)
        assert svc.register_query(TRI_Q, WBMConfig(), name="a") == "a"
        with pytest.raises(ServiceError, match="'a' already registered"):
            svc.register_query(PATH_Q, WBMConfig(), name="a")
        assert svc.register_query(PATH_Q, WBMConfig()) == "q1"
        for call in (svc.matches, svc.query_health, svc.unregister_query):
            with pytest.raises(ServiceError, match="ghost"):
                call("ghost")

    def test_quarantine_unregister_and_rebootstrap_lifecycle(self, workload, make_service):
        g, batches = workload
        plan = FaultPlan(
            [FaultSpec("runtime.launch", 0, query="tri"), FaultSpec("runtime.launch", 0, query="path")]
        )
        svc = make_service(g, faults=plan, policy=ResiliencePolicy(cooldown_batches=1))
        for name, q in QUERIES:
            svc.register_query(q, WBMConfig(), name=name)

        rep = svc.process_batch(batches[0])
        assert rep.health == {
            "tri": "quarantined", "path": "quarantined", "paper": "ok", "path2": "ok"
        }
        assert rep.queries["tri"].error.startswith("InjectedFault")
        assert svc.query_health("tri") == "quarantined"
        with pytest.raises(QueryQuarantinedError, match="InjectedFault"):
            svc.matches("tri")
        # the breaker's evidence rides the refusal
        with pytest.raises(QueryQuarantinedError, match="force=True; InjectedFault"):
            svc.unregister_query("path")
        assert "path" in svc.query_names
        svc.unregister_query("path", force=True)
        assert "path" not in svc.query_names

        # cooldown elapsed: a full re-bootstrap at the current boundary
        rep = svc.process_batch(batches[1])
        assert rep.health == {"tri": "recovered", "paper": "ok", "path2": "ok"}
        assert svc.query_health("tri") == "ok"
        rep = svc.process_batch(batches[2])
        assert rep.health == {"tri": "ok", "paper": "ok", "path2": "ok"}
        shadow = g.copy()
        for batch in batches[:3]:
            apply_batch(shadow, batch)
        for name, q in QUERIES:
            if name != "path":
                assert svc.matches(name) == find_matches(q, shadow), name

    def test_recovered_query_keeps_its_plan(self, workload, baseline, make_service):
        """Recovery rebuilds the candidate table but keeps the plan
        gated at registration: on this workload a plan re-gated after
        batch 0 coalesces "paper"'s kernels, which keeps the matches
        but changes its KernelStats."""
        g, batches = workload
        base_reports, _ = baseline
        plan = FaultPlan([FaultSpec("runtime.launch", 0, query="paper")])
        svc = make_service(g, faults=plan, policy=ResiliencePolicy(cooldown_batches=1))
        for name, q in QUERIES:
            svc.register_query(q, WBMConfig(), name=name)
        health = []
        for base, batch in zip(base_reports, batches):
            rep = svc.process_batch(batch)
            health.append(rep.health["paper"])
            for name, _ in QUERIES:
                if rep.health[name] != "quarantined":
                    assert_query_identical(base, rep, name)
        assert health == ["quarantined", "recovered", "ok", "ok"]
