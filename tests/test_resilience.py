"""Fault-isolated serving: rollback, quarantine, and the chaos suite.

The contracts under test (ISSUE 7):

* ``DynamicGraphStore.commit`` is transactional — a failure at any
  injection site restores the pre-batch boundary byte-for-byte, and a
  completed commit can be undone with ``rollback`` (randomized
  property test over both execution arms).
* A fault inside one query's launch/observe quarantines that query
  behind its circuit breaker; healthy queries' matches and
  ``KernelStats`` stay **byte-identical** to a fault-free run, and
  quarantined queries recover within the configured cooldown.
* Under seeded chaos schedules the service never raises to the caller
  and the store passes ``check_consistency`` after every batch.

All fault schedules are deterministic (``FaultPlan`` with fixed seeds)
— a failure here replays exactly.
"""

import random

import numpy as np
import pytest

from repro.errors import (
    InjectedFault,
    MatchingError,
    QueryQuarantinedError,
    ReproError,
    ServiceError,
    UpdateError,
)
from repro.graph import LabeledGraph
from repro.graph.generators import attach_labels, power_law_graph
from repro.graph.updates import apply_batch, make_batch
from repro.gpu import DeviceParams
from repro.matching import find_matches
from repro.service import (
    DynamicGraphStore,
    MatchingService,
    ResiliencePolicy,
)
from repro.testing import FAULT_SITES, FaultPlan, FaultSpec

PARAMS = DeviceParams(num_sms=2, warps_per_block=4)
PAPER_Q = LabeledGraph.from_edges([0, 1, 1, 2], [(0, 1), (0, 2), (1, 2), (1, 3)])
TRI_Q = LabeledGraph.from_edges([0, 1, 1], [(0, 1), (0, 2), (1, 2)])
PATH_Q = LabeledGraph.from_edges([0, 1, 0], [(0, 1), (1, 2)])

STORE_SITES = (
    "store.prepare",
    "store.commit.gpma",
    "store.commit.graph",
    "store.commit.encoding",
    "gpma.apply",
    "gpma.mid",
)
QUERY_SITES = ("runtime.launch", "runtime.observe", "runtime.observe.mid")


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
    return g, batches


def store_fingerprint(store: DynamicGraphStore) -> dict:
    """Byte-level snapshot of everything a rollback must restore."""
    csr = store.csr_snapshot()
    return {
        "graph": store.graph.copy(),
        "version": store.version,
        "packed": store.encodings.packed.copy(),
        "enc_version": store.encodings.version,
        "offsets": csr.offsets.copy(),
        "neighbors": csr.neighbors.copy(),
        "edge_labels": csr.edge_labels.copy(),
        "vertex_labels": csr.vertex_labels.copy(),
        "gpma_edges": store.gpma.n_edges,
        "update_count": store.gpma.update_count,
        "gpma_n_vertices": store.gpma.n_vertices,
    }


def assert_fingerprint_equal(a: dict, b: dict) -> None:
    assert a["graph"] == b["graph"]
    assert a["version"] == b["version"]
    assert a["enc_version"] == b["enc_version"]
    assert np.array_equal(a["packed"], b["packed"])
    for key in ("offsets", "neighbors", "edge_labels", "vertex_labels"):
        assert np.array_equal(a[key], b[key]), key
    assert a["gpma_edges"] == b["gpma_edges"]
    assert a["update_count"] == b["update_count"]
    assert a["gpma_n_vertices"] == b["gpma_n_vertices"]


class TestRollbackProperty:
    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("seed", [3, 9, 21])
    def test_commit_rollback_restores_bytes(self, seed, vectorized):
        """apply batch → rollback → store/CSR/encoding byte-identical
        to the pre-batch snapshots, across a whole randomized stream
        (each batch is rolled back, audited, then re-applied)."""
        g, batches = make_stream(seed)
        store = DynamicGraphStore(g, PARAMS, vectorized=vectorized)
        for batch in batches:
            before = store_fingerprint(store)
            commit = store.process(batch)
            store.check_consistency()
            store.rollback(commit)
            store.check_consistency()
            assert_fingerprint_equal(store_fingerprint(store), before)
            # rolling forward again must still be clean
            store.process(batch)
            store.check_consistency()

    def test_noop_commit_rollback(self):
        g, _ = make_stream(5)
        store = DynamicGraphStore(g, PARAMS)
        u, v = next(
            (u, v)
            for u in range(g.n_vertices)
            for v in range(u + 1, g.n_vertices)
            if not g.has_edge(u, v)
        )
        before = store_fingerprint(store)
        commit = store.process(make_batch([("+", u, v), ("-", u, v)]))
        assert commit.is_noop
        store.rollback(commit)
        store.check_consistency()
        assert_fingerprint_equal(store_fingerprint(store), before)

    def test_only_latest_commit_rolls_back(self):
        g, batches = make_stream(7)
        store = DynamicGraphStore(g, PARAMS)
        stale = store.process(batches[0])
        store.process(batches[1])
        with pytest.raises(ServiceError):
            store.rollback(stale)

    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("site", STORE_SITES)
    def test_mid_commit_fault_restores_boundary(self, site, vectorized):
        """A fault at any store/GPMA site leaves the pre-batch boundary
        intact (and consistent); the bounded retry then lands the same
        delta cleanly."""
        g, batches = make_stream(11)
        plan = FaultPlan((FaultSpec(site, 1, kind="pma"),))
        store = DynamicGraphStore(g, PARAMS, vectorized=vectorized, faults=plan)
        store.process(batches[0])
        before = store_fingerprint(store)
        with pytest.raises(ReproError):
            store.process(batches[1])
        store.check_consistency()
        assert_fingerprint_equal(store_fingerprint(store), before)
        assert plan.fired and plan.fired[0].site == site
        # the fault was one-shot: the retry commits the identical delta
        store.process(batches[1])
        store.check_consistency()
        shadow = g.copy()
        apply_batch(shadow, batches[0])
        apply_batch(shadow, batches[1])
        assert store.graph == shadow


def _service_pair(seed, *, faults=None, policy=None, n=22, n_batches=4):
    """A (reference, subject) pair over identical graph/stream/queries."""
    g, batches = make_stream(seed, n=n, n_batches=n_batches)
    queries = {"q0": PAPER_Q, "q1": TRI_Q, "q2": PATH_Q}
    ref = MatchingService(g, params=PARAMS)
    sub = MatchingService(g, params=PARAMS, faults=faults, policy=policy)
    for name, q in queries.items():
        ref.register_query(q, name=name)
        sub.register_query(q, name=name)
    return g, batches, queries, ref, sub


def _result_key(qrep):
    return (qrep.result.positives, qrep.result.negatives, qrep.result.kernel_stats)


class TestQuarantineLifecycle:
    def test_empty_plan_is_byte_identical(self):
        """Armed guards that never fire (an empty plan threaded through
        every site hook, a non-default policy) change nothing: every
        batch's matches and KernelStats equal the unguarded run."""
        policy = ResiliencePolicy(cooldown_batches=1, max_retries=5, store_retries=1)
        _, batches, queries, ref, sub = _service_pair(
            43, faults=FaultPlan(()), policy=policy
        )
        for batch in batches:
            ref_rep = ref.process_batch(batch)
            rep = sub.process_batch(batch)
            assert rep.failure is None and not rep.rolled_back
            for name in queries:
                assert rep.health[name] == "ok"
                assert _result_key(rep.queries[name]) == _result_key(ref_rep.queries[name])
        assert not sub.store.faults.fired

    def test_launch_fault_quarantines_only_that_query(self):
        _, batches, _, ref, sub = _service_pair(
            31, faults=FaultPlan((FaultSpec("runtime.launch", 0, query="q1"),))
        )
        ref_rep = ref.process_batch(batches[0])
        rep = sub.process_batch(batches[0])
        assert rep.health["q1"] == "quarantined"
        assert rep.queries["q1"].error is not None
        assert not rep.queries["q1"].result.positives
        # healthy queries: byte-identical matches and kernel stats
        for name in ("q0", "q2"):
            assert rep.health[name] == "ok"
            assert _result_key(rep.queries[name]) == _result_key(ref_rep.queries[name])
        with pytest.raises(QueryQuarantinedError):
            sub.matches("q1")
        sub.matches("q0")  # healthy reads still served

    def test_quarantined_query_recovers_after_cooldown(self):
        _, batches, queries, ref, sub = _service_pair(
            33, faults=FaultPlan((FaultSpec("runtime.observe", 0, query="q0"),))
        )
        histories = {name: [] for name in queries}
        for batch in batches:
            ref.process_batch(batch)
            rep = sub.process_batch(batch)
            for name in queries:
                histories[name].append(rep.health[name])
        assert histories["q0"][0] == "quarantined"
        assert histories["q0"][1] == "recovered"  # default cooldown = 1 batch
        assert histories["q0"][2:] == ["ok"] * (len(batches) - 2)
        # after recovery the re-bootstrapped view converges to the oracle
        for name in queries:
            assert sub.matches(name) == ref.matches(name)
            assert sub.matches(name) == find_matches(queries[name], sub.graph)

    def test_retry_exhaustion_latches_breaker(self):
        # the initial trip plus every re-bootstrap attempt fails
        specs = [FaultSpec("runtime.launch", 0, query="q1")]
        specs += [FaultSpec("runtime.bootstrap", i, query="q1") for i in range(2)]
        policy = ResiliencePolicy(cooldown_batches=1, max_retries=2)
        _, batches, _, _, sub = _service_pair(
            35, faults=FaultPlan(tuple(specs)), policy=policy, n_batches=6
        )
        for batch in batches:
            sub.process_batch(batch)
        assert sub.query_health("q1") == "quarantined"
        assert sub.breaker.is_latched("q1")
        rec = sub.breaker.record("q1")
        assert rec.retries == 2 and rec.failures == 3
        with pytest.raises(QueryQuarantinedError):
            sub.unregister_query("q1")
        sub.unregister_query("q1", force=True)
        assert "q1" not in sub.query_names
        # the name is free again and a fresh registration starts healthy
        sub.register_query(TRI_Q, name="q1")
        assert sub.query_health("q1") == "ok"

    def test_degraded_launch_matches_fault_free_run(self):
        """With degrade_to_scalar, a vectorized-arm fault reruns that
        one launch on the scalar oracle: same matches, same stats, no
        quarantine — only the health row records it."""
        policy = ResiliencePolicy(degrade_to_scalar=True)
        _, batches, queries, ref, sub = _service_pair(
            37,
            faults=FaultPlan((FaultSpec("runtime.launch", 1, query="q0"),)),
            policy=policy,
        )
        degraded_seen = 0
        for batch in batches:
            ref_rep = ref.process_batch(batch)
            rep = sub.process_batch(batch)
            for name in queries:
                assert _result_key(rep.queries[name]) == _result_key(
                    ref_rep.queries[name]
                )
                assert rep.health[name] in ("ok", "degraded")
            degraded_seen += sum(1 for h in rep.health.values() if h == "degraded")
        assert degraded_seen == 1
        assert sub.breaker.record("q0").degraded_batches == 1
        for name in queries:
            assert sub.matches(name) == ref.matches(name)

    def test_store_fault_retries_transparently(self):
        """A one-shot commit fault rolls back and retries inside the
        same process_batch call: the caller sees a normal report and
        every query's results are byte-identical to fault-free."""
        _, batches, queries, ref, sub = _service_pair(
            39, faults=FaultPlan((FaultSpec("store.commit.graph", 1, kind="runtime"),))
        )
        for batch in batches:
            ref_rep = ref.process_batch(batch)
            rep = sub.process_batch(batch)
            assert rep.failure is None and not rep.rolled_back
            for name in queries:
                assert _result_key(rep.queries[name]) == _result_key(ref_rep.queries[name])
        assert len(sub.store.faults.fired) == 1

    def test_store_retry_exhaustion_drops_batch_at_boundary(self):
        """Back-to-back commit faults beyond store_retries drop the
        batch: the report says so, the store sits at the pre-batch
        boundary, and the next batch proceeds for every query."""
        specs = tuple(
            FaultSpec("store.commit.gpma", i, kind="device_memory") for i in range(2)
        )
        policy = ResiliencePolicy(store_retries=1)
        g, batches, queries, ref, sub = _service_pair(
            41, faults=FaultPlan(specs), policy=policy
        )
        before = store_fingerprint(sub.store)
        rep = sub.process_batch(batches[0])
        assert rep.rolled_back and rep.failure is not None and rep.aborted
        assert rep.total_seconds == 0.0
        sub.store.check_consistency()
        assert_fingerprint_equal(store_fingerprint(sub.store), before)
        assert all(h == "ok" for h in rep.health.values())
        # the schedule is exhausted (both specs burned on batch 1's two
        # attempts): batch 2 arrives at occurrence 2+ and commits fine
        rep2 = sub.process_batch(batches[1])
        assert rep2.failure is None
        shadow = g.copy()
        apply_batch(shadow, batches[1])
        assert sub.graph == shadow
        for name in queries:
            assert sub.matches(name) == find_matches(queries[name], shadow)

    def test_invalid_batch_still_raises(self):
        """Caller misuse is not a fault: inserting an existing edge
        propagates UpdateError even under the isolation envelope."""
        g, _ = make_stream(43)
        service = MatchingService(g, params=PARAMS)
        service.register_query(TRI_Q, name="q0")
        u, v = next(iter(g.edges()))
        with pytest.raises(UpdateError):
            service.process_batch(make_batch([("+", u, v)]))


class TestObserveOrdering:
    def test_mid_loop_observe_fault_does_not_strand_later_runtimes(self):
        """q1 (registered between q0 and q2) faults in observe_commit;
        q2 must still observe the commit — no runtime may end the batch
        on a version another one never saw."""
        _, batches, _, ref, sub = _service_pair(
            45, faults=FaultPlan((FaultSpec("runtime.observe", 0, query="q1"),))
        )
        ref_rep = ref.process_batch(batches[0])
        rep = sub.process_batch(batches[0])
        assert rep.health == {"q0": "ok", "q1": "quarantined", "q2": "ok"}
        for name in ("q0", "q2"):
            assert sub.runtime(name).synced_version == sub.store.version
            assert _result_key(rep.queries[name]) == _result_key(ref_rep.queries[name])
        # next batch proceeds for the healthy pair without sync errors
        rep2 = sub.process_batch(batches[1])
        assert rep2.health["q0"] == "ok" and rep2.health["q2"] == "ok"

    def test_observe_mid_fault_quarantines_before_version_sync(self):
        """A fault after the row refresh but before the version sync
        leaves the runtime stale — recovery must go through the full
        re-bootstrap, not a silent resync."""
        _, batches, queries, ref, sub = _service_pair(
            47, faults=FaultPlan((FaultSpec("runtime.observe.mid", 0, query="q2"),))
        )
        rep = sub.process_batch(batches[0])
        ref.process_batch(batches[0])
        assert rep.health["q2"] == "quarantined"
        assert sub.runtime("q2").synced_version != sub.store.version
        rep2 = sub.process_batch(batches[1])
        ref.process_batch(batches[1])
        assert rep2.health["q2"] == "recovered"
        assert sub.runtime("q2").synced_version == sub.store.version
        assert sub.matches("q2") == ref.matches("q2")


class TestRegistrationGuards:
    def test_name_collisions_raise_service_error_with_name(self):
        g, _ = make_stream(49)
        service = MatchingService(g, params=PARAMS)
        service.register_query(PAPER_Q, name="q0")
        with pytest.raises(ServiceError, match="q0"):
            service.register_query(TRI_Q, name="q0")
        with pytest.raises(ServiceError, match="ghost"):
            service.unregister_query("ghost")

    def test_service_errors_remain_matching_errors(self):
        """Compatibility: callers catching MatchingError keep working."""
        assert issubclass(ServiceError, MatchingError)
        assert issubclass(QueryQuarantinedError, ServiceError)


class TestChaos:
    """Randomized fault schedules over mixed streams, fixed seeds."""

    #: seeds chosen so no schedule exhausts the store retries (batch
    #: drops would legitimately fork graph evolution from the
    #: reference run; dedicated drop coverage lives above)
    SEEDS = [101, 202, 303, 432]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_schedule_isolation_and_recovery(self, seed):
        policy = ResiliencePolicy(cooldown_batches=1, max_retries=5, store_retries=2)
        plan = FaultPlan.seeded(
            seed,
            sites=STORE_SITES + QUERY_SITES + ("runtime.bootstrap",),
            n_faults=6,
            horizon=10,
            queries=("q0", "q1", "q2"),
            min_spacing=3,
        )
        _, batches, queries, ref, sub = _service_pair(
            seed, faults=plan, policy=policy, n_batches=6
        )
        ref_reports, sub_reports = [], []
        for batch in batches:
            ref_reports.append(ref.process_batch(batch))
            # the contract: never raises, whatever the schedule injects
            sub_reports.append(sub.process_batch(batch))
            sub.store.check_consistency()

        assert plan.fired, "schedule never fired — dead chaos test"
        # no batch dropped for these seeds: graph evolution identical
        assert all(r.failure is None for r in sub_reports)
        assert sub.graph == ref.graph

        histories = {
            name: [r.health[name] for r in sub_reports] for name in queries
        }
        for name, hist in histories.items():
            # healthy batches are byte-identical to the fault-free run
            for i, state in enumerate(hist):
                if state in ("ok", "degraded", "recovered"):
                    assert _result_key(sub_reports[i].queries[name]) == _result_key(
                        ref_reports[i].queries[name]
                    ), (name, i)
            # every quarantine episode recovers within the bound
            # cooldown × (max_retries + 1), unless it runs into the end
            # of the stream
            bound = policy.cooldown_batches * (policy.max_retries + 1)
            i = 0
            while i < len(hist):
                if hist[i] == "quarantined":
                    j = i
                    while j < len(hist) and hist[j] == "quarantined":
                        j += 1
                    if j < len(hist):
                        assert hist[j] == "recovered"
                        assert j - i <= bound, (name, hist)
                    i = j
                else:
                    i += 1
        # end-state: every query healthy at stream end agrees with the
        # static oracle on the final graph
        for name, q in queries.items():
            if histories[name][-1] != "quarantined":
                assert sub.matches(name) == find_matches(q, sub.graph)

    def test_chaos_schedules_exercise_recovery(self):
        """Across the fixed seeds at least one query actually goes
        through quarantine → recovery (guards against a chaos suite
        that silently stopped injecting)."""
        recovered = 0
        for seed in self.SEEDS:
            policy = ResiliencePolicy(cooldown_batches=1, max_retries=5, store_retries=2)
            plan = FaultPlan.seeded(
                seed,
                sites=STORE_SITES + QUERY_SITES + ("runtime.bootstrap",),
                n_faults=6,
                horizon=10,
                queries=("q0", "q1", "q2"),
                min_spacing=3,
            )
            _, batches, _, _, sub = _service_pair(
                seed, faults=plan, policy=policy, n_batches=6
            )
            reports = [sub.process_batch(b) for b in batches]
            recovered += sum(
                1
                for r in reports
                for h in r.health.values()
                if h == "recovered"
            )
        assert recovered >= 1


class TestFaultPlan:
    def test_unknown_site_and_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("store.nonsense", 0)
        with pytest.raises(ValueError):
            FaultSpec("runtime.launch", 0, kind="gremlin")

    def test_per_query_occurrences_are_independent(self):
        plan = FaultPlan((FaultSpec("runtime.launch", 1, query="b"),))
        # a's arrivals must not advance b's counter
        plan.fire("runtime.launch", query="a")
        plan.fire("runtime.launch", query="a")
        plan.fire("runtime.launch", query="b")
        with pytest.raises(InjectedFault):
            plan.fire("runtime.launch", query="b")
        assert plan.arrivals("runtime.launch") == 4
        assert plan.arrivals("runtime.launch", "b") == 2

    def test_seeded_plans_are_reproducible(self):
        a = FaultPlan.seeded(7, n_faults=5, queries=("x", "y"))
        b = FaultPlan.seeded(7, n_faults=5, queries=("x", "y"))
        assert a.specs == b.specs
        assert all(s.site in FAULT_SITES for s in a.specs)

    def test_seeded_spacing_keeps_same_site_specs_apart(self):
        plan = FaultPlan.seeded(
            13, sites=("store.commit.gpma",), n_faults=4, horizon=20, min_spacing=3
        )
        occs = sorted(s.occurrence for s in plan.specs)
        assert all(b - a >= 3 for a, b in zip(occs, occs[1:]))
