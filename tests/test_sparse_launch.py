"""Sparse per-query launches.

A WBM launch hands the device only its working warps (update edges
that map onto at least one work item) plus one shared no-op filler
trace, and the pooled device schedules only the blocks that hold a
working warp. The modeled grid is unchanged — one warp per update
edge — so every launch's ``KernelStats`` must equal the generator
oracle's, which expands the grid and runs every block. The phase's
edge index (:class:`PhaseEdges`) is built once per sign phase and
shared by every runtime launching it. The filler-only blocks of one
span share one ``BlockStats``; results are read-only, so the sharing
never leaks across launches or into the device's block cache.
"""

import copy
import dataclasses
import functools
import math
import os
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import xp
from repro.errors import BudgetExceeded
from repro.graph.generators import attach_labels, power_law_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.updates import make_batch
from repro.gpu import DeviceParams, TraceBuilder, VirtualGPU
from repro.matching import PhaseEdges, QueryRuntime, WBMConfig
from repro.matching.launch_env import KernelOutput, _Env
from repro.matching.wbm import _initial_items, working_items
from repro.service import (
    DynamicGraphStore,
    MatchingService,
    ShardedMatchingService,
    ShardPolicy,
)

PARAMS = DeviceParams(num_sms=2, warps_per_block=4)
QUERY = LabeledGraph.from_edges([0, 1, 0, 1], [(0, 1), (1, 2), (2, 3), (0, 2)])
PATH_Q = LabeledGraph.from_edges([0, 1, 0], [(0, 1), (1, 2)])


def stats_dict(kernel_stats):
    return dataclasses.asdict(kernel_stats)


def labeled_graph(seed=3, n=36):
    return attach_labels(power_law_graph(n, 3.0, seed=seed), 2, 1, seed=seed + 1)


def make_env(runtime, edges):
    phase = PhaseEdges(edges)
    env = _Env(
        runtime.query,
        runtime.graph,
        runtime.table,
        runtime.plan,
        phase,
        runtime.config,
        KernelOutput(),
        csr=runtime.store.csr_snapshot(),
    )
    return env, phase


def scalar_items(env, phase):
    """The oracle's per-edge items, keyed by edge index (non-empty only)."""
    out = {}
    for i, (x, y, lbl) in enumerate(zip(phase.exl, phase.eyl, phase.ell)):
        items = _initial_items(env, x, y, lbl, i)
        if items:
            out[i] = items
    return out


# ---------------------------------------------------------------------------
# device level: sparse form vs the expanded grid
# ---------------------------------------------------------------------------
def random_work(rng):
    """A generator task or a multi-segment trace (a working warp)."""
    if rng.random() < 0.5:
        b = TraceBuilder()
        for _ in range(rng.randint(1, 4)):
            b.charge_compute(rng.randint(1, 50)).yield_()
        return b.build()
    cost = rng.randint(1, 80)

    def task(ctx):
        ctx.charge_compute(cost)
        yield
        ctx.read_global_scattered(cost % 7)
        yield

    return task


class TestDeviceSparseForm:
    @pytest.mark.parametrize("seed", range(8))
    def test_sparse_matches_expanded_oracle(self, seed):
        """Random grids and working sets: the pooled sparse launch and
        the oracle's dense run report identical stats, launch after
        launch on the same (cache-warming) device."""
        rng = random.Random(seed)
        filler = TraceBuilder().charge_compute(1).build()

        def hook(sched):
            return None

        hook.trace_pure = ("test", "sparse")
        pooled = VirtualGPU(PARAMS, vectorized=True)
        oracle = VirtualGPU(PARAMS, vectorized=False)
        for _ in range(5):
            m = rng.randint(0, 23)
            picks = sorted(rng.sample(range(m), rng.randint(0, min(m, 5)))) if m else []
            work = {i: random_work(rng) for i in picks}
            before = pooled.blocks_run + pooled.blocks_memoized
            a = pooled.launch(work, block_hook=hook, n_tasks=m, filler=filler)
            b = oracle.launch([work.get(i, filler) for i in range(m)], block_hook=hook)
            assert stats_dict(a.stats) == stats_dict(b.stats)
            assert a.n_blocks == b.n_blocks == math.ceil(m / PARAMS.warps_per_block)
            after = pooled.blocks_run + pooled.blocks_memoized
            assert after - before == a.n_blocks

    def test_oracle_expands_sparse_form(self):
        filler = TraceBuilder().charge_compute(1).build()
        oracle = VirtualGPU(PARAMS, vectorized=False)
        res = oracle.launch({}, n_tasks=10, filler=filler)
        assert oracle.blocks_run == 3 and oracle.blocks_memoized == 0
        assert sum(b.tasks_completed for b in res.stats.blocks) == 10


# ---------------------------------------------------------------------------
# kernel level: per-launch lockstep under every stealing mode
# ---------------------------------------------------------------------------
def grid(work, fill, m, positions):
    """An m-edge phase with working edges at ``positions``."""
    work, fill = iter(work), iter(fill)
    return [next(work) if i in positions else next(fill) for i in range(m)]


#: (m, working positions): first block, last partial block, none, all,
#: one partial block (m < warps_per_block), and a spread
CASES = [
    (10, {0}),
    (10, {9}),
    (10, set()),
    (8, set(range(8))),
    (3, {1}),
    (3, set()),
    (13, {0, 5, 12}),
]


def working_and_fill(g, runtime):
    """Live graph edges that map onto a work item (deletion-phase
    launches run on the pre-update graph, which holds them), and
    non-edges under an edge label the query never uses."""
    edges = [(u, v, g.edge_label(u, v)) for u, v in g.edges()]
    env, phase = make_env(runtime, edges)
    working = [edges[i] for i in sorted(scalar_items(env, phase))]
    assert len(working) >= 8
    fill = [
        (u, v, 7)
        for u in range(g.n_vertices)
        for v in range(u + 1, g.n_vertices)
        if not g.has_edge(u, v)
    ][:40]
    return working, fill


class TestKernelSparseLockstep:
    @pytest.mark.parametrize("stealing", ["active", "passive", "off"])
    def test_per_launch_stats_match_oracle(self, stealing):
        g = labeled_graph()
        store = DynamicGraphStore(g, PARAMS)
        cfg = WBMConfig(work_stealing=stealing)
        pooled = QueryRuntime(QUERY, store, PARAMS, cfg, name="pooled")
        oracle = QueryRuntime(QUERY, store, PARAMS, cfg, name="oracle")
        oracle.gpu = VirtualGPU(PARAMS, vectorized=False)
        working, fill = working_and_fill(g, pooled)

        saw_attempts = saw_matches = False
        for m, positions in CASES:
            launch_edges = grid(working, fill, m, positions)
            before = pooled.gpu.blocks_run + pooled.gpu.blocks_memoized
            a = pooled.launch(launch_edges)
            b = oracle.launch(launch_edges)
            assert sorted(a.matches) == sorted(b.matches)
            assert stats_dict(a.stats) == stats_dict(b.stats), (m, positions)
            n_blocks = math.ceil(m / PARAMS.warps_per_block)
            assert len(a.stats.blocks) == n_blocks
            after = pooled.gpu.blocks_run + pooled.gpu.blocks_memoized
            assert after - before == n_blocks
            saw_attempts |= any(blk.steal_attempts for blk in a.stats.blocks)
            saw_matches |= bool(a.matches)
        assert saw_matches
        if stealing == "active":
            # idle warps of the working blocks probe their siblings
            assert saw_attempts
        # the filler-only blocks were priced from templates, not run
        assert pooled.gpu.blocks_memoized > 0
        assert oracle.gpu.blocks_memoized == 0


# ---------------------------------------------------------------------------
# lone-worker blocks: idle probes priced in closed form
# ---------------------------------------------------------------------------
LONE_PARAMS = DeviceParams(num_sms=2, warps_per_block=8)
#: a one-edge query: every work item is a complete match, so a worker
#: completes on its first step
EDGE_Q = LabeledGraph.from_edges([0, 1], [(0, 1)])


def lone_pair(stealing, query=QUERY, budget=None):
    """A pooled runtime, its expanded-grid oracle, and the graph's
    working and filler edges, on 8-warp blocks."""
    g = labeled_graph()
    store = DynamicGraphStore(g, LONE_PARAMS)
    cfg = WBMConfig(work_stealing=stealing, cycle_budget=budget)
    pooled = QueryRuntime(query, store, LONE_PARAMS, cfg, name="pooled")
    oracle = QueryRuntime(query, store, LONE_PARAMS, cfg, name="oracle")
    oracle.gpu = VirtualGPU(LONE_PARAMS, vectorized=False)
    working, fill = working_and_fill(g, pooled)
    return pooled, oracle, working, fill


def lockstep(pooled, oracle, edges):
    """Launch ``edges`` on both; assert identical outputs; return the
    pooled device's (closed-form, materialized) block counts."""
    gpu = pooled.gpu
    before = gpu.blocks_idle_priced, gpu.blocks_idle_materialized
    a = pooled.launch(edges)
    b = oracle.launch(edges)
    assert sorted(a.matches) == sorted(b.matches)
    assert a.aborted == b.aborted
    assert a.peak_stack_words == b.peak_stack_words
    assert stats_dict(a.stats) == stats_dict(b.stats)
    return (
        gpu.blocks_idle_priced - before[0],
        gpu.blocks_idle_materialized - before[1],
    )


def lone_grid(edge, fill, m, pos):
    """An m-edge phase whose one working edge sits at index ``pos``."""
    return grid([edge], fill, m, {pos})


@functools.lru_cache(maxsize=None)
def shared_pair(stealing):
    """One :func:`lone_pair` per stealing mode, shared by the property's
    examples."""
    return lone_pair(stealing)


def stealing_edge():
    """A working edge whose lone worker, at warp 0 under active
    stealing, becomes stealable mid-run: a steal lands."""
    _, oracle, working, fill = shared_pair("active")
    for edge in working:
        if oracle.launch(lone_grid(edge, fill, 8, 0)).stats.steals:
            return edge
    raise AssertionError("no working edge gives its lone worker a thief")


class TestLoneWorkerClosedForm:
    @pytest.mark.parametrize("stealing", ["active", "passive", "off"])
    def test_every_warp_position(self, stealing):
        """A lone worker at each position of a full block and in a
        partial last block; only active stealing prices it in closed
        form."""
        pooled, oracle, working, fill = lone_pair(stealing)
        edge = stealing_edge()
        other = working[0] if working[0] != edge else working[1]
        for work in (edge, other):
            for m, pos in [(16, p) for p in range(8)] + [(11, 9), (11, 10)]:
                priced, _ = lockstep(pooled, oracle, lone_grid(work, fill, m, pos))
                assert priced == (stealing == "active")

    def test_pollers_materialize_and_steal(self):
        pooled, oracle, working, fill = lone_pair("active")
        edge = stealing_edge()
        for pos in range(8):
            launch = lone_grid(edge, fill, 8, pos)
            priced, materialized = lockstep(pooled, oracle, launch)
            assert priced == 1
            steals = oracle.launch(launch).stats.steals
            # only pollers (probes above the worker) can steal
            assert materialized == (steals > 0)
            if pos == 0:
                assert steals > 0

    @pytest.mark.parametrize("stealing", ["active", "passive", "off"])
    def test_worker_completes_on_first_step(self, stealing):
        pooled, oracle, working, fill = lone_pair(stealing, query=EDGE_Q)
        for pos in (0, 3, 7):
            launch = lone_grid(working[0], fill, 8, pos)
            priced, materialized = lockstep(pooled, oracle, launch)
            assert (priced, materialized) == (stealing == "active", 0)
        res = pooled.launch(lone_grid(working[0], fill, 8, 3))
        assert res.matches
        if stealing == "active":  # every warp scans once, then parks
            assert res.stats.blocks[0].steal_attempts == 8

    def test_cycle_budget_lockstep_at_every_position(self, monkeypatch):
        """A budgeted launch prices its lone worker's probes in closed
        form too. Budget 3000 lets every lone block finish; budget 100
        trips in the DFS of a poller handed back to steal, whose first
        budget check folds in the busy cycles it polled."""
        edge = stealing_edge()
        trips = []
        check = _Env.check_budget

        def recording(env, ctx):
            try:
                check(env, ctx)
            except BudgetExceeded:
                trips.append(ctx.warp_id)
                raise

        monkeypatch.setattr(_Env, "check_budget", recording)
        finishing = lone_pair("active", budget=3000.0)
        tripping = lone_pair("active", budget=100.0)
        thief_trips = 0
        for pos in range(8):
            launch = lone_grid(edge, finishing[3], 16, pos)
            assert lockstep(finishing[0], finishing[1], launch)[0] == 1
            assert not trips
            lockstep(tripping[0], tripping[1], launch)
            # each side trips once, in the same warp
            pooled_warp, oracle_warp = trips
            assert pooled_warp == oracle_warp
            thief_trips += pooled_warp != pos
            trips.clear()
        assert thief_trips

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        stealing=st.sampled_from(["active", "passive", "off"]),
        m=st.integers(1, 20),
        data=st.data(),
    )
    def test_random_single_working_edge_grids(self, stealing, m, data):
        pooled, oracle, working, fill = shared_pair(stealing)
        pos = data.draw(st.integers(0, m - 1))
        edge = data.draw(st.sampled_from(working))
        priced, _ = lockstep(pooled, oracle, lone_grid(edge, fill, m, pos))
        assert priced == (stealing == "active")


# ---------------------------------------------------------------------------
# filler spans share one BlockStats; results stay isolated
# ---------------------------------------------------------------------------
def pure_hook(sched):
    return None


pure_hook.trace_pure = ("test", "filler-sharing")
FILLER = TraceBuilder().charge_compute(1).build()


def sparse_launch(gpu, n_tasks, working):
    work = {i: TraceBuilder().charge_compute(5 + i).yield_().build() for i in working}
    return gpu.launch(work, block_hook=pure_hook, n_tasks=n_tasks, filler=FILLER)


def block_ids(stats):
    return {id(b) for b in stats.blocks}


class TestFillerSharing:
    def test_span_blocks_are_one_object(self):
        """Blocks 0-2 and 4-9 are full filler spans around working
        block 3; block 10 is the partial last block."""
        stats = sparse_launch(VirtualGPU(PARAMS), 4 * 10 + 2, [13]).stats
        blocks = stats.blocks
        assert len(blocks) == 11
        assert blocks[0] is blocks[1] is blocks[2]
        assert all(b is blocks[4] for b in blocks[4:10])
        assert len(block_ids(stats)) == 4
        assert blocks[10].n_warps == 2 and blocks[4].n_warps == 4

    def test_no_block_shared_across_launches_or_cache(self):
        gpu = VirtualGPU(PARAMS)
        a = sparse_launch(gpu, 30, [5])
        b = sparse_launch(gpu, 30, [5])
        c = sparse_launch(gpu, 30, [])
        assert a.stats == b.stats
        cached = {id(t) for t in gpu._block_cache.values()}
        seen = [block_ids(r.stats) for r in (a, b, c)] + [cached]
        for i, ids in enumerate(seen):
            for other in seen[i + 1:]:
                assert not ids & other

    @pytest.mark.parametrize("stealing", ["active", "passive", "off"])
    def test_later_launches_leave_results_unchanged(self, stealing):
        g = labeled_graph()
        store = DynamicGraphStore(g, PARAMS)
        runtime = QueryRuntime(QUERY, store, PARAMS, WBMConfig(work_stealing=stealing))
        working, fill = working_and_fill(g, runtime)
        kept = []
        for m, positions in CASES + [(30, {0, 17}), (30, set())]:
            res = runtime.launch(grid(working, fill, m, positions))
            kept.append((res.stats, copy.deepcopy(res.stats)))
        assert any(len(block_ids(s)) < len(s.blocks) for s, _ in kept)
        for stats, snapshot in kept:
            assert stats == snapshot

    def test_pickle_ships_filler_spans_by_reference(self):
        gpu = VirtualGPU(PARAMS)
        sizes = []
        for n_blocks in (11, 1001):
            stats = sparse_launch(gpu, 4 * n_blocks, [0]).stats
            blob = pickle.dumps(stats)
            back = pickle.loads(blob)
            assert back == stats
            assert len(block_ids(back)) == 2  # the sharing survives the trip
            sizes.append(len(blob))
        assert (sizes[1] - sizes[0]) / 990 < 16


# ---------------------------------------------------------------------------
# bucket items equal the scalar oracle's
# ---------------------------------------------------------------------------
class TestBucketItems:
    @pytest.mark.parametrize("coalesced", [True, False])
    def test_bucket_items_equal_scalar(self, coalesced):
        g = labeled_graph(seed=9)
        store = DynamicGraphStore(g, PARAMS)
        runtime = QueryRuntime(QUERY, store, PARAMS, WBMConfig(coalesced=coalesced))
        n = g.n_vertices
        edges = [(u, v, g.edge_label(u, v)) for u, v in g.edges()]
        edges += [
            (n + 2, 0, 0),  # an endpoint past the graph, either side
            (3, n + 5, 0),
            (n + 1, n + 3, 0),
            (edges[0][1], edges[0][0], 5),  # an edge label the query lacks
            (edges[1][0], edges[1][1], 1),
        ]
        env, phase = make_env(runtime, edges)
        [bucket] = working_items(phase, env.csr, [runtime])
        scalar = scalar_items(env, phase)
        assert scalar, "the graph should give the query some working edges"
        assert bucket == scalar
        assert all(i < len(edges) - 5 for i in bucket)


# ---------------------------------------------------------------------------
# one PhaseEdges per non-empty phase, whatever the query count
# ---------------------------------------------------------------------------
def make_stream(seed=5, n=26, n_batches=3):
    g = attach_labels(power_law_graph(n, 3.2, seed=seed), 2, 1, seed=seed + 1)
    rng = random.Random(seed)
    shadow = g.copy()
    batches = []
    for _ in range(n_batches):
        edges = list(shadow.edges())
        non = [
            (u, v) for u in range(n) for v in range(u + 1, n) if not shadow.has_edge(u, v)
        ]
        rng.shuffle(edges)
        rng.shuffle(non)
        batch = make_batch([("+", u, v) for u, v in non[:3]] + [("-", u, v) for u, v in edges[:2]])
        for u, v in non[:3]:
            shadow.add_edge(u, v)
        for u, v in edges[:2]:
            shadow.remove_edge(u, v)
        batches.append(batch)
    return g, batches


def count_phases(monkeypatch, log_path):
    """Log every PhaseEdges construction (with its pid) to ``log_path``;
    forked workers inherit the patch."""
    init = PhaseEdges.__init__

    def logged(self, edges):
        init(self, edges)
        with open(log_path, "a") as fh:
            fh.write(f"{os.getpid()} {len(self)}\n")

    monkeypatch.setattr(PhaseEdges, "__init__", logged)


def read_log(log_path):
    if not os.path.exists(log_path):
        return []
    with open(log_path) as fh:
        return [tuple(map(int, line.split())) for line in fh]


class TestOnePhaseObjectPerPhase:
    @pytest.mark.parametrize("n_queries", [1, 4])
    def test_matching_service(self, monkeypatch, tmp_path, n_queries):
        g, batches = make_stream()
        svc = MatchingService(g, params=PARAMS)
        for k in range(n_queries):
            svc.register_query(QUERY if k % 2 else PATH_Q, WBMConfig(), name=f"q{k}")
        log = tmp_path / "phases.log"
        count_phases(monkeypatch, log)
        for batch in batches:
            rep = svc.process_batch(batch)
            assert rep.failure is None and not rep.quarantined
        # every batch nets 3 inserts and 2 deletes: two non-empty phases
        assert [size for _, size in read_log(log)] == [2, 3] * len(batches)

    def test_sharded_worker(self, monkeypatch, tmp_path):
        g, batches = make_stream()
        log = tmp_path / "phases.log"
        count_phases(monkeypatch, log)
        svc = ShardedMatchingService(
            g,
            params=PARAMS,
            shard_policy=ShardPolicy(
                n_workers=2, heartbeat_timeout_s=5.0, batch_deadline_s=30.0
            ),
        )
        try:
            for k in range(5):  # three queries on one shard, two on the other
                svc.register_query(QUERY if k % 2 else PATH_Q, WBMConfig(), name=f"q{k}")
            for batch in batches:
                rep = svc.process_batch(batch)
                assert rep.failure is None and not rep.quarantined
        finally:
            svc.close()
        by_pid = {}
        for pid, size in read_log(log):
            by_pid.setdefault(pid, []).append(size)
        assert os.getpid() not in by_pid  # the parent launches nothing
        assert len(by_pid) == 2
        for sizes in by_pid.values():
            assert sizes == [2, 3] * len(batches)
