"""The host-wide level pass against the scalar Gen-Candidates oracle.

``matching.entry_pass`` records, for every fast-path work item of a
phase, the candidates of ``order[2]`` and the charges of their
generation, then level by level the children of every frame that
generates them, with their priced ``SegmentCosts``, as one
``LevelRecord`` per DFS level. Each recorded candidate list and charge
must equal one ``_gen_candidates`` oracle call (the dict walk, priced
on a fresh warp context), at every level — across hub anchors,
rank-rule collisions, orbit-union columns of ``k>0`` groups, vertices
past the candidate stack, mid-stream registration and unregistration,
and random grids. Every vectorized launch takes the records, budgeted
and passive-stealing ones included, and serves exactly as the oracle
does; the frames past the bound generate inline and serve the same.
"""

from __future__ import annotations

import dataclasses
import random
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import xp
from repro.bench.workloads import hub_schedule
from repro.graph.generators import attach_labels, power_law_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.updates import apply_batch, make_batch
from repro.gpu.memory import GlobalMemory, SharedMemory
from repro.gpu.params import DeviceParams
from repro.gpu.stats import BlockStats
from repro.gpu.warp import WarpContext
from repro.matching import WBMConfig
from repro.matching import dfs
from repro.matching import entry_pass as ep
from repro.matching.gen_candidates import _charge_gen, _gen_candidates
from repro.matching.launch_env import KernelOutput, PhaseEdges, _Env
from repro.matching.level_batch import _gen_cost_segments
from repro.matching.wbm import QueryRuntime, working_items
from repro.service import DynamicGraphStore, MatchingService
from repro.service.matching_service import InProcessHost

PARAMS = DeviceParams(num_sms=2, warps_per_block=4)
C4_Q = LabeledGraph.from_edges([0, 0, 0, 0], [(0, 1), (1, 2), (2, 3), (0, 3)])
C4_TAIL_Q = LabeledGraph.from_edges([0, 0, 0, 0, 0], [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
CHORD_Q = LabeledGraph.from_edges([0, 1, 0, 1], [(0, 1), (1, 2), (2, 3), (0, 2)])
TRI_Q = LabeledGraph.from_edges([0, 0, 0], [(0, 1), (0, 2), (1, 2)])
PATH_Q = LabeledGraph.from_edges([0, 1, 0], [(0, 1), (1, 2)])
#: gating keeps its k=1 groups: level 2 filters on an orbit-union column
K_Q = LabeledGraph.from_edges([0, 0, 0, 1, 2], [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
#: a 6-path: every level up to 4 generates children
PATH6_Q = LabeledGraph.from_edges([0] * 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
POOL = (C4_Q, C4_TAIL_Q, CHORD_Q, TRI_Q, PATH_Q, K_Q, PATH6_Q)


def fresh_ctx(params: DeviceParams) -> WarpContext:
    return WarpContext(0, params, SharedMemory(params), GlobalMemory(params), BlockStats(n_warps=1))


def as_list(cands) -> list[int]:
    return cands if isinstance(cands, list) else xp.to_numpy(cands).tolist()


def charged(ctx: WarpContext) -> tuple:
    """What the charges on ``ctx`` add up to."""
    return ctx.clock, ctx.busy_cycles, ctx.stats


def gens(group, lv: int, n: int) -> bool:
    """Whether a frame of ``group`` at DFS level ``lv`` generates children."""
    return lv + 1 < n and (lv + 1 != len(group.core) or group.is_singleton)


def oracle_env(runtime, phase, csr, bitmap=None) -> _Env:
    """The scalar oracle's launch env over ``bitmap`` (the stack's by
    default)."""
    env = _Env(
        runtime.query, runtime.store.graph, runtime.table, runtime.plan, phase,
        dataclasses.replace(runtime.config, vectorized=False), KernelOutput(), csr=csr,
    )
    if bitmap is not None:
        env.bitmap = bitmap
    return env


def oracle_tree(env, params, group, prefix: list[int], lv: int, cands: list[int], rank: int):
    """The children lists of a frame at level ``lv`` (``prefix`` the
    values of ``order[:lv]``), one oracle ``_gen_candidates`` call per
    child, with the context each call charged from fresh."""
    order = group.full_order
    kids, ctxs = [], []
    for c in cands:
        ctxs.append(fresh_ctx(params))
        assign = dict(zip(order, prefix + [c]))
        kids.append(_gen_candidates(ctxs[-1], env, group, order, assign, lv + 1, rank))
    return kids, ctxs


class Tally:
    """What the checked records covered."""

    def __init__(self) -> None:
        self.entries = self.hub_kids = self.union_entries = self.rank_sensitive = 0
        #: recorded frames checked, and frames left to inline generation, per level
        self.frames: dict[int, int] = {}
        self.inline: dict[int, int] = {}


def check_frame(env, params, group, prefix, lv, cands, frame, rank, tally, fast=None) -> None:
    """A frame's recorded children and costs equal inline generation, and
    so do those of every recorded frame below it: the oracle's, and with
    ``fast`` (a vectorized env) also one ``_level_children`` call's."""
    if not cands or not gens(group, lv, env.n):
        return
    if frame is None:  # past the bound
        tally.inline[lv] = tally.inline.get(lv, 0) + 1
        return
    rec, base = frame
    kids, ctxs = oracle_tree(env, params, group, prefix, lv, cands, rank)
    assert [as_list(rec.children(base + j)) for j in range(len(cands))] == kids
    for j, want in enumerate(ctxs):
        got = fresh_ctx(params)
        rec.costs.apply(got, base + j)
        assert charged(got) == charged(want)
    if fast is not None:
        [(inline, at)] = dfs._level_children(fast, group, lv, [(prefix, cands, rank)], params)
        for j in range(len(cands)):
            assert as_list(inline.children(at + j)) == kids[j]
            got, want = fresh_ctx(params), fresh_ctx(params)
            rec.costs.apply(got, base + j)
            inline.costs.apply(want, at + j)
            assert charged(got) == charged(want)
    tally.frames[lv] = tally.frames.get(lv, 0) + 1
    # an anchor of more than 64 neighbors reads 3+ coalesced transactions
    tally.hub_kids += max(ctx.stats.coalesced_transactions for ctx in ctxs) >= 3
    tally.rank_sensitive += oracle_tree(env, params, group, prefix, lv, cands, 0)[0] != kids
    for j, c in enumerate(cands):
        a, b = rec.off[base + j], rec.off[base + j + 1]
        below = (rec.kids, a) if b <= rec.kids.covered else None
        check_frame(env, params, group, prefix + [c], lv + 1, kids[j], below, rank, tally, fast)


def check_items(
    runtime, phase, csr, per_edge, tally: Tally, bitmap=None, inline=False, bounded=False
) -> None:
    """Every recorded item equals the oracle at every level (and with
    ``inline`` the fast path's inline generation too), and every item
    the pass should cover carries a record (with ``bounded``, those
    past the bound carry none)."""
    n = runtime.query.n_vertices
    env = oracle_env(runtime, phase, csr, bitmap)
    fast = None
    if inline:
        fast = _Env(
            runtime.query, runtime.store.graph, runtime.table, runtime.plan, phase,
            runtime.config, KernelOutput(), csr=csr,
        )
        fast.bitmap = env.bitmap
    for items in per_edge.values():
        for item in items:
            group = item["group"]
            rec = item.get("entry")
            covers = n > 2 and (len(group.core) != 2 or group.is_singleton)
            assert rec is None or covers
            assert bounded or (rec is not None) == covers
            if rec is None:
                continue
            ctx = fresh_ctx(runtime.params)
            rank = item["rank"]
            cands = _gen_candidates(ctx, env, group, group.full_order, item["assign"], 2, rank)
            got, charge, frame = rec
            assert as_list(got) == cands
            replay = fresh_ctx(runtime.params)
            _charge_gen(replay, *charge)
            assert charged(replay) == charged(ctx)
            tally.entries += 1
            tally.union_entries += group.k > 0 and 2 < len(group.core)
            free = _gen_candidates(fresh_ctx(runtime.params), env, group, group.full_order, item["assign"], 2, 0)
            tally.rank_sensitive += free != cands
            a, b = group.representative
            prefix = [item["assign"][a], item["assign"][b]]
            check_frame(env, runtime.params, group, prefix, 2, cands, frame, rank, tally, fast)


def audited_service(monkeypatch, graph, tally: Tally, **kwargs) -> MatchingService:
    """A service whose every entry pass is checked against inline
    generation right after it runs."""
    real = InProcessHost._entry_pass

    def audited(host, edges, items):
        real(host, edges, items)
        csr = host.store.csr_snapshot()
        for name, per_edge in items.items():
            check_items(host.runtimes[name], edges, csr, per_edge, tally)

    monkeypatch.setattr(InProcessHost, "_entry_pass", audited)
    return MatchingService(graph, params=PARAMS, **kwargs)


def hub_graph(n_hubs=5, n_leaves=120) -> LabeledGraph:
    """Hubs of degree 72 (above 64) over leaves of two labels, plus a
    few leaf-leaf chords so odd cycles close."""
    g = LabeledGraph([0] * n_hubs + [j % 2 for j in range(n_leaves)])
    for j in range(n_leaves):
        for i in range(n_hubs):
            if (i + j) % 5 < 3:
                g.add_edge(i, n_hubs + j, 0)
    for j in range(0, n_leaves - 7, 7):
        g.add_edge(n_hubs + j, n_hubs + j + 7, 0)
    return g


def random_ops(shadow, rng, n_ins=4, n_del=3, grow=None):
    edges = list(shadow.edges())
    non = [
        (u, v)
        for u in range(shadow.n_vertices)
        for v in range(u + 1, shadow.n_vertices)
        if not shadow.has_edge(u, v)
    ]
    rng.shuffle(edges)
    rng.shuffle(non)
    ops = [("+", u, v) for u, v in non[:n_ins]] + [("-", u, v) for u, v in edges[:n_del]]
    if grow is not None:
        ops += [("+", u, grow) for u in range(4)]
    return make_batch(ops)


def run_reports(service, batches) -> list:
    out = []
    for batch in batches:
        rep = service.process_batch(batch)
        out.append(
            {
                name: (sorted(q.result.positives), sorted(q.result.negatives), q.result.kernel_stats)
                for name, q in rep.queries.items()
                if q.result is not None
            }
        )
    return out


class TestRecordsEqualInline:
    def test_hub_anchors(self, monkeypatch):
        tally = Tally()
        g = hub_graph()
        service = audited_service(monkeypatch, g, tally)
        for name, q in (("c4", C4_Q), ("tail", C4_TAIL_Q), ("tri", TRI_Q)):
            service.register_query(q, name=name, bootstrap=False)
        rng = random.Random(3)
        shadow = g.copy()
        batches = []
        for _ in range(2):
            batches.append(random_ops(shadow, rng, n_ins=10, n_del=6))
            apply_batch(shadow, batches[-1])
        run_reports(service, batches)
        assert tally.entries and tally.frames.get(2)
        assert tally.frames.get(3), "level-3 frames (the tail's) must be recorded"
        assert tally.hub_kids, "some child must anchor on a hub"

    def test_rank_rule_collisions(self, monkeypatch):
        """A batch inserting a near-clique: entry candidates and children
        whose edges to the prefix are lower-ranked updates of the same
        phase are refused by the rank rule."""
        tally = Tally()
        g = attach_labels(power_law_graph(24, 3.0, seed=2), 1, 1, seed=3)
        service = audited_service(monkeypatch, g, tally)
        service.register_query(TRI_Q, name="tri", bootstrap=False)
        service.register_query(C4_Q, name="c4", bootstrap=False)
        service.register_query(PATH6_Q, name="path6", bootstrap=False)
        ops = [("+", u, v) for u in range(7) for v in range(u + 1, 7) if not g.has_edge(u, v)]
        clique = make_batch(ops)
        shadow = g.copy()
        apply_batch(shadow, clique)
        undo = make_batch([("-", u, v) for _, u, v in ops])
        run_reports(service, [clique, undo])
        assert tally.entries and all(tally.frames.get(lv) for lv in (2, 3, 4))
        assert tally.rank_sensitive, "the rank rule must refuse some candidate"

    def test_union_columns_growth_and_churn(self, monkeypatch):
        """k>0 groups filter level 2 on orbit-union columns; vertices
        appear mid-stream; a query registers after the first batch and
        a middle one unregisters after the second. Serving equals the
        scalar oracle throughout."""
        tally = Tally()
        g = attach_labels(power_law_graph(30, 4.0, seed=4), 3, 1, seed=5)
        service = audited_service(monkeypatch, g, tally)
        oracle = MatchingService(g, params=PARAMS, vectorized=False)
        for name, q in (("k", K_Q), ("chord", CHORD_Q), ("path", PATH_Q)):
            service.register_query(q, name=name)
            oracle.register_query(q, WBMConfig(vectorized=False), name=name)
        rng = random.Random(11)
        shadow = g.copy()
        for step in range(4):
            grow = None
            if step == 1:  # a new vertex past the stack and the snapshot
                grow = shadow.add_vertex(0)
                for svc in (service, oracle):
                    svc.store.graph.add_vertex(0)
            batch = random_ops(shadow, rng, n_ins=8, grow=grow)
            apply_batch(shadow, batch)
            assert run_reports(service, [batch]) == run_reports(oracle, [batch])
            if step == 0:
                service.register_query(C4_TAIL_Q, name="tail")
                oracle.register_query(C4_TAIL_Q, WBMConfig(vectorized=False), name="tail")
            if step == 1:
                service.unregister_query("chord")
                oracle.unregister_query("chord")
        assert tally.entries and tally.frames.get(2) and tally.frames.get(3)
        assert tally.union_entries, "a k>0 group must filter on a union column"


def random_grid(seed, query, coalesced, short=0):
    """A random labelled graph (with a hub), random update edges (some
    absent from the graph, some repeated) and a candidate bitmap cut
    ``short`` rows below the snapshot; returns the graph, the runtime,
    the phase, the snapshot, the working items per edge and the
    :func:`entry_pass` arguments after ``phase``."""
    rng = random.Random(seed)
    n = rng.randint(8, 60)
    hub = rng.randrange(n)
    g = LabeledGraph([rng.randrange(2) for _ in range(n)])
    for v in range(n):
        if v != hub and rng.random() < 0.7:
            g.add_edge(hub, v, rng.randrange(2))
    for _ in range(rng.randint(n, 3 * n)):
        u, v = rng.sample(range(n), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, rng.randrange(2))
    store = DynamicGraphStore(g, PARAMS)
    runtime = QueryRuntime(query, store, PARAMS, WBMConfig(coalesced=coalesced))
    pool = list(g.edges()) + [tuple(sorted(rng.sample(range(n), 2))) for _ in range(4)]
    picked = [rng.choice(pool) for _ in range(rng.randint(1, 30))]
    phase = PhaseEdges([(u, v, g.edge_label(u, v) if g.has_edge(u, v) else 0) for u, v in picked])
    csr = store.csr_snapshot()
    [per_edge] = working_items(phase, csr, [runtime])
    groups = [group for group, _ in runtime.plan.label_keys(query)]
    row_of = {id(group): r for r, group in enumerate(groups)}
    items = [item for its in per_edge.values() for item in its]
    bitmap = runtime.table.stack.bitmap
    bitmap = bitmap[: max(bitmap.shape[0] - short, 0)]
    args = (
        csr, bitmap,
        ep.entry_facts(query, runtime.table, groups),
        xp.asarray([row_of[id(item["group"])] for item in items], dtype=xp.int64),
        xp.asarray([item["rank"] for item in items], dtype=xp.int64),
        items, PARAMS,
    )
    return g, runtime, phase, csr, per_edge, args


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**31 - 1),
    query=st.sampled_from(POOL),
    coalesced=st.booleans(),
    short=st.integers(0, 6),
)
def test_random_grids(seed, query, coalesced, short):
    """Random labelled graphs (with a hub), random update edges (some
    absent from the graph, some repeated), and a candidate bitmap cut
    ``short`` rows below the snapshot: every record equals the inline
    generation over the same (cut) bitmap."""
    _, runtime, phase, csr, per_edge, args = random_grid(seed, query, coalesced, short)
    ep.entry_pass(phase, *args)
    check_items(runtime, phase, csr, per_edge, Tally(), bitmap=args[1])


def test_chunked_levels_equal_inline():
    """Frames straddle row chunks and element slices: with
    ``_LEVEL_CHUNK`` at 1, 3 and 64 and the bound at 0, a few dozen
    elements and its default, every record still equals the oracle's
    ``_gen_candidates`` calls and one inline ``_level_children`` call
    per frame, and serving equals the ``vectorized=False`` oracle."""
    seen = dict.fromkeys(("plans a level", "slices a plan", "frames a slice", "levels cut"), 0)
    real_plan, real_expand, real_frames = ep._plan_requests, ep._expand_requests, ep._narrow_frames
    calls: list = []  # per _narrow_frames call: [plans, slices]

    def plan(snap, prefix, *args):
        calls[-1][0] += 1
        calls[-1].append(0)
        return real_plan(snap, prefix, *args)

    def expand(snap, plan_, lo, hi):
        calls[-1][1] += 1
        calls[-1][-1] += 1
        return real_expand(snap, plan_, lo, hi)

    def frames(snap, facts, items, chain, req, bounds, keep):
        calls.append([0, 0])
        n, vals = real_frames(snap, facts, items, chain, req, bounds, keep)
        plans, slices, *per_plan = calls.pop()
        seen["plans a level"] += plans > 1
        seen["slices a plan"] += any(k > 1 for k in per_plan)
        seen["frames a slice"] += slices and n > slices
        seen["levels cut"] += n < len(bounds) - 1
        return n, vals

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**31 - 1),
        query=st.sampled_from(POOL),
        chunk=st.sampled_from((1, 3, 64)),
        bound=st.sampled_from((0, 40, ep._ENTRY_PASS_MAX)),
    )
    def prop(seed, query, chunk, bound):
        g, runtime, phase, csr, per_edge, args = random_grid(seed, query, coalesced=True)
        with ExitStack() as stack:
            for name, value in (
                ("_LEVEL_CHUNK", chunk), ("_ENTRY_PASS_MAX", bound), ("_plan_requests", plan),
                ("_expand_requests", expand), ("_narrow_frames", frames),
            ):
                stack.enter_context(mock.patch.object(ep, name, value))
            ep.entry_pass(phase, *args)
            check_items(runtime, phase, csr, per_edge, Tally(), inline=True, bounded=True)
            batch = random_ops(g, random.Random(seed), n_ins=6)
            fast = MatchingService(g, params=PARAMS)
            fast.register_query(query, name="q", bootstrap=False)
            got = run_reports(fast, [batch])
        oracle = MatchingService(g, params=PARAMS, vectorized=False)
        oracle.register_query(query, WBMConfig(vectorized=False), name="q", bootstrap=False)
        assert got == run_reports(oracle, [batch])

    prop()
    assert all(seen.values()), seen


def test_hub_plans_each_request_once(monkeypatch):
    """On the benchmark's hub schedule the pass records the whole tree
    of every item: each level's requests (one per candidate of the
    level above) are planned once and narrowed once, and no frame
    generates inline."""
    g0, batch, query = hub_schedule()
    planned: dict = {}
    narrowed: dict = {}
    inline = []
    recorded = []
    real_plan, real_expand, real_pass = ep._plan_requests, ep._expand_requests, ep.entry_pass

    def plan(snap, prefix, *args):
        width = prefix.shape[1]
        planned[width] = planned.get(width, 0) + len(prefix)
        return real_plan(snap, prefix, *args)

    def expand(snap, plan_, lo, hi):
        width = plan_.prefix.shape[1]
        narrowed[width] = narrowed.get(width, 0) + hi - lo
        return real_expand(snap, plan_, lo, hi)

    def entry_pass(*args):
        out = real_pass(*args)
        recorded.append(args[6])
        return out

    monkeypatch.setattr(ep, "_plan_requests", plan)
    monkeypatch.setattr(ep, "_expand_requests", expand)
    monkeypatch.setattr("repro.matching.wbm.entry_pass", entry_pass)
    monkeypatch.setattr(
        dfs, "_level_children", lambda *a: inline.append(a) or pytest.fail("inline generation")
    )
    service = MatchingService(g0, params=PARAMS)
    service.register_query(query, name="q", bootstrap=False)
    service.process_batch(batch)
    [items] = recorded
    top = next(item["entry"][2][0] for item in items if item["entry"][2] is not None)
    # requests per prefix width: the items, then each level's candidates
    want, level = {2: len(items)}, top
    while level is not None and len(level.cands):
        want[len(want) + 2] = len(level.cands)
        level = level.kids
    assert planned == narrowed == want, (planned, narrowed, want)
    assert set(want) == {2, 3, 4} and not inline


@pytest.mark.parametrize(
    "params", [PARAMS, DeviceParams(warp_size=8, compute_cycles=3, global_transaction_cycles=7)]
)
def test_batch_pricing_equals_charge_gen(params):
    """The closed-form batch pricing of every child equals
    ``_charge_gen`` replayed on a fresh context: anchors without
    neighbors (``nb = 0``), children without other matched neighbors
    (``n_others = 0``), warp-boundary degrees and random charges."""
    rng = random.Random(7)
    charges = [
        (0, 0, 0), (0, 2, 0), (1, 0, 0), (7, 0, 0), (8, 0, 0), (9, 1, 0),
        (31, 1, 5), (32, 0, 0), (33, 2, 7000), (72, 1, 72), (5000, 3, 9),
    ]
    charges += [
        (rng.randint(0, 300), rng.randint(0, 3), rng.randint(0, 5000)) for _ in range(40)
    ]
    costs = _gen_cost_segments(
        *(xp.asarray(column, dtype=xp.int64) for column in zip(*charges)), params
    )
    assert costs.n_segments == len(charges)
    for s, charge in enumerate(charges):
        want = fresh_ctx(params)
        _charge_gen(want, *charge)
        got = fresh_ctx(params)
        costs.apply(got, s)
        assert (got.clock, got.busy_cycles, got.stats) == (
            want.clock, want.busy_cycles, want.stats,
        ), charge


def test_rank_index_matches_rank_map():
    """Keys inside the snapshot, the last rank of a repeated edge."""
    phase = PhaseEdges([(3, 1, 0), (2, 5, 0), (1, 3, 0), (9, 2, 0), (0, 4, 0), (5, 2, 1)])
    keys, ranks = phase.rank_index(6)
    got = {divmod(int(k), 6): int(r) for k, r in zip(xp.to_numpy(keys), xp.to_numpy(ranks))}
    want = {e: r for e, r in phase.rank_map.items() if max(e) < 6}
    assert got == want
    assert xp.to_numpy(keys).tolist() == sorted(xp.to_numpy(keys).tolist())


class TestFallback:
    """Items the pass leaves alone generate inline; serving is unchanged."""

    def _stream(self):
        g = hub_graph()
        rng = random.Random(5)
        shadow = g.copy()
        batches = []
        for _ in range(2):
            batches.append(random_ops(shadow, rng, n_ins=10, n_del=6))
            apply_batch(shadow, batches[-1])
        return g, batches

    def _serve(self, g, batches, config, vectorized=True):
        service = MatchingService(g, params=PARAMS, vectorized=vectorized)
        for name, q in (("tail", C4_TAIL_Q), ("tri", TRI_Q)):
            service.register_query(q, config, name=name, bootstrap=False)
        return run_reports(service, batches)

    def _counting(self, monkeypatch) -> list:
        """Counts of recorded entries and entry frames (level 2)."""
        recorded = [0, 0]
        real = ep.entry_pass

        def counting(*args):
            entries, frames = real(*args)
            recorded[0] += entries
            recorded[1] += frames.get(2, 0)
            return entries, frames

        monkeypatch.setattr("repro.matching.wbm.entry_pass", counting)
        return recorded

    @pytest.mark.parametrize(
        "config",
        [WBMConfig(cycle_budget=1e15), WBMConfig(work_stealing="passive")],
        ids=["budgeted", "passive"],
    )
    def test_budgeted_and_passive_record_entries(self, config, monkeypatch):
        g, batches = self._stream()
        recorded = self._counting(monkeypatch)
        fast = self._serve(g, batches, config)
        assert recorded[0] and recorded[1]
        oracle = self._serve(g, batches, dataclasses.replace(config, vectorized=False), False)
        assert fast == oracle

    def test_items_past_the_bound_generate_inline(self, monkeypatch):
        g, batches = self._stream()
        recorded = self._counting(monkeypatch)
        whole = self._serve(g, batches, WBMConfig())
        all_frames = recorded[1]
        runs = []
        for bound in (0, 200):
            monkeypatch.setattr(ep, "_ENTRY_PASS_MAX", bound)
            recorded[:] = [0, 0]
            runs.append(self._serve(g, batches, WBMConfig()))
            runs.append(tuple(recorded))
        none, (_, none_frames), cut, (_, cut_frames) = runs
        assert none_frames == 0  # no entry frame fits a zero bound
        assert 0 < cut_frames < all_frames
        assert whole == none == cut

    def test_level_past_the_bound_generates_inline(self, monkeypatch):
        """The stream's tailed C4 passes a bound of 8,192 elements inside
        level 3: every entry and entry frame is recorded, the level-3
        frames past the bound generate inline, and serving equals the
        oracle."""
        monkeypatch.setattr(ep, "_ENTRY_PASS_MAX", 1 << 13)
        g, batches = self._stream()
        recorded: dict = {}
        inline: dict = {}
        real_pass, real_children = ep.entry_pass, dfs._level_children

        def counting(*args):
            entries, frames = real_pass(*args)
            for key, n in [("entries", entries), *frames.items()]:
                recorded[key] = recorded.get(key, 0) + n
            return entries, frames

        def counting_children(env, group, lv, requests, params):
            inline[lv] = inline.get(lv, 0) + len(requests)
            return real_children(env, group, lv, requests, params)

        monkeypatch.setattr("repro.matching.wbm.entry_pass", counting)
        monkeypatch.setattr(dfs, "_level_children", counting_children)
        gen_calls = []
        real_gen = dfs._entry_candidates
        monkeypatch.setattr(dfs, "_entry_candidates", lambda *a: gen_calls.append(a) or real_gen(*a))
        fast = self._serve(g, batches, WBMConfig(work_stealing="off"))
        assert recorded["entries"] and not gen_calls  # every entry recorded
        assert recorded[2] and 2 not in inline  # every entry frame too
        assert recorded[3] and inline[3], (recorded, inline)  # level 3 splits
        assert fast == self._serve(g, batches, WBMConfig(work_stealing="off", vectorized=False), False)

