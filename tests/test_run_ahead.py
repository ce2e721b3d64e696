"""DFS run-ahead up to the block's observer horizon.

A level-stepped DFS cursor whose generation came out empty performs the
resumptions that consume the frame's next candidates in the same step,
as long as each one starts strictly before the block's observer horizon
(:meth:`~repro.gpu.scheduler.BlockScheduler.horizon`): the earliest
clock at which a sibling could read its state. The oracle resumes once
per candidate; the two must stay byte-identical in matches,
``KernelStats`` and every ``BlockStats``, and no sibling may look at a
warp between the resumptions it ran ahead through.

:class:`RunAheadWatch` checks the second half directly: it records
each run's last resumption start per warp and fails when an idle-handler
scan, or a ``_LonePollers`` action, happens at a clock at or before a
sibling's recorded start.
"""

import dataclasses
import random
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import hub_schedule
from repro.graph.generators import attach_labels, power_law_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.updates import apply_batch, make_batch
from repro.gpu import DeviceParams
from repro.gpu.scheduler import BlockScheduler
from repro.gpu.trace import TraceCursor
from repro.matching import WBMConfig, wbm
from repro.matching.dfs import _DfsLevelCursor
from repro.matching.stealing import _LonePollers
from repro.service import MatchingService

PARAMS = DeviceParams(num_sms=2, warps_per_block=8)
DENSE_Q = LabeledGraph.from_edges(
    [0, 0, 0, 0], [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3)]
)
C4_TAIL_Q = LabeledGraph.from_edges(
    [0, 0, 0, 0, 0], [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)]
)
CHORD_Q = LabeledGraph.from_edges([0, 1, 0, 1], [(0, 1), (1, 2), (2, 3), (0, 2)])


class RunAheadWatch:
    """Counts run-ahead and checks the observer invariant while active.

    Per block it keeps, per warp, the start clock of the last
    resumption a run performed. An idle-handler scan is the completion
    of the scanning warp's last resumption, so it happens at that
    resumption's start (a poller's spin, a generator, completes at its
    clock); a ``_LonePollers`` action happens at its key. Either must
    come strictly after every other warp's recorded start, or it saw a
    state the oracle would not have shown it yet.
    """

    def __init__(self) -> None:
        self.runs = 0
        self.generations = 0
        self.observed_after_run = 0
        self.violations: list[tuple] = []
        self._last_virtual: dict[int, float] = {}
        self._finishing: dict[int, float] = {}
        self._stack = ExitStack()

    def __enter__(self) -> "RunAheadWatch":
        watch = self
        run = BlockScheduler.run
        run_ahead = _DfsLevelCursor._run_ahead
        cursor_step = _DfsLevelCursor.step
        trace_step = TraceCursor.step
        act = _LonePollers.act
        make_handler = wbm._active_idle_handler

        def block_run(sched):
            watch._last_virtual.clear()
            watch._finishing.clear()
            return run(sched)

        def watched_run_ahead(cursor, ctx, sched, rec, j, room):
            start = ctx.clock
            k = run_ahead(cursor, ctx, sched, rec, j, room)
            if k:
                watch.runs += 1
                watch.generations += k
                # the k-th resumption starts after the first k - 1
                last = start + sum(rec.costs.clock[j + 1 : j + k])
                w = ctx.warp_id
                watch._last_virtual[w] = max(watch._last_virtual.get(w, last), last)
            return k

        def stepping(step):
            def watched_step(task, ctx):
                start = ctx.clock
                watch._finishing.pop(ctx.warp_id, None)
                done = step(task, ctx)
                if done:
                    watch._finishing[ctx.warp_id] = start
                return done

            return watched_step

        def observe(who, key) -> None:
            seen = {w: v for w, v in watch._last_virtual.items() if w != who}
            if seen:
                watch.observed_after_run += 1
            late = {w: v for w, v in seen.items() if v >= key}
            if late:
                watch.violations.append((who, key, late))

        def watched_act(model):
            observe(None, model.key[0])
            return act(model)

        def watched_handler_factory(sched, env):
            handler = make_handler(sched, env)

            def watched_handler(ctx):
                observe(ctx.warp_id, watch._finishing.pop(ctx.warp_id, ctx.clock))
                return handler(ctx)

            return watched_handler

        for target, name, replacement in (
            (BlockScheduler, "run", block_run),
            (_DfsLevelCursor, "_run_ahead", watched_run_ahead),
            (_DfsLevelCursor, "step", stepping(cursor_step)),
            (TraceCursor, "step", stepping(trace_step)),
            (_LonePollers, "act", watched_act),
            (wbm, "_active_idle_handler", watched_handler_factory),
        ):
            self._stack.enter_context(mock.patch.object(target, name, replacement))
        return self

    def __exit__(self, *exc) -> None:
        self._stack.close()


def serve(g0, query, batches, stealing, vectorized, params=PARAMS):
    """Per batch: sorted positives, sorted negatives, ``KernelStats``."""
    service = MatchingService(g0, params=params, vectorized=vectorized)
    config = WBMConfig(work_stealing=stealing, vectorized=vectorized)
    service.register_query(query, config, name="q", bootstrap=False)
    out = []
    for batch in batches:
        result = service.process_batch(batch).queries["q"].result
        out.append(
            (
                sorted(result.positives),
                sorted(result.negatives),
                dataclasses.asdict(result.kernel_stats),
            )
        )
    return out


def steal_heavy():
    """A dense unlabeled query over a small dense graph: frame splits."""
    g0 = attach_labels(power_law_graph(30, 1.8, seed=2), 1, 1, seed=3)
    rng = random.Random(7)
    non = [
        (u, v)
        for u in range(g0.n_vertices)
        for v in range(u + 1, g0.n_vertices)
        if not g0.has_edge(u, v)
    ]
    rng.shuffle(non)
    return g0, [make_batch([("+", u, v, 0) for u, v in non[:24]])]


def workloads():
    """Multi-worker grids: the benchmark's hub schedule (zero matches,
    nearly every generation childless), and steal-heavy dense graphs
    under a query with matches and one with a deeper tree."""
    g0, batch, q = hub_schedule(n_leaves=60, n_inserts=10)
    yield "hub", g0, q, [batch]
    g0, batches = steal_heavy()
    yield "dense", g0, DENSE_Q, batches
    yield "c4_tail", g0, C4_TAIL_Q, batches


class TestRunAheadLockstep:
    @pytest.mark.parametrize("stealing", ["active", "off"])
    def test_multi_worker_grids_match_oracle(self, stealing):
        """Run-ahead fires on these grids and stays invisible: the
        cursor serves what the scalar oracle serves, stats included,
        and no scan or model action sees a warp past its oracle state
        (under active stealing thieves steal and scans follow runs)."""
        steals = runs = observed = 0
        for name, g0, query, batches in workloads():
            oracle = serve(g0, query, batches, stealing, vectorized=False)
            with RunAheadWatch() as watch:
                got = serve(g0, query, batches, stealing, vectorized=True)
            assert got == oracle, name
            assert not watch.violations, (name, watch.violations[:3])
            runs += watch.runs
            observed += watch.observed_after_run
            steals += sum(b["steals"] for _, _, s in got for b in s["blocks"])
        assert runs > 0, "no cursor ran ahead"
        assert (steals > 0) == (stealing == "active")
        assert (observed > 0) == (stealing == "active"), "the invariant saw nothing"

    def test_hub_runs_cover_many_generations(self):
        """On the hub schedule a run covers several childless
        generations: the horizon leaves room beyond one step."""
        g0, batch, q = hub_schedule(n_leaves=60, n_inserts=10)
        with RunAheadWatch() as watch:
            serve(g0, q, [batch], "active", vectorized=True)
        assert watch.generations >= 4 * watch.runs

    def test_passive_never_runs_ahead(self):
        """Passive donations fire inside the DFS loop, so run-ahead is
        off there, as leaf-run batching is."""
        g0, batch, q = hub_schedule(n_leaves=60, n_inserts=10)
        with RunAheadWatch() as watch:
            got = serve(g0, q, [batch], "passive", vectorized=True)
        assert watch.runs == 0
        assert got == serve(g0, q, [batch], "passive", vectorized=False)

    def test_budgeted_launch_never_runs_ahead(self):
        g0, batch, q = hub_schedule(n_leaves=60, n_inserts=10)
        service = MatchingService(g0, params=PARAMS, vectorized=True)
        service.register_query(
            q, WBMConfig(cycle_budget=1e12), name="q", bootstrap=False
        )
        with RunAheadWatch() as watch:
            service.process_batch(batch)
        assert watch.runs == 0


def random_stream(seed, n_batches=2):
    g0 = attach_labels(power_law_graph(34, 2.2, seed=seed), 2, 1, seed=seed + 1)
    rng = random.Random(seed)
    g = g0.copy()
    batches = []
    for _ in range(n_batches):
        edges = list(g.edges())
        rng.shuffle(edges)
        non = [
            (u, v)
            for u in range(g.n_vertices)
            for v in range(u + 1, g.n_vertices)
            if not g.has_edge(u, v)
        ]
        rng.shuffle(non)
        batch = make_batch(
            [("+", u, v, 0) for u, v in non[:10]] + [("-", u, v) for u, v in edges[:4]]
        )
        batches.append(batch)
        apply_batch(g, batch)
    return g0, batches


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    stealing=st.sampled_from(["active", "off"]),
    query=st.sampled_from([CHORD_Q, DENSE_Q, C4_TAIL_Q]),
    warps=st.sampled_from([2, 4, 8]),
    steal_check=st.integers(1, 64),
    transaction=st.integers(1, 80),
    compute=st.integers(1, 4),
    shared=st.integers(1, 8),
)
def test_random_grids_and_params_match_oracle(
    seed, stealing, query, warps, steal_check, transaction, compute, shared
):
    """Random graphs, update streams and device parameters: the cursor
    with run-ahead serves exactly what the oracle serves, and no
    observer ever looks past a run."""
    params = DeviceParams(
        num_sms=2,
        warps_per_block=warps,
        steal_check_cycles=steal_check,
        global_transaction_cycles=transaction,
        compute_cycles=compute,
        shared_access_cycles=shared,
    )
    g0, batches = random_stream(seed)
    oracle = serve(g0, query, batches, stealing, vectorized=False, params=params)
    with RunAheadWatch() as watch:
        got = serve(g0, query, batches, stealing, vectorized=True, params=params)
    assert got == oracle
    assert not watch.violations, watch.violations[:3]


def clock_ahead_by_loop(fs) -> int:
    """``_FrameStack.clock_ahead`` by its definition: per frame holding a
    record, the recorded clock costs of its unconsumed candidates."""
    total = 0
    for d in range(fs.depth):
        rec = fs.rec[d]
        if rec is not None:
            at = fs.base[d] - fs.start[d]
            total += sum(rec.costs.clock[at + fs.p[d] : at + fs.end[d]])
    return total


@pytest.mark.parametrize("stealing", ["active", "passive", "off"])
def test_clock_ahead_running_total(stealing):
    """The frame stack's running ``clock_ahead`` equals the loop over its
    frames after every cursor step, for every cursor of the block (a
    thief's cut lands on a victim between the victim's steps), while
    frames attach, consume, run ahead, are stolen from and pop."""
    checked = []
    step = _DfsLevelCursor.step

    def checking(cursor, ctx):
        done = step(cursor, ctx)
        sched = cursor.env.sched
        cursors = [cursor] if sched is None else sched.generators.values()
        for task in cursors:
            if type(task) is _DfsLevelCursor and task.state is not None:
                fs = task.state["frames"]
                assert fs.clock_ahead == clock_ahead_by_loop(fs)
                checked.append(fs.clock_ahead)
        return done

    with mock.patch.object(_DfsLevelCursor, "step", checking):
        for name, g0, query, batches in workloads():
            assert serve(g0, query, batches, stealing, True) == serve(
                g0, query, batches, stealing, False
            ), name
    assert any(checked)
