"""Level-stepped DFS workers vs the generator oracle.

The vectorized path runs each WBM DFS worker as a
:class:`~repro.matching.dfs._DfsLevelCursor`: one resumable step per
DFS level, frame bookkeeping in Python int lists, per-level candidate
generation batched and priced as recorded cost segments. The contract
is the repo's flag-with-oracle convention at its strictest — the
cursor must be **invisible in everything modeled**:

* identical matches, ``KernelStats`` and ``BlockStats`` (byte for
  byte) against the full scalar oracle (``vectorized=False``: generator
  workers over the dict-walk Gen-Candidates), across randomized seeded
  graphs, mixed update streams, every stealing mode, and steal-heavy
  schedules (mirroring ``tests/test_gpu_pooling.py``);
* identical per-warp cycle accounting — the final clock and busy
  cycles of every warp of every block;
* identical budget aborts: a cycle budget trips at the same check with
  the same matches so far, inside a leaf run, after a recorded entry
  charge, and in lone- and multi-worker blocks, under every stealing
  mode;
* identical results with the level pass bounded to nothing, so that
  every generation runs inline;
* identical frozen history: the fixed-seed serving workloads recorded
  in ``tests/data/baseline_kernel_*.json`` replay byte-identically on
  both execution arms.
"""

import dataclasses
import json
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from kernel_baseline_workloads import PARAMS, WORKLOADS, run_workload
from repro import xp
from repro.errors import BudgetExceeded, ConfigMismatchError
from repro.filtering import CandidateTable
from repro.graph.generators import attach_labels, power_law_graph
from repro.graph.labeled_graph import LabeledGraph, canonical
from repro.graph.updates import apply_batch, make_batch
from repro.gpu import DeviceParams, Int64Arena, VirtualGPU
from repro.gpu.memory import GlobalMemory, SharedMemory
from repro.gpu.scheduler import BlockScheduler
from repro.gpu.stats import BlockStats
from repro.gpu.warp import WarpContext
from repro.matching import WBMConfig, dfs, entry_pass, gen_candidates, level_batch
from repro.matching.coalesced import trivial_plan
from repro.matching.dfs import _FrameStack, _steal_from
from repro.matching.launch_env import KernelOutput, PhaseEdges, _Env, _MemoryGauge
from repro.matching import stealing as stealing_mod
from repro.matching.stealing import _NOOP_PROBE
from repro.matching.wbm import QueryRuntime, working_items
from repro.pipeline import GammaSystem
from repro.service import MatchingService
from repro.service.store import DynamicGraphStore

DATA = Path(__file__).parent / "data"

CHORD_Q = LabeledGraph.from_edges([0, 1, 0, 1], [(0, 1), (1, 2), (2, 3), (0, 2)])
DENSE_Q = LabeledGraph.from_edges(
    [0, 0, 0, 0], [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3)]
)
#: a C4 with a pendant vertex: its level-3 frames generate children,
#: on hubs in the hub-heavy graph
C4_TAIL_Q = LabeledGraph.from_edges(
    [0, 0, 0, 0, 0], [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)]
)

#: the two execution arms: arm name -> config.vectorized
ARMS = {
    "cursor": True,  # level-stepped cursors, fused Gen-Candidates
    "oracle": False,  # the full scalar oracle
}


def stats_dict(kernel_stats):
    return dataclasses.asdict(kernel_stats)


def fresh_ctx() -> WarpContext:
    """A warp context with nothing charged yet."""
    return WarpContext(0, PARAMS, SharedMemory(PARAMS), GlobalMemory(PARAMS), BlockStats(n_warps=1))


def random_graph(seed, n=36, n_labels=2):
    return attach_labels(power_law_graph(n, 3.0, seed=seed), n_labels, 1, seed=seed + 1)


def random_batch(g, rng, k=10):
    edges = list(g.edges())
    rng.shuffle(edges)
    non = [
        (u, v)
        for u in range(g.n_vertices)
        for v in range(u + 1, g.n_vertices)
        if not g.has_edge(u, v)
    ]
    rng.shuffle(non)
    return make_batch(
        [("+", u, v, 0) for u, v in non[: k // 2]]
        + [("-", u, v) for u, v in edges[: k // 2]]
    )


def mixed_stream(seed, n_batches=3):
    g0 = random_graph(seed)
    rng = random.Random(seed + 1)
    batches = []
    g = g0.copy()
    for _ in range(n_batches):
        batch = random_batch(g, rng)
        batches.append(batch)
        apply_batch(g, batch)
    return g0, batches


def run_stream(
    g0,
    query,
    batches,
    *,
    stealing="active",
    vectorized=True,
    gpu_vectorized=None,
    config_extra=None,
):
    """One serving run; returns the per-batch (positives, negatives,
    kernel stats) triples the lockstep assertions compare."""
    service = MatchingService(g0, params=PARAMS, vectorized=vectorized)
    config = WBMConfig(
        work_stealing=stealing, vectorized=vectorized, **(config_extra or {})
    )
    service.register_query(query, config, name="q", bootstrap=False)
    if gpu_vectorized is not None:
        service.runtime("q").gpu = VirtualGPU(PARAMS, vectorized=gpu_vectorized)
    out = []
    for batch in batches:
        rep = service.process_batch(batch)
        qr = rep.queries["q"]
        out.append(
            (
                sorted(qr.result.positives),
                sorted(qr.result.negatives),
                stats_dict(qr.result.kernel_stats),
            )
        )
    return out


# ---------------------------------------------------------------------------
# budget sweep: every trip site of the cursor against the generator oracle
# ---------------------------------------------------------------------------
#: path queries for the budget sweep: with coalescing off every level
#: opens a frame, level 3 of the 4-path is a leaf run, and the 5-path
#: adds a recorded Gen-Candidates level below the entry frame
SWEEP_QUERIES = (
    LabeledGraph.from_edges([0, 1, 0, 1], [(0, 1), (1, 2), (2, 3)]),
    LabeledGraph.from_edges([0, 1, 0, 1, 0], [(0, 1), (1, 2), (2, 3), (3, 4)]),
)
SWEEP_PARAMS = DeviceParams(num_sms=2, warps_per_block=8)
SWEEP_STEPS = 60


class BudgetSweep:
    """Launch-level budget lockstep between the cursor and the generator
    oracle, each runtime on its own store. Every budget check of either
    side goes through :meth:`_check`, which records the oracle's running
    totals and classifies where the cursor tripped."""

    def __init__(self, monkeypatch) -> None:
        self.g = random_graph(3)
        g = self.g
        self.edges = [(u, v, g.edge_label(u, v)) for u, v in g.edges()]
        self.fill = [
            (u, v, 7)
            for u in range(g.n_vertices)
            for v in range(u + 1, g.n_vertices)
            if not g.has_edge(u, v)
        ][:16]
        self.totals: list[float] = []
        self.sites: dict[str, int] = {}
        #: contexts that paid a recorded entry charge since their last check
        self.entry_charged: set[int] = set()
        self._real_check = _Env.check_budget
        self._real_charge = dfs._charge_gen
        monkeypatch.setattr(_Env, "check_budget", lambda env, ctx: self._check(env, ctx))
        monkeypatch.setattr(dfs, "_charge_gen", self._entry_charge)

    def _entry_charge(self, ctx, *charge) -> None:
        self.entry_charged.add(id(ctx))
        self._real_charge(ctx, *charge)

    def _check(self, env, ctx) -> None:
        after_entry = id(ctx) in self.entry_charged
        self.entry_charged.discard(id(ctx))
        try:
            self._real_check(env, ctx)
        except BudgetExceeded:
            if env.config.vectorized:
                self._classify(env, ctx, after_entry)
            raise
        if not env.config.vectorized:
            self.totals.append(env.spent_cycles)

    def _classify(self, env, ctx, after_entry: bool) -> None:
        [(_, sched)] = ctx.shared.peek_present(("_sched",))
        working = sum(task is not _NOOP_PROBE for task in sched.tasks)
        found = ["lone block" if working == 1 else "multi block"]
        [(_, state)] = ctx.shared.peek_present((dfs._state_name(ctx.warp_id),))
        fs = state["frames"]
        d = fs.depth - 1
        if fs.level[d] == env.n - 1 and fs.start[d] < fs.p[d] < fs.end[d]:
            found.append("leaf run")  # a leaf emitted, one still to go
        if after_entry:
            found.append("entry charge")
        for site in found:
            self.sites[site] = self.sites.get(site, 0) + 1

    def pair(self, query, stealing, budget):
        runtimes = []
        for vec in (True, False):
            store = DynamicGraphStore(self.g, SWEEP_PARAMS, vectorized=vec)
            config = WBMConfig(
                work_stealing=stealing,
                coalesced=False,
                vectorized=vec,
                cycle_budget=budget,
            )
            runtimes.append(QueryRuntime(query, store, SWEEP_PARAMS, config))
        return runtimes

    def grids(self, query):
        """Two lone-worker launches (the worker first and mid-block, 16
        warps) and one with six workers over two blocks."""
        cursor, _ = self.pair(query, "active", None)
        phase = PhaseEdges(self.edges)
        [items] = working_items(phase, cursor.store.csr_snapshot(), [cursor])
        working = [self.edges[i] for i in sorted(items)]

        def grid(work, positions):
            work, fill = iter(work), iter(self.fill)
            return [next(work) if i in positions else next(fill) for i in range(16)]

        return [grid(working[5:], {0}), grid(working[7:], {3}), grid(working, {1, 2, 4, 6, 9, 12})]

    def run(self, stealing: str) -> dict[str, int]:
        self.sites = {}
        for query in SWEEP_QUERIES:
            for launch in self.grids(query):
                self.totals = []
                self.pair(query, stealing, float("inf"))[1].launch(launch)
                # budget t - 1 trips at the first check whose total
                # reaches t: the oracle's checks in turn, at most
                # ``SWEEP_STEPS`` of them evenly spread per launch
                totals = sorted(set(self.totals))
                for total in totals[:: -(-len(totals) // SWEEP_STEPS)]:
                    cursor, oracle = self.pair(query, stealing, total - 1)
                    a, b = cursor.launch(launch), oracle.launch(launch)
                    assert b.aborted
                    assert a.matches == b.matches
                    assert a.aborted == b.aborted
                    assert a.peak_stack_words == b.peak_stack_words
                complete = [rt.launch(launch) for rt in self.pair(query, stealing, max(self.totals))]
                assert not complete[0].aborted and not complete[1].aborted
                assert complete[0].matches == complete[1].matches
                assert stats_dict(complete[0].stats) == stats_dict(complete[1].stats)
        return self.sites


# ---------------------------------------------------------------------------
# randomized lockstep: cursor vs scalar oracle
# ---------------------------------------------------------------------------
class TestLevelStepLockstep:
    @pytest.mark.parametrize("stealing", ["active", "passive", "off"])
    @pytest.mark.parametrize("seed", [1, 4, 8])
    def test_mixed_stream_lockstep(self, stealing, seed):
        """Seeded graphs + mixed update streams: both arms emit
        byte-identical matches and stats, batch by batch."""
        g0, batches = mixed_stream(seed)
        runs = {
            arm: run_stream(g0, CHORD_Q, batches, stealing=stealing, vectorized=vec)
            for arm, vec in ARMS.items()
        }
        assert runs["cursor"] == runs["oracle"]

    def test_steal_heavy_schedule_lockstep(self):
        """A dense unlabeled query on a small dense graph forces real
        frame splits; the cursor's array-truncation steal must match
        the oracle's list-truncation steal exactly."""
        g0 = attach_labels(power_law_graph(30, 1.8, seed=2), 1, 1, seed=3)
        rng = random.Random(7)
        non = [
            (u, v)
            for u in range(g0.n_vertices)
            for v in range(u + 1, g0.n_vertices)
            if not g0.has_edge(u, v)
        ]
        rng.shuffle(non)
        batches = [make_batch([("+", u, v, 0) for u, v in non[:24]])]
        runs = {
            arm: run_stream(g0, DENSE_Q, batches, stealing="active", vectorized=vec)
            for arm, vec in ARMS.items()
        }
        assert runs["cursor"] == runs["oracle"]
        steals = sum(b["steals"] for b in runs["cursor"][0][2]["blocks"])
        assert steals > 0, "schedule must actually exercise stealing"

    @pytest.mark.parametrize("stealing", ["active", "passive", "off"])
    def test_thieves_adopt_recorded_tails(self, stealing, monkeypatch):
        """A frame steal hands the thief its tail's offset into the
        level pass's record: thieves (active and passive) adopt the
        recorded children instead of regenerating them, no frame
        generates inline, and every mode serves as the oracle does."""
        g0 = attach_labels(power_law_graph(30, 1.8, seed=2), 1, 1, seed=3)
        rng = random.Random(7)
        non = [
            (u, v)
            for u in range(g0.n_vertices)
            for v in range(u + 1, g0.n_vertices)
            if not g0.has_edge(u, v)
        ]
        rng.shuffle(non)
        batches = [make_batch([("+", u, v, 0) for u, v in non[:24]])]
        oracle = run_stream(g0, C4_TAIL_Q, batches, stealing=stealing, vectorized=False)
        adopted, inline = [], []
        real_loot, real_children = dfs._loot_items, dfs._level_children

        def loot_items(victim, loot):
            items = real_loot(victim, loot)
            adopted.extend(item for item in items if item.get("rec") is not None)
            return items

        def children(*args):
            inline.append(args)
            return real_children(*args)

        monkeypatch.setattr(dfs, "_loot_items", loot_items)
        monkeypatch.setattr(stealing_mod, "_loot_items", loot_items)
        monkeypatch.setattr(dfs, "_level_children", children)
        assert run_stream(g0, C4_TAIL_Q, batches, stealing=stealing) == oracle
        assert not inline
        assert bool(adopted) == (stealing != "off")
        if adopted:
            assert {item["level"] for item in adopted} >= {2, 3}, "tails at every level"

    def test_cursor_on_oracle_launch_machinery(self):
        """Level cursors driven by the per-block generator-oracle
        scheduler (no pooling, op-by-op traces) still price identically
        — the cursor is a task form, not a scheduler mode."""
        g0, batches = mixed_stream(5)
        a = run_stream(g0, CHORD_Q, batches)
        b = run_stream(g0, CHORD_Q, batches, gpu_vectorized=False)
        assert a == b

    @pytest.mark.parametrize("seed", [3, 9])
    def test_per_warp_cycle_accounting(self, seed, monkeypatch):
        """Final clock and busy cycles of every warp of every scheduled
        block agree between the cursor and the generator oracle."""
        captured = {}
        sink = None
        orig_run = BlockScheduler.run

        def recording_run(self):
            stats = orig_run(self)
            sink.append(
                [(ctx.clock, ctx.busy_cycles) for ctx in self.contexts]
            )
            return stats

        monkeypatch.setattr(BlockScheduler, "run", recording_run)
        g0, batches = mixed_stream(seed)
        # block memoization needs a vectorized device, so the cursor runs
        # on the per-block scheduler: both sides then schedule every
        # block and the per-warp lists line up one to one
        sink = captured["cursor"] = []
        run_stream(g0, CHORD_Q, batches, gpu_vectorized=False)
        sink = captured["oracle"] = []
        run_stream(g0, CHORD_Q, batches, vectorized=False)
        assert captured["cursor"], "expected scheduled blocks"
        assert captured["cursor"] == captured["oracle"]

    def test_budget_abort_lockstep(self, monkeypatch):
        """A cycle budget trips at the same modeled point on both worker
        forms: a served stream, then a launch-level sweep that trips at
        the oracle's budget checks in turn, under every stealing mode.
        The sweep must trip inside a leaf run (the cursor's per-leaf
        fallback), at the first check after a recorded entry charge, in
        a lone-worker block and in a multi-worker block."""
        g0, batches = mixed_stream(11, n_batches=1)
        runs = {
            arm: run_stream(
                g0,
                CHORD_Q,
                batches,
                vectorized=vec,
                config_extra={"cycle_budget": 400.0},
            )
            for arm, vec in ARMS.items()
        }
        assert runs["cursor"] == runs["oracle"]

        sweep = BudgetSweep(monkeypatch)
        for stealing in ("active", "passive", "off"):
            sites = sweep.run(stealing)
            assert set(sites) == {"leaf run", "entry charge", "lone block", "multi block"}, (
                stealing,
                sites,
            )

    def test_multiquery_shared_store_lockstep(self):
        """Several runtimes over one shared store: per-query matches and
        stats stay identical between the vectorized and the oracle
        service."""
        g0, batches = mixed_stream(13)
        queries = {
            "chord": CHORD_Q,
            "path": LabeledGraph.from_edges([0, 1, 0], [(0, 1), (1, 2)]),
        }
        results = {}
        for vec in (True, False):
            service = MatchingService(g0, params=PARAMS, vectorized=vec)
            for name, q in queries.items():
                service.register_query(
                    q, WBMConfig(vectorized=vec), name=name, bootstrap=False
                )
            stream = []
            for batch in batches:
                rep = service.process_batch(batch)
                stream.append(
                    {
                        name: (
                            sorted(qr.result.positives),
                            sorted(qr.result.negatives),
                            stats_dict(qr.result.kernel_stats),
                        )
                        for name, qr in rep.queries.items()
                    }
                )
            results[vec] = stream
        assert results[True] == results[False]


# ---------------------------------------------------------------------------
# launch-wide fused Gen-Candidates: fused cursor vs scalar oracle
# ---------------------------------------------------------------------------
def hub_heavy_workload(n_inserts=12, leaf_labels=1):
    """5 hubs × 120 leaves, each leaf wired to 3 of the 5 hubs (hub
    degree 72): C4 matching anchors its level-3 prefix runs on hub
    pairs, so sibling warp tasks stage shared-anchor frames. Leaf ``j``
    has label ``j % leaf_labels``: with two labels a hub's first stage
    keeps ~36 of its 72 leaves."""
    n_hubs, n_leaves = 5, 120
    g = LabeledGraph([0] * n_hubs + [j % leaf_labels for j in range(n_leaves)])
    missing = []
    for j in range(n_leaves):
        leaf = n_hubs + j
        for i in range(n_hubs):
            if (i + j) % 5 < 3:
                g.add_edge(i, leaf, 0)
            else:
                missing.append((i, leaf))
    batch = make_batch([("+", u, v, 0) for u, v in missing[:n_inserts]])
    c4 = LabeledGraph.from_edges([0, 0, 0, 0], [(0, 1), (1, 2), (2, 3), (0, 3)])
    return g, c4, [batch]


class TestFusedGenLockstep:
    """Launch-wide fused Gen-Candidates vs the scalar oracle.

    The fused machinery (sibling frames batched at the level barrier)
    must be invisible in matches and in every modeled number across
    stealing modes and shared-anchor-heavy schedules.
    """

    @pytest.mark.parametrize("stealing", ["active", "passive", "off"])
    @pytest.mark.parametrize("seed", [2, 6])
    def test_mixed_stream_fused_vs_unfused(self, stealing, seed):
        """Seeded mixed streams: the fused cursor equals the oracle."""
        g0, batches = mixed_stream(seed)
        fused = run_stream(g0, CHORD_Q, batches, stealing=stealing)
        oracle = run_stream(
            g0, CHORD_Q, batches, stealing=stealing, vectorized=False
        )
        assert fused == oracle

    @pytest.mark.parametrize("stealing", ["active", "off"])
    def test_hub_heavy_shared_anchor_lockstep(self, stealing):
        """Shared-anchor-heavy schedule: fused sibling batches on, still
        byte-identical to the full scalar oracle."""
        g0, q, batches = hub_heavy_workload()
        fused = run_stream(g0, q, batches, stealing=stealing)
        oracle = run_stream(g0, q, batches, stealing=stealing, vectorized=False)
        assert fused == oracle

    def test_bench_hub_schedule_lockstep(self):
        """The benchmark's hub-heavy schedule (bipartite hub graph,
        5-cycle query → zero matches, pure Gen-Candidates work) at
        test scale: fused sibling batches fire, still byte-identical to
        the scalar oracle."""
        from repro.bench.workloads import hub_schedule

        g0, batch, q = hub_schedule(n_leaves=60, n_inserts=10)
        batches = [batch]
        fused = run_stream(g0, q, batches)
        oracle = run_stream(g0, q, batches, vectorized=False)
        assert fused[0][0] == []  # bipartite host: the 5-cycle never closes
        assert fused == oracle

    def test_steal_heavy_fused_vs_unfused(self):
        """Frame splits under active stealing with the coalescer armed:
        prefetched children ride along with the truncation-based steal
        protocol without drifting from the oracle's schedule."""
        g0 = attach_labels(power_law_graph(30, 1.8, seed=2), 1, 1, seed=3)
        rng = random.Random(7)
        non = [
            (u, v)
            for u in range(g0.n_vertices)
            for v in range(u + 1, g0.n_vertices)
            if not g0.has_edge(u, v)
        ]
        rng.shuffle(non)
        batches = [make_batch([("+", u, v, 0) for u, v in non[:24]])]
        fused = run_stream(g0, DENSE_Q, batches, stealing="active")
        oracle = run_stream(
            g0, DENSE_Q, batches, stealing="active", vectorized=False
        )
        assert fused == oracle
        steals = sum(b["steals"] for b in fused[0][2]["blocks"])
        assert steals > 0, "schedule must actually exercise stealing"

    def test_coalescer_fires(self, monkeypatch):
        """The machinery is actually on the hot path: the hub-heavy
        schedules produce fused batches of sibling requests."""
        fused = []
        real = dfs._level_children

        def counting(env, group, lv, requests, params):
            # a single request is one frame's own generation; only a
            # batch of sibling requests is a fusion
            fused.append(len(requests) >= 2)
            return real(env, group, lv, requests, params)

        monkeypatch.setattr(dfs, "_level_children", counting)
        g0, q, batches = hub_heavy_workload()
        run_stream(g0, q, batches)
        # the host's level pass records the 4-vertex query's every
        # level; the tailed C4's level-3 frames pass its bound, so the
        # ones past it generate inline, and siblings fuse
        run_stream(g0, C4_TAIL_Q, batches)
        assert any(fused), "sibling frames must fuse"


# ---------------------------------------------------------------------------
# host-side size switches: both sides of each produce the oracle's run
# ---------------------------------------------------------------------------
#: (size-switch constant, forced value) -> (functions that must run,
#: functions that must not run) on the vectorized path
SIZE_SWITCHES = {
    ("_ENTRY_PASS_MAX", 0): (("_entry_candidates", "_level_children", "_narrow_level"), ()),
}
#: Gen-Candidates functions the switch tests count calls of: every call
#: site reads them from the globals of one of ``GEN_MODULES``, so
#: patching every binding there reaches them all
COUNTED = (
    "_narrow_level", "_candidates_scalar", "_gen_candidates", "_entry_candidates",
    "_level_children",
)
#: the modules that define or import the Gen-Candidates helpers and
#: the size switches
GEN_MODULES = (gen_candidates, level_batch, entry_pass, dfs)


def patch_everywhere(m, fn_name, replacement):
    """Install ``replacement`` for ``fn_name`` in every ``GEN_MODULES``
    binding of the original, through the monkeypatch context ``m``."""
    original = next(getattr(mod, fn_name) for mod in GEN_MODULES if hasattr(mod, fn_name))
    for mod in GEN_MODULES:
        if getattr(mod, fn_name, None) is original:
            m.setattr(mod, fn_name, replacement)


def switch_owner(name):
    """The module a size switch is defined in (and read from)."""
    return next(mod for mod in GEN_MODULES if hasattr(mod, name))


def switch_workloads():
    g0, batches = mixed_stream(4)
    yield "mixed", g0, CHORD_Q, batches
    g0, c4, batches = hub_heavy_workload(leaf_labels=2)
    yield "hub", g0, c4, batches
    # the level pass records the 4-vertex queries' every level; the
    # tailed C4's level-3 frames pass its bound, so most of them
    # generate inline
    yield "hub_tail", g0, C4_TAIL_Q, batches


@pytest.fixture(scope="module")
def switch_oracles():
    """Scalar-oracle runs of every switch workload per stealing mode."""
    return {
        (workload, stealing): run_stream(
            g0, q, batches, stealing=stealing, vectorized=False
        )
        for workload, g0, q, batches in switch_workloads()
        for stealing in ("active", "off")
    }


def counted_run(monkeypatch, g0, q, batches, stealing, setting=None):
    """One vectorized run with ``setting`` = ``(constant, value)``
    forced; returns the run and the call count of every ``COUNTED``
    function."""
    calls = dict.fromkeys(COUNTED, 0)

    def counted(fn_name, fn):
        def wrapper(*a, **k):
            calls[fn_name] += 1
            return fn(*a, **k)

        return wrapper

    with monkeypatch.context() as m:
        if setting is not None:
            m.setattr(switch_owner(setting[0]), *setting)
        for fn_name in COUNTED:
            original = getattr(switch_owner(fn_name), fn_name)
            patch_everywhere(m, fn_name, counted(fn_name, original))
        run = run_stream(g0, q, batches, stealing=stealing)
    return run, calls


class TestSizeSwitches:
    """``_ENTRY_PASS_MAX`` (the level pass's element bound) only picks
    a host strategy. Forcing it to zero, so that every generation runs
    inline through the array primitive, must leave every match and
    modeled number equal to the scalar oracle."""

    @pytest.mark.parametrize("stealing", ["active", "off"])
    @pytest.mark.parametrize(
        "switch", list(SIZE_SWITCHES), ids=lambda sw: f"{sw[0]}={sw[1]}"
    )
    def test_both_sides_match_oracle(
        self, switch, stealing, switch_oracles, monkeypatch
    ):
        must_run, must_not_run = SIZE_SWITCHES[switch]
        calls = dict.fromkeys(COUNTED, 0)
        for workload, g0, q, batches in switch_workloads():
            fast, counts = counted_run(
                monkeypatch, g0, q, batches, stealing, setting=switch
            )
            assert fast == switch_oracles[workload, stealing], workload
            for fn_name, n in counts.items():
                calls[fn_name] += n
        name, value = switch
        for fn_name in must_run:
            assert calls[fn_name] > 0, f"{name}={value} must force {fn_name}"
        for fn_name in must_not_run:
            assert calls[fn_name] == 0, f"{name}={value} bypasses {fn_name}"
        # the scalar Gen-Candidates is the oracle only: the fast path
        # never calls it
        assert calls["_gen_candidates"] == calls["_candidates_scalar"] == 0


#: labelled query the narrowing property draws target vertices from
NARROW_Q = LabeledGraph.from_edges(
    [0, 1, 0, 1], [(0, 1, 0), (1, 2, 1), (2, 3, 0), (0, 2, 0), (1, 3, 0)]
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1))
def test_narrow_equals_scalar_oracle(seed):
    """The array primitive ``_narrow_level`` (one request and several)
    returns the dict walk's candidates, in order, on random labelled
    graphs (a hub included), partial assignments, short candidacy
    columns and rank maps; its charge is the oracle's, and so are the
    single entry call's candidates and charge."""
    gen = gen_candidates
    rng = random.Random(seed)
    n = rng.randint(6, 90)
    edges = {}
    hub = rng.randrange(n)
    for v in range(n):
        if v != hub and rng.random() < 0.8:
            edges[min(hub, v), max(hub, v)] = rng.randrange(2)
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.sample(range(n), 2)
        edges[min(u, v), max(u, v)] = rng.randrange(2)
    g = LabeledGraph.from_edges(
        [rng.randrange(2) for _ in range(n)], [(u, v, l) for (u, v), l in edges.items()]
    )
    # the target, its matched neighbors (the anchor first), and a few
    # more assigned query vertices for injectivity
    qv = rng.randrange(NARROW_Q.n_vertices)
    nbrs = list(NARROW_Q.neighbors(qv))
    rng.shuffle(nbrs)
    matched = nbrs[: rng.randint(1, len(nbrs))]
    rest = [u for u in NARROW_Q.vertices() if u != qv and u not in matched]
    assigned = matched[1:] + [u for u in rest if rng.random() < 0.5]
    anchor, others = matched[0], matched[1:]
    anchor_dv = hub if rng.random() < 0.5 else rng.randrange(n)
    free = [v for v in range(n) if v != anchor_dv]
    assign = {anchor: anchor_dv, **dict(zip(assigned, rng.sample(free, len(assigned))))}
    # net-update edges in a random rank order, some not in the graph
    pool = list(edges) + [tuple(sorted(rng.sample(range(n), 2))) for _ in range(5)]
    rng.shuffle(pool)
    phase = PhaseEdges([(u, v, 0) for u, v in pool[: rng.randint(0, len(pool))]])
    rank = rng.randint(0, len(phase) + 1)
    col = xp.asarray([rng.random() < 0.8 for _ in range(rng.randint(n - 3, n))], dtype=bool)
    env = _Env(
        NARROW_Q, g, CandidateTable(NARROW_Q, g), trivial_plan(NARROW_Q),
        phase, WBMConfig(), KernelOutput(),
    )

    def as_list(got):
        return got if isinstance(got, list) else xp.to_numpy(got).tolist()

    # the entry call against the oracle, with ``col`` as ``qv``'s exact
    # column (a trivial plan's every column); the assignment may hold
    # more of ``qv``'s neighbors than ``matched``
    group = trivial_plan(NARROW_Q).groups[0]
    level = group.full_order.index(qv)
    bitmap = xp.zeros((len(col), NARROW_Q.n_vertices), dtype=bool)
    bitmap[:, qv] = col
    env.bitmap = bitmap
    got, charge = level_batch._entry_candidates(env, group, assign, level, rank)
    ctx = fresh_ctx()
    want = gen._gen_candidates(ctx, env, group, group.full_order, assign, level, rank)
    assert as_list(got) == want
    replay = fresh_ctx()
    gen._charge_gen(replay, *charge)
    assert (replay.clock, replay.busy_cycles, replay.stats) == (
        ctx.clock, ctx.busy_cycles, ctx.stats,
    )
    # the array primitive: children of the frame vertex ``anchor`` on
    # top of the prefix, one request each, alone and batched, over the
    # same (possibly short) column as the stack's only column
    prefix = {u: dv for u, dv in assign.items() if u != anchor}
    unassigned = [v for v in range(n) if v not in prefix.values()]
    kids = rng.sample(unassigned, rng.randint(1, min(6, len(unassigned))))
    wants = [
        gen._candidates_scalar(env, {**prefix, anchor: c}, qv, anchor, others, col, rank)
        for c in kids
    ]
    slots = list(prefix) + [anchor]
    snap = level_batch._Snapshot(env.csr, col[:, None], phase)
    for batch in ([kids[0]], kids):
        k, m = len(batch), len(matched)
        rows = xp.asarray(
            [[prefix[u] for u in slots[:-1]] + [c] for c in batch], dtype=xp.int64
        ).reshape(k, len(slots))
        vals, counts, charge = level_batch._narrow_level(
            snap, rows,
            xp.asarray([[slots.index(w) for w in matched]] * k, dtype=xp.int64),
            xp.asarray([[NARROW_Q.edge_label(qv, w) for w in matched]] * k, dtype=xp.int64),
            xp.full(k, NARROW_Q.vertex_label(qv), dtype=xp.int64),
            xp.zeros(k, dtype=xp.int64),
            xp.full(k, rank, dtype=xp.int64),
        )
        assert len(counts) == k
        ends = xp.to_numpy(xp.cumsum(counts)).tolist()
        got = [as_list(vals[b - c : b]) for b, c in zip(ends, xp.to_numpy(counts).tolist())]
        assert got == wants[:k]
        degs = [[g.degree(prefix[w]) if w != anchor else g.degree(c) for w in matched] for c in batch]
        assert [xp.to_numpy(c).tolist() for c in charge] == [
            [min(d) for d in degs], [m - 1] * k, [sum(d) - min(d) for d in degs],
        ]


#: the level property's standing queries: ``k`` keeps k=1 coalesced
#: groups (orbit-union columns), the pendant of ``tail`` and the ends
#: of ``path`` put levels whose frame vertex is not matched to the
#: target, and every one reaches levels past the entry pass
LEVEL_QUERIES = {
    "k": LabeledGraph.from_edges([0, 0, 0, 1, 2], [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]),
    "tail": C4_TAIL_Q,
    "path": LabeledGraph.from_edges([0, 0, 1, 0, 0], [(0, 1), (1, 2), (2, 3), (3, 4)]),
}


def serve_level_queries(g0, batches, stealing, vectorized):
    """Every ``LEVEL_QUERIES`` query on one service; per batch and query
    the matches and the kernel stats."""
    service = MatchingService(g0, params=PARAMS, vectorized=vectorized)
    config = WBMConfig(work_stealing=stealing, vectorized=vectorized)
    for name, q in LEVEL_QUERIES.items():
        service.register_query(q, config, name=name, bootstrap=False)
    out = []
    for batch in batches:
        rep = service.process_batch(batch)
        out.append(
            {
                name: (sorted(r.result.positives), sorted(r.result.negatives),
                       stats_dict(r.result.kernel_stats))
                for name, r in rep.queries.items()
            }
        )
    return out


def level_grid(seed):
    """A random labelled graph with three hubs (degree past 64) and two
    batches: random inserts and deletes plus a near-clique inserted in
    one phase, so update edges of one phase meet in the same matches
    and the rank rule blocks some. The
    hubs carry labels 1, 2 and 0, so most vertices see every label and
    ``k``'s orbit-union columns stay inside the coalescing gate."""
    rng = random.Random(seed)
    n = rng.randint(70, 100)
    g = LabeledGraph([1, 2, 0] + [rng.choice((0, 0, 0, 1, 2)) for _ in range(n - 3)])
    for hub in (0, 1, 2):
        for v in range(3, n):
            if rng.random() < 0.9:
                g.add_edge(hub, v, 0)
    for _ in range(rng.randint(n, 2 * n)):
        u, v = rng.sample(range(3, n), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, 0)
    shadow = g.copy()
    batches = []
    for clique_size in (6, 0):
        clique = rng.sample(range(n), clique_size)
        ins = {(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :]}
        ins |= {tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(2, 6))}
        ins = sorted({canonical(u, v) for u, v in ins if not shadow.has_edge(u, v)})
        dels = rng.sample(sorted(shadow.edges()), rng.randint(2, 6))
        batch = make_batch([("+", u, v) for u, v in ins] + [("-", u, v) for u, v in dels])
        apply_batch(shadow, batch)
        batches.append(batch)
    return g, batches


def test_level_primitive_property():
    """Every inline level generation through the array primitive, with
    the step coalescer fusing sibling classes, serves exactly as the
    ``vectorized=False`` oracle: matches and ``KernelStats``. With the
    entry pass off (a zero bound) the inline entry call and the level
    generation also produce every entry and entry frame. The grids cover
    k>0 groups, levels whose frame vertex is not matched to the target,
    hub anchors and rank-blocked candidates."""
    seen = dict.fromkeys(("fused", "k>0", "unmatched frame", "hub anchor", "rank blocked"), 0)
    real_children = dfs._level_children
    real_narrow = level_batch._narrow_level
    real_blocked = level_batch._Snapshot.rank_blocked

    def children(env, group, lv, requests, params):
        order = group.full_order
        seen["fused"] += len(requests) > 1
        seen["k>0"] += group.k > 0
        seen["unmatched frame"] += order[lv] not in env.query.neighbors(order[lv + 1])
        return real_children(env, group, lv, requests, params)

    inside = []  # non-empty while the level batching narrows

    def narrow(snap, *args, **kwargs):
        inside.append(True)
        try:
            out = real_narrow(snap, *args, **kwargs)
        finally:
            inside.pop()
        # an anchor of more than 64 neighbors
        seen["hub anchor"] += bool((out[2][0] > 64).any())
        return out

    def blocked(snap, *args):
        hit = real_blocked(snap, *args)
        seen["rank blocked"] += bool(inside) and bool(hit.any())
        return hit

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**31 - 1),
        stealing=st.sampled_from(["active", "passive", "off"]),
        entry_max=st.sampled_from([0, entry_pass._ENTRY_PASS_MAX]),
    )
    def prop(seed, stealing, entry_max):
        g0, batches = level_grid(seed)
        with mock.patch.object(entry_pass, "_ENTRY_PASS_MAX", entry_max), mock.patch.object(
            dfs, "_level_children", children
        ), mock.patch.object(level_batch, "_narrow_level", narrow), mock.patch.object(
            level_batch._Snapshot, "rank_blocked", blocked
        ):
            fast = serve_level_queries(g0, batches, stealing, True)
        assert fast == serve_level_queries(g0, batches, stealing, False)

    prop()
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# array backend matrix: the same lockstep + golden contracts per backend
# ---------------------------------------------------------------------------
@pytest.mark.backend_matrix
class TestBackendMatrix:
    """Re-run the flag-with-oracle contracts under every registered
    ``repro.xp`` backend (opt-in via ``REPRO_BACKEND_MATRIX=1``).

    The ``strict_numpy`` leg is the refactor's proof obligation: the
    kernels run end to end with every implicit host scalar escape
    banned, and the stats still match the frozen numpy goldens byte
    for byte — so a device backend that honors the conformance
    contract cannot silently change the modeled numbers either.
    """

    @pytest.mark.parametrize("stealing", ["active", "off"])
    def test_lockstep_all_arms(self, backend, stealing):
        g0, batches = mixed_stream(4)
        cursor = run_stream(g0, CHORD_Q, batches, stealing=stealing)
        oracle = run_stream(
            g0, CHORD_Q, batches, stealing=stealing, vectorized=False
        )
        assert cursor == oracle

    def test_fused_unfused_lockstep(self, backend):
        g0, q, batches = hub_heavy_workload()
        fused = run_stream(g0, q, batches)
        oracle = run_stream(g0, q, batches, vectorized=False)
        assert fused == oracle

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_frozen_baseline_per_backend(self, backend, name):
        base = json.loads((DATA / f"baseline_kernel_{name}.json").read_text())
        record = run_workload(name, vectorized=True)
        assert json.loads(json.dumps(record)) == base["record"]


# ---------------------------------------------------------------------------
# golden-stats regression: frozen fixed-seed serving workloads
# ---------------------------------------------------------------------------
class TestKernelGoldenStats:
    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("arm", list(ARMS))
    def test_stats_match_frozen_baseline(self, name, arm):
        """Both execution arms replay the frozen serving record byte
        for byte — kernel refactors diff against history, not just
        against the (co-evolving) live oracle."""
        base = json.loads((DATA / f"baseline_kernel_{name}.json").read_text())
        assert base["workload"] == name
        record = run_workload(name, vectorized=ARMS[arm])
        # JSON round trip so float/int representations compare equal
        assert json.loads(json.dumps(record)) == base["record"]

    def test_baselines_exercise_the_kernel(self):
        """Guard the fixtures themselves: matches exist and the steal
        workload actually steals."""
        steal = json.loads(
            (DATA / "baseline_kernel_steal_heavy.json").read_text()
        )["record"]
        n_matches = sum(
            len(q["positives"]) + len(q["negatives"])
            for b in steal
            for q in b["queries"].values()
        )
        steals = sum(
            blk["steals"]
            for b in steal
            for q in b["queries"].values()
            for blk in q["kernel_stats"]["blocks"]
        )
        assert n_matches > 50
        assert steals > 0


# ---------------------------------------------------------------------------
# array plumbing: frame stack, arena
# ---------------------------------------------------------------------------
def boundary_items_loop(ctx, env, group, assign, dedup, rank):
    """The per-vertex screening loop ``dfs._boundary_items`` replaced:
    one ``is_candidate`` call per permuted core vertex (the reference)."""
    items = []
    for sigma in group.core_maps:
        permuted = {sigma[u]: assign[u] for u in group.core}
        key = tuple(permuted[u] for u in group.core)
        if key in dedup:
            continue
        dedup.add(key)
        if all(env.table.is_candidate(qv, dv) for qv, dv in permuted.items()):
            items.append(
                {"group": group, "assign": permuted, "level": len(group.core),
                 "dedup": dedup, "rank": rank, "permuted": True}
            )
    ctx.charge_lanes(len(group.core_maps) * len(group.core))
    return items


class TestBoundaryItems:
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_equals_the_screening_loop(self, vectorized):
        """On a whole-query automorphic group (a C4, eight automorphisms)
        the index-table screening returns the loop's items — order,
        dict key order, dedup set and lane charge included — for random
        core values, repeats, and vertices past the candidate stack."""
        from repro.gpu.memory import GlobalMemory, SharedMemory
        from repro.gpu.stats import BlockStats
        from repro.gpu.warp import WarpContext

        g = attach_labels(power_law_graph(40, 3.0, seed=8), 1, 1, seed=9)
        c4 = LabeledGraph.from_edges([0, 0, 0, 0], [(0, 1), (1, 2), (2, 3), (0, 3)])
        store = DynamicGraphStore(g, PARAMS, vectorized=vectorized)
        runtime = QueryRuntime(c4, store, PARAMS, WBMConfig(vectorized=vectorized))
        [group] = [gr for gr in runtime.plan.groups if not gr.is_singleton]
        assert group.k == 0 and len(group.core) == 4 and len(group.core_maps) == 8
        env = _Env(c4, g, runtime.table, runtime.plan, PhaseEdges([]), runtime.config, KernelOutput())
        n_rows = runtime.table.stack.bitmap.shape[0]
        rng = random.Random(2)
        pool = list(range(n_rows)) + [n_rows, n_rows + 3]  # two past the stack
        dedup_new, dedup_ref, screened = set(), set(), 0
        values = []
        for trial in range(300):
            # every third core repeats an earlier one's values, permuted:
            # its automorphic keys are already in the dedup set
            values = rng.sample(values, 4) if trial % 3 == 2 else rng.sample(pool, 4)
            assign = dict(zip(group.core, values))
            ctxs = [WarpContext(0, PARAMS, SharedMemory(PARAMS), GlobalMemory(PARAMS),
                                BlockStats(n_warps=1)) for _ in range(2)]
            got = dfs._boundary_items(ctxs[0], env, group, assign, dedup_new, trial)
            want = boundary_items_loop(ctxs[1], env, group, assign, dedup_ref, trial)
            assert [(list(i["assign"].items()), i["level"], i["rank"]) for i in got] == [
                (list(i["assign"].items()), i["level"], i["rank"]) for i in want
            ]
            assert all(i["dedup"] is dedup_new and i["permuted"] for i in got)
            assert dedup_new == dedup_ref
            assert (ctxs[0].clock, ctxs[0].stats) == (ctxs[1].clock, ctxs[1].stats)
            screened += len(got)
        assert screened, "some permutation must pass the screen"
        assert len(dedup_new) < 300 * 8, "repeats must hit the dedup set"


class TestFrameStack:
    """The list-backed frame stack: a level step reads and writes plain
    ints, and a thief's cut lands in the victim's own lists."""

    ORDER = (0, 1, 2, 3)

    def test_push_pop_lifo_arena_reclaim(self):
        fs = _FrameStack(4)
        fs.push(2, [5, 7, 9])
        fs.push(3, [11])
        assert fs.depth == 2
        assert fs.arena.top == 4
        assert fs.remaining() == 4
        fs.p[0] += 1  # the cursor consumed one shallow candidate
        assert fs.remaining() == 3
        for field in (fs.level, fs.start, fs.end, fs.p):
            assert all(type(v) is int for v in field)
        assert type(fs.remaining()) is int
        assert fs.pop() == 1
        assert fs.arena.top == 3  # deeper frame reclaimed
        assert fs.pop() == 3  # the whole run, whatever the cursor consumed
        assert fs.arena.top == 0
        assert fs.remaining() == 0

    def test_steal_shallowest_truncates_in_place(self):
        fs = _FrameStack(4)
        fs.push(2, [10, 20, 30, 40])
        fs.push(3, [50, 60])
        assign = [4, 8, -1, -1]
        loot = fs.steal_shallowest(self.ORDER, assign)
        assert loot["level"] == 2
        assert xp.to_numpy(loot["cands"]).tolist() == [30, 40]  # back half of frame 0
        assert loot["assign"] == {0: 4, 1: 8}
        assert int(fs.end[0] - fs.start[0]) == 2  # victim sees the cut
        assert fs.remaining() == 4  # 2 left shallow + 2 deep
        # a single-candidate frame is never split
        fs2 = _FrameStack(2)
        fs2.push(2, [1])
        assert fs2.steal_shallowest(self.ORDER, assign) is None

    def test_steal_lowers_victim_end_for_remaining(self):
        fs = _FrameStack(4)
        fs.push(2, [10, 20, 30, 40, 50])
        fs.p[0] += 1  # 10 is explored
        loot = fs.steal_shallowest(self.ORDER, [4, 8, 10, -1])
        assert xp.to_numpy(loot["cands"]).tolist() == [40, 50]
        assert fs.end[0] == fs.start[0] + 3
        assert fs.remaining() == 2  # 20, 30: the stolen tail is gone
        # the victim's level step walks up to the lowered end only
        seen = []
        while fs.p[0] < fs.end[0]:
            seen.append(int(fs.arena.buf[fs.p[0]]))
            fs.p[0] += 1
        assert seen == [20, 30]

    def test_repeated_steals_split_the_shrinking_remainder(self):
        fs = _FrameStack(4)
        fs.push(2, list(range(1, 9)))
        assign = [4, 8, -1, -1]
        first = fs.steal_shallowest(self.ORDER, assign)
        second = fs.steal_shallowest(self.ORDER, assign)
        assert xp.to_numpy(first["cands"]).tolist() == [5, 6, 7, 8]
        assert xp.to_numpy(second["cands"]).tolist() == [3, 4]
        assert fs.remaining() == 2

    def test_pop_after_steal_frees_what_the_oracle_frees(self):
        """The memory gauge nets the same words on both layouts: the
        victim frees its truncated run, as the oracle frees its
        shortened candidate list."""
        runs = [(2, [10, 20, 30, 40, 50]), (3, [60, 70, 80])]
        oracle = {
            "queue": [],
            "frames": [{"level": lv, "cands": list(c), "p": 1} for lv, c in runs],
            "assign": {0: 4, 1: 8, 2: 10},
            "order": self.ORDER,
        }
        fs = _FrameStack(4)
        for lv, c in runs:
            d = fs.push(lv, c)
            fs.p[d] += 1
        cursor = {
            "queue": [],
            "frames": fs,
            "assign": [4, 8, 10, -1],
            "order": self.ORDER,
        }
        oracle_gauge, gauge = _MemoryGauge(), _MemoryGauge()
        for _, c in runs:
            oracle_gauge.alloc(len(c))
            gauge.alloc(len(c))
        oracle_loot = _steal_from(oracle, None)
        loot = _steal_from(cursor, None)
        assert loot["level"] == oracle_loot["level"] == 2
        assert loot["assign"] == oracle_loot["assign"]
        assert xp.to_numpy(loot["cands"]).tolist() == oracle_loot["cands"]
        freed = []
        while fs.depth:
            freed.append(fs.pop())
            gauge.free(freed[-1])
        for fr in reversed(oracle["frames"]):
            oracle_gauge.free(len(fr["cands"]))
        assert freed == [3, 3]
        assert gauge.current == oracle_gauge.current == 2

    def test_clear_resets_everything(self):
        fs = _FrameStack(3)
        fs.push(2, [1, 2, 3])
        fs.rec[0] = object()
        fs.clear()
        assert fs.depth == 0
        assert fs.arena.top == 0
        assert fs.rec[0] is None


class TestInt64Arena:
    def test_growth_preserves_prefix(self):
        arena = Int64Arena(capacity=2)
        a = arena.push([1, 2])
        b = arena.push(list(range(100)))
        assert xp.to_numpy(arena.view(*a)).tolist() == [1, 2]
        assert xp.to_numpy(arena.view(*b)).tolist() == list(range(100))
        assert len(arena.buf) >= 102

    def test_truncate_is_lifo(self):
        arena = Int64Arena()
        s0, e0 = arena.push([7, 8])
        arena.push([9])
        arena.truncate(e0)
        assert arena.top == e0
        assert xp.to_numpy(arena.view(s0, e0)).tolist() == [7, 8]


# ---------------------------------------------------------------------------
# config validation (the silent-fallback fix)
# ---------------------------------------------------------------------------
class TestVectorizedFlagAgreement:
    def test_runtime_rejects_mismatched_store(self):
        g = random_graph(1, n=12)
        scalar_store = DynamicGraphStore(g, PARAMS, vectorized=False)
        with pytest.raises(ConfigMismatchError):
            QueryRuntime(CHORD_Q, scalar_store, PARAMS, WBMConfig(vectorized=True))
        vec_store = DynamicGraphStore(g, PARAMS, vectorized=True)
        with pytest.raises(ConfigMismatchError):
            QueryRuntime(CHORD_Q, vec_store, PARAMS, WBMConfig(vectorized=False))

    def test_service_registration_rejects_mismatch(self):
        g = random_graph(2, n=12)
        service = MatchingService(g, params=PARAMS, vectorized=False)
        with pytest.raises(ConfigMismatchError):
            service.register_query(CHORD_Q, WBMConfig(vectorized=True))

    def test_agreement_accepted_both_ways(self):
        g = random_graph(3, n=12)
        for vec in (True, False):
            store = DynamicGraphStore(g, PARAMS, vectorized=vec)
            rt = QueryRuntime(CHORD_Q, store, PARAMS, WBMConfig(vectorized=vec))
            assert rt.config.vectorized == vec

    def test_engine_always_consistent(self):
        """GammaSystem builds its store from the config, so both flags
        always agree by construction."""
        g = random_graph(4, n=12)
        for vec in (True, False):
            system = GammaSystem(CHORD_Q, g, PARAMS, WBMConfig(vectorized=vec))
            assert system.service.store.vectorized == vec
