"""Level-stepped DFS workers vs the generator oracle.

The vectorized path runs each WBM DFS worker as a
:class:`~repro.matching.wbm._DfsLevelCursor`: one resumable step per
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
* identical results on both sides of every host-side size switch of
  the level-generation path;
* identical frozen history: the fixed-seed serving workloads recorded
  in ``tests/data/baseline_kernel_*.json`` replay byte-identically on
  both execution arms.
"""

import dataclasses
import json
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernel_baseline_workloads import PARAMS, WORKLOADS, run_workload
from repro import xp
from repro.errors import ConfigMismatchError
from repro.filtering import CandidateTable
from repro.graph.generators import attach_labels, power_law_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.updates import apply_batch, make_batch
from repro.gpu import Int64Arena, VirtualGPU
from repro.gpu.scheduler import BlockScheduler
from repro.matching import WBMConfig
from repro.matching.wbm import QueryRuntime, _FrameStack, _MemoryGauge, _steal_from
from repro.pipeline import GammaSystem
from repro.service import MatchingService
from repro.service.store import DynamicGraphStore

DATA = Path(__file__).parent / "data"

CHORD_Q = LabeledGraph.from_edges([0, 1, 0, 1], [(0, 1), (1, 2), (2, 3), (0, 2)])
DENSE_Q = LabeledGraph.from_edges(
    [0, 0, 0, 0], [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3)]
)

#: the two execution arms: arm name -> config.vectorized
ARMS = {
    "cursor": True,  # level-stepped cursors, fused Gen-Candidates
    "oracle": False,  # the full scalar oracle
}


def stats_dict(kernel_stats):
    return dataclasses.asdict(kernel_stats)


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

    def test_budget_abort_lockstep(self):
        """A cycle budget trips at the same modeled point: same aborted
        flag and same partial match sets on both worker forms."""
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
    degree 72, above the vectorized-gen gate): C4 matching anchors its
    level-3 prefix runs on hub pairs, so sibling warp tasks stage
    shared-anchor frames and the per-launch hub-slice cache sees both
    miss and hit paths. Leaf ``j`` has label ``j % leaf_labels``: with
    two labels a hub's first-stage slice keeps ~36 of its 72 leaves,
    short enough for the python tail."""
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

    The fused machinery (sibling frames batched at the level barrier,
    hub slices cached per launch) must be invisible in matches and in
    every modeled number across stealing modes, shared-anchor-heavy
    schedules, and both cache paths.
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
        """Shared-anchor-heavy schedule: hub-cache hits and fused
        sibling batches on, still byte-identical to the full scalar
        oracle."""
        g0, q, batches = hub_heavy_workload()
        fused = run_stream(g0, q, batches, stealing=stealing)
        oracle = run_stream(g0, q, batches, stealing=stealing, vectorized=False)
        assert fused == oracle

    def test_bench_hub_schedule_lockstep(self):
        """The benchmark's hub-heavy schedule (bipartite hub graph,
        5-cycle query → zero matches, pure Gen-Candidates work) at
        test scale: the fused self-anchor batch pass and the hub-slice
        cache both fire, still byte-identical to the scalar oracle."""
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

    def test_coalescer_and_hub_cache_fire(self, monkeypatch):
        """The machinery is actually on the hot path: the hub-heavy
        schedule produces fused sibling batches, hub-slice cache
        misses AND hits."""
        import repro.matching.wbm as wbm

        calls = {"multi": 0, "hub_calls": 0, "hub_hits": 0}
        orig_multi = wbm._level_children_multi
        orig_hub = wbm._Env.hub_slice

        def counting_multi(*a, **k):
            calls["multi"] += 1
            return orig_multi(*a, **k)

        def counting_hub(env, anchor_dv, qv, anchor_qv, col, col_key):
            calls["hub_calls"] += 1
            if (anchor_dv, qv, anchor_qv, col_key) in env._hub_slices:
                calls["hub_hits"] += 1
            return orig_hub(env, anchor_dv, qv, anchor_qv, col, col_key)

        monkeypatch.setattr(wbm, "_level_children_multi", counting_multi)
        monkeypatch.setattr(wbm._Env, "hub_slice", counting_hub)
        g0, q, batches = hub_heavy_workload()
        run_stream(g0, q, batches)
        assert calls["multi"] > 0, "sibling frames must fuse"
        assert calls["hub_hits"] > 0, "cache must serve repeat anchors"
        assert calls["hub_calls"] > calls["hub_hits"], "first touch misses"


# ---------------------------------------------------------------------------
# host-side size switches: both sides of each produce the oracle's run
# ---------------------------------------------------------------------------
#: (module constant, forced value) -> (functions that must run, functions
#: that must not run) on the vectorized path
SIZE_SWITCHES = {
    ("_LEVEL_BATCH_MIN", 0): (("_level_children_multi",), ("_level_children_scalar",)),
    ("_LEVEL_BATCH_MIN", 10**9): (("_level_children_scalar",), ("_level_children_multi",)),
    ("_SCALAR_GEN_MAX", -1): (
        ("hub_slice", "_narrow_run_arrays"),
        ("_narrow_small_run",),
    ),
    ("_SCALAR_GEN_MAX", 10**9): (
        ("_narrow", "_narrow_small_run"),
        ("hub_slice", "_narrow_run_arrays"),
    ),
    ("_FUSE_SELF_MIN_WORK", 0): (("_fused_self_anchor",), ()),
    ("_FUSE_SELF_MIN_WORK", 10**9): (
        ("_self_anchored", "_narrow"),
        ("_fused_self_anchor",),
    ),
}
#: host-strategy functions the switch tests count calls of
COUNTED = (
    "_level_children_multi", "_level_children_scalar", "_narrow",
    "_self_anchored", "_fused_self_anchor", "hub_slice", "_narrow_small_run",
    "_narrow_run_arrays", "_candidates_scalar",
)


def switch_workloads():
    g0, batches = mixed_stream(4)
    yield "mixed", g0, CHORD_Q, batches
    yield ("hub",) + hub_heavy_workload(leaf_labels=2)


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
    import repro.matching.wbm as wbm

    calls = dict.fromkeys(COUNTED, 0)

    def counted(fn_name, fn):
        def wrapper(*a, **k):
            calls[fn_name] += 1
            return fn(*a, **k)

        return wrapper

    with monkeypatch.context() as m:
        if setting is not None:
            m.setattr(wbm, *setting)
        for fn_name in COUNTED:
            owner = wbm._Env if fn_name == "hub_slice" else wbm
            m.setattr(owner, fn_name, counted(fn_name, getattr(owner, fn_name)))
        run = run_stream(g0, q, batches, stealing=stealing)
    return run, calls


class TestSizeSwitches:
    """``_LEVEL_BATCH_MIN`` (frame size: python pass vs array batch),
    ``_SCALAR_GEN_MAX`` (run length: python pass over snapshot rows vs
    array kernels and the hub-slice cache) and ``_FUSE_SELF_MIN_WORK``
    (self-anchored run volume: per-child walks vs one fused pass) only
    pick a host strategy. Forcing each to either extreme must leave
    every match and modeled number equal to the scalar oracle."""

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
        # the dict walk is the oracle only: the fast path never calls it
        assert calls["_candidates_scalar"] == 0

    @pytest.mark.parametrize("stealing", ["active", "off"])
    def test_default_bar_narrows_hub_slices_in_python(
        self, stealing, switch_oracles, monkeypatch
    ):
        """At the default bar the hub workload's first-stage hub slices
        are short, so the cached slice and the python tail both run."""
        _, g0, q, batches = next(w for w in switch_workloads() if w[0] == "hub")
        fast, calls = counted_run(monkeypatch, g0, q, batches, stealing)
        assert fast == switch_oracles["hub", stealing]
        assert calls["hub_slice"] > 0 and calls["_narrow_small_run"] > 0


#: labelled query the narrowing property draws target vertices from
NARROW_Q = LabeledGraph.from_edges(
    [0, 1, 0, 1], [(0, 1, 0), (1, 2, 1), (2, 3, 0), (0, 2, 0), (1, 3, 0)]
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**31 - 1),
    gen_max=st.sampled_from([-1, 0, 3, 64]),
)
def test_narrow_equals_scalar_oracle(seed, gen_max):
    """``_narrow`` and the self-anchor dispatch ``_self_anchored`` (fused
    or not) return the dict walk's candidates, in order, on random
    labelled graphs (a hub included, so runs fall on both sides of
    ``_SCALAR_GEN_MAX``), partial assignments, candidacy columns and
    rank maps."""
    import repro.matching.wbm as wbm

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
    phase = wbm.PhaseEdges([(u, v, 0) for u, v in pool[: rng.randint(0, len(pool))]])
    rank = rng.randint(0, len(phase) + 1)
    col = xp.asarray([rng.random() < 0.8 for _ in range(rng.randint(n - 3, n))], dtype=bool)
    env = wbm._Env(
        NARROW_Q, g, CandidateTable(NARROW_Q, g), wbm.trivial_plan(NARROW_Q),
        phase, WBMConfig(), wbm.KernelOutput(),
    )
    want = wbm._candidates_scalar(env, assign, qv, anchor, others, col, rank)
    fixed = [(w, assign[w]) for w in others]

    def as_list(got):
        return got if isinstance(got, list) else xp.to_numpy(got).tolist()

    with mock.patch.object(wbm, "_SCALAR_GEN_MAX", gen_max):
        for _ in range(2):  # the second call reads the hub-slice cache
            got = wbm._narrow(env, assign, rank, qv, anchor, fixed, col, "col")
            assert as_list(got) == want
    # the self-anchor dispatch: children of the frame vertex ``anchor``
    # on top of the prefix, fused or one narrowing each. The fused pass
    # reads a column with a row per snapshot vertex, as the candidate
    # stack keeps it; rows past a short column carry no claim
    col = xp.concatenate([col, xp.zeros(n - len(col), dtype=bool)])
    prefix = {u: dv for u, dv in assign.items() if u != anchor}
    unassigned = [v for v in range(n) if v not in prefix.values()]
    kids = rng.sample(unassigned, rng.randint(1, min(6, len(unassigned))))
    wants = [
        wbm._candidates_scalar(env, {**prefix, anchor: c}, qv, anchor, others, col, rank)
        for c in kids
    ]
    cands = kids if rng.random() < 0.5 else xp.asarray(kids, dtype=xp.int64)
    for fuse_min in (0, 10**9):
        children = [None] * (len(kids) + 1)
        with mock.patch.multiple(wbm, _SCALAR_GEN_MAX=gen_max, _FUSE_SELF_MIN_WORK=fuse_min):
            wbm._self_anchored(
                env, prefix, rank, qv, anchor, fixed, col, "padded", children,
                list(range(1, len(kids) + 1)), cands, [g.degree(c) for c in kids],
            )
        assert children[0] is None
        assert [as_list(c) for c in children[1:]] == wants


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
        fs.children[0] = [np.array([4])]
        fs.clear()
        assert fs.depth == 0
        assert fs.arena.top == 0
        assert fs.children[0] is None


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
