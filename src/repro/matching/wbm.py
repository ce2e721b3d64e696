"""WBM: the warp-centric batch-dynamic subgraph matching kernel
(paper Algorithm 1 + the §V optimizations) — its launch and the
per-query runtime.

One warp task per updated edge. The task maps its edge onto the
representative query edge of every coalesced group (all ordered query
edges when coalescing is off), then runs a DFS whose per-level
candidate arrays and cursors live in block shared memory, which is
what lets sibling warps steal.

Duplicate elimination across a batch uses the total-order rule: the
task of update rank ``r`` refuses to map any net-update edge of rank
``< r``, so every incremental match is attributed to the minimum-rank
update edge among its query-edge images exactly once.

Coalesced search runs the automorphic core ``V^k`` first under an
orbit-invariant candidate filter, emits permuted partials at the
phase boundary (screened against the full candidate table), and
extends each through ``R^k``.

The kernel is one module per decision, each importing only those
above it:

* :mod:`~repro.matching.launch_env` — config, results,
  :class:`PhaseEdges` and the per-launch ``_Env``;
* :mod:`~repro.matching.gen_candidates` — Gen-Candidates for one
  partial match: the scalar oracle and its charges;
* :mod:`~repro.matching.level_batch` — the fast path's one array
  Gen-Candidates primitive and its inline forms: frames' children
  (one frame or fused siblings) and single entries;
* :mod:`~repro.matching.entry_pass` — the host-wide level pass: every
  DFS level of every hosted query in one array pass per level;
* :mod:`~repro.matching.dfs` — the DFS workers, their shared-memory
  state, the step coalescer, and the steal/donate accessors of that
  state;
* :mod:`~repro.matching.stealing` — the idle side of stealing: the
  victim scan, poll pricing and the lone-worker probes;
* this module — plan gating, the work items of a phase and their entry
  records, the launch, and :class:`QueryRuntime`.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Optional

from repro import xp
from repro.errors import BudgetExceeded, ConfigMismatchError, MatchingError
from repro.filtering import CandidateStack, CandidateTable
from repro.graph.csr import CSRGraph
from repro.graph.labeled_graph import LabeledGraph, canonical
from repro.gpu.device import VirtualGPU
from repro.gpu.params import DEFAULT_PARAMS, DeviceParams
from repro.gpu.scheduler import BlockScheduler
from repro.matching.coalesced import CoalescedPlan, build_coalesced_plan, trivial_plan
from repro.matching.dfs import _make_step_coalescer, _spawn_worker
from repro.matching.entry_pass import entry_facts, entry_pass, stack_facts
from repro.matching.launch_env import (
    KernelOutput,
    Match,
    PhaseEdges,
    WBMConfig,
    _Env,
    filter_index,
    or_columns,
)
from repro.matching.stealing import _NOOP_PROBE, _LonePollers, _active_idle_handler


# ---------------------------------------------------------------------------
# plan gating and kernel launch (used by QueryRuntime)
# ---------------------------------------------------------------------------
# a k>=1 group trades duplicate searches for a relaxed core filter
# (paper §V-B Remark: removed-vertex constraints are lost). The
# relaxation compounds multiplicatively over core levels, so only
# near-exact unions are worth it; anything looser is demoted to
# singleton searches.
_RELAX_GATE = 1.05


def gate_plan(
    query: LabeledGraph,
    table: CandidateTable,
    plan: CoalescedPlan,
) -> CoalescedPlan:
    """Demote coalesced groups whose orbit-union filter would expand
    the core candidate space more than the shared search saves.

    Whole-query groups (k = 0) have an automorphism-invariant table,
    so their union equals the exact columns and they always pass.
    """
    gated = CoalescedPlan()
    singles = trivial_plan(query)
    bitmap = table.bitmap
    for group in plan.groups:
        keep = True
        if not group.is_singleton and group.k > 0:
            exact = union = 0
            for u, orbit in group.vertex_orbits.items():
                cnt_exact = int(bitmap[:, u].sum())
                col = or_columns(bitmap, orbit)
                exact += cnt_exact
                union += int(col.sum())
            inflation = union / max(exact, 1)
            keep = inflation <= _RELAX_GATE
        if keep:
            gated.groups.append(group)
            for e in group.members:
                gated.by_edge[e] = group
        else:
            for e in group.members:
                single = singles.by_edge[e]
                gated.groups.append(single)
                gated.by_edge[e] = single
    return gated


def _initial_items(env: _Env, x: int, y: int, elabel: int, rank: int) -> list[dict]:
    """Map update edge (x, y) onto every group representative, both
    assignment directions (ordered pairs cover orientation)."""
    query, graph = env.query, env.graph
    items: list[dict] = []
    lx = graph.vertex_label(x) if x < graph.n_vertices else None
    ly = graph.vertex_label(y) if y < graph.n_vertices else None
    for group in env.plan.groups:
        a, b = group.representative
        if query.edge_label(a, b) != elabel:
            continue
        if query.vertex_label(a) != lx or query.vertex_label(b) != ly:
            continue
        if not env.passes_filter(group, a, x, in_core=True):
            continue
        if not env.passes_filter(group, b, y, in_core=True):
            continue
        items.append(
            {
                "group": group,
                "assign": {a: x, b: y},
                "level": 2,
                "dedup": set(),
                "rank": rank,
                "permuted": False,
            }
        )
    return items


def union_orbits(plan: CoalescedPlan) -> list[tuple[int, ...]]:
    """The orbits whose union columns the plan's k>0 groups filter on."""
    return [
        orbit
        for group in plan.groups
        if group.k
        for orbit in group.vertex_orbits.values()
        if len(orbit) > 1
    ]


def _launch_keys(runtime: "QueryRuntime") -> tuple:
    """A runtime's groups with their label keys, the stack columns of
    both representative endpoints' filters, the groups'
    :func:`entry_facts` and each group's row, cached until the stack's
    layout changes (the plan is fixed at registration)."""
    table = runtime.table
    tag = (table.stack, table.stack.epoch)
    cache = runtime._launch_keys
    if cache is None or cache[0] != tag:
        pairs = runtime.plan.label_keys(runtime.query)
        groups = [group for group, _ in pairs]
        keys = xp.asarray([key for _, key in pairs], dtype=xp.int64).reshape(-1, 3)
        cols = xp.asarray(
            [[filter_index(table, g, qv) for qv in g.representative] for g in groups],
            dtype=xp.int64,
        ).reshape(-1, 2)
        facts = entry_facts(runtime.query, table, groups)
        row_of = {id(g): r for r, g in enumerate(groups)}
        cache = runtime._launch_keys = (tag, groups, keys, cols, facts, row_of)
    return cache


def working_items(
    phase: PhaseEdges, csr: CSRGraph, runtimes: list["QueryRuntime"]
) -> list[dict[int, list[dict]]]:
    """Vectorized :func:`_initial_items` for every runtime at once, over
    the phase's working edges only.

    The runtimes share one candidate stack (their host's). Their group
    keys are resolved against the phase's bucket index in one step, and
    both endpoints of every candidate (runtime, group, edge) triple are
    checked against the stacked filter columns with one fancy index.
    Returns, per runtime, ``{edge index: items}`` for the edges with at
    least one item — the items identical to the scalar oracle's, in the
    same per-edge group order; every other edge is a no-op probe."""
    out: list[dict[int, list[dict]]] = [{} for _ in runtimes]
    exl, eyl = phase.exl, phase.eyl
    entries = [_launch_keys(runtime) for runtime in runtimes]
    rows, edges = phase.resolve(csr, xp.concatenate([e[2] for e in entries]))
    cols = xp.concatenate([e[3] for e in entries])
    bitmap = runtimes[0].table.stack.bitmap
    va, vb = phase.ex[edges], phase.ey[edges]
    inside = (va < bitmap.shape[0]) & (vb < bitmap.shape[0])
    rows, edges = rows[inside], edges[inside]
    hit = bitmap[
        xp.concatenate([va[inside], vb[inside]]),
        xp.concatenate([cols[rows, 0], cols[rows, 1]]),
    ]
    ok = hit[: len(rows)] & hit[len(rows) :]
    groups = [g for e in entries for g in e[1]]
    owner = [out[i] for i, e in enumerate(entries) for _ in e[1]]
    for r, i in zip(xp.to_numpy(rows[ok]).tolist(), xp.to_numpy(edges[ok]).tolist()):
        group = groups[r]
        a, b = group.representative
        owner[r].setdefault(i, []).append(
            {
                "group": group,
                "assign": {a: exl[i], b: eyl[i]},
                "level": 2,
                "dedup": set(),
                "rank": i,
                "permuted": False,
            }
        )
    return out


def record_entries(
    phase: PhaseEdges,
    csr: CSRGraph,
    runtimes: list["QueryRuntime"],
    per_query: list[dict[int, list[dict]]],
) -> tuple[int, dict[int, int]]:
    """Run the level pass (:func:`entry_pass`) over the work items
    ``per_query[i]`` of ``runtimes[i]`` (from :func:`working_items` on
    the same phase and snapshot; the runtimes share one host, so one
    candidate stack and one set of device params): each covered item
    then carries its entry generation and the recorded tree below it.
    Returns the pass's count of recorded entry generations and, per
    DFS level, of frames whose children it recorded."""
    rows: list[int] = []
    edges: list[int] = []
    items: list[dict] = []
    blocks = []
    base = 0
    for runtime, per_edge in zip(runtimes, per_query):
        cache = _launch_keys(runtime)
        row_of = cache[5]
        for i, its in per_edge.items():
            for item in its:
                rows.append(base + row_of[id(item["group"])])
                edges.append(i)
                items.append(item)
        blocks.append((len(cache[1]), cache[4]))
        base += len(cache[1])
    if not items:
        return 0, {}
    return entry_pass(
        phase,
        csr,
        runtimes[0].table.stack.bitmap,
        stack_facts(blocks),
        xp.asarray(rows, dtype=xp.int64),
        xp.asarray(edges, dtype=xp.int64),
        items,
        runtimes[0].params,
    )


def launch_kernel(
    query: LabeledGraph,
    graph: LabeledGraph,
    table: CandidateTable,
    plan: CoalescedPlan,
    config: WBMConfig,
    gpu: VirtualGPU,
    phase: PhaseEdges,
    csr: Optional[CSRGraph] = None,
    per_edge: Optional[dict[int, list[dict]]] = None,
) -> KernelOutput:
    """Launch one sign phase: one warp task per net update edge.

    ``phase`` indexes the phase's edges once for every runtime that
    launches it; ``csr`` is the launch-time CSR snapshot of ``graph`` —
    the shared store hands its cached snapshot to every runtime so N
    registered queries read one adjacency array set. ``per_edge`` holds
    the launch's work items from :func:`working_items`; without them
    the scalar oracle maps every edge through :func:`_initial_items`.
    """
    out = KernelOutput()
    env = _Env(query, graph, table, plan, phase, config, out, csr=csr)

    if per_edge is None:
        per_edge = {}
        for i, (u, v, lbl) in enumerate(phase.edges):
            items = _initial_items(env, *canonical(u, v), lbl, i)
            if items:
                per_edge[i] = items
    # each task spawns a generator on the oracle path, a level-stepped
    # cursor on the vectorized path; the scheduler drives either form
    working = {i: partial(_spawn_worker, env=env, items=items) for i, items in per_edge.items()}

    def block_hook(sched: BlockScheduler):
        sched.shared.alloc("_sched", sched, words=0)
        workers = (
            [w for w, t in enumerate(sched.tasks) if t is not _NOOP_PROBE]
            if config.vectorized
            else ()
        )
        # fusion is host-only: a lone worker's block (its thieves
        # included) generates inline, so it skips the sibling scan
        if len(workers) >= 2:
            sched.step_coalescer = _make_step_coalescer(sched, env)
        # run-ahead, like leaf-run batching, stays off where an oracle
        # step may be observed between leaves: passive donates and
        # budget checks run inside the DFS loop
        env.sched = (
            sched
            if workers and config.work_stealing != "passive" and config.cycle_budget is None
            else None
        )
        if config.work_stealing != "active":
            return None
        if sched.vectorized and len(workers) == 1:
            sched.idle_model = _LonePollers(sched, workers[0])
        return _active_idle_handler(sched, env)

    # On an all-trace block (every update edge a no-op probe) no warp
    # ever allocates DFS state, so the idle handler scans empty shared
    # memory and the whole block run is a pure function of the device
    # params, the task list, and the stealing mode — declare that so
    # the launch path can memoize such blocks (env is never consulted).
    block_hook.trace_pure = ("wbm", config.work_stealing)

    try:
        launch = gpu.launch(
            working, block_hook=block_hook, n_tasks=len(phase), filler=_NOOP_PROBE
        )
        out.stats.merge(launch.stats)
    except BudgetExceeded:
        out.aborted = True
    out.peak_stack_words = env.gauge.peak
    return out


# ---------------------------------------------------------------------------
# the per-query runtime
# ---------------------------------------------------------------------------
class QueryRuntime:
    """Per-query state layered on a shared :class:`DynamicGraphStore`.

    Owns everything that is private to one registered query — the query
    graph, the (gated) coalesced plan, the virtual GPU the kernels
    launch on, and optionally a match collector — while the data graph,
    GPMA container, and encoding table live in the store and are shared
    with every other runtime. The candidate table is the query's
    column range of ``stack``, the :class:`CandidateStack` its host
    shares across every query it serves (a private one-query stack
    when none is given). ``plan`` is a plan gated at an earlier
    registration of the same query; without one the runtime gates its
    own.

    Batch flow, orchestrated by :class:`repro.service.MatchingService`:
    :meth:`launch` the deleted net edges while the pre-update graph is
    live, then :meth:`observe_commit` the store's single update, then
    :meth:`launch` the inserted net edges.
    """

    def __init__(
        self,
        query: LabeledGraph,
        store,
        params: DeviceParams = DEFAULT_PARAMS,
        config: WBMConfig = WBMConfig(),
        name: str | None = None,
        collector=None,
        *,
        stack: CandidateStack | None = None,
        plan: CoalescedPlan | None = None,
    ) -> None:
        if query.n_vertices < 2:
            raise MatchingError("query needs at least one edge")
        if bool(store.vectorized) != config.vectorized:
            # a mismatch would launch one arm on the other arm's store;
            # fail loudly at construction instead
            raise ConfigMismatchError(
                f"query runtime {name!r}: WBMConfig.vectorized="
                f"{config.vectorized} disagrees with its store "
                f"(vectorized={bool(store.vectorized)}); build the store and the "
                f"query config with the same flag"
            )
        self.query = query
        self.store = store
        self.params = params
        self.config = config
        self.name = name
        # the virtual GPU follows the query's vectorized flag: pooled
        # array-native launch path, or per-block generator oracle
        self.gpu = VirtualGPU(params, vectorized=config.vectorized)
        if stack is None:
            stack = CandidateStack(store.encodings, vectorized=config.vectorized)
        self.table = CandidateTable(query, stack=stack)
        if plan is None:
            plan = (
                gate_plan(query, self.table, build_coalesced_plan(query, max_k=config.max_k))
                if config.coalesced
                else trivial_plan(query)
            )
        self.plan = plan
        stack.bind_unions(self.table, union_orbits(plan))
        self._launch_keys: Optional[tuple] = None
        self.collector = collector
        #: matches present when the query registered (static bootstrap);
        #: None until :meth:`bootstrap` runs
        self.initial_matches: Optional[set[Match]] = None
        self.synced_version = store.version
        self._degraded_config: Optional[WBMConfig] = None

    def _fire(self, site: str) -> None:
        # the fault plan (if any) lives on the shared store, so one plan
        # observes every runtime's sites in arrival order
        faults = self.store.faults
        if faults is not None:
            faults.fire(site, query=self.name)

    # ------------------------------------------------------------------
    @property
    def graph(self) -> LabeledGraph:
        """The shared data graph (lives in the store)."""
        return self.store.graph

    def bootstrap(self) -> set[Match]:
        """Answer the query against the *current* graph state.

        A query registered mid-stream starts from the static match set,
        so its "current matches" view is complete from the first batch
        it observes. The vectorized enumerator reuses the store's
        cached CSR snapshot, so registration costs no snapshot rebuild.
        """
        from repro.matching.static_match import find_matches

        if self.config.vectorized:
            # flag agreement is validated at construction, so a
            # vectorized runtime always has a vectorized store
            self.initial_matches = find_matches(
                self.query, self.store.graph, csr=self.store.csr_snapshot()
            )
        else:
            self.initial_matches = find_matches(
                self.query, self.store.graph, vectorized=False
            )
        return set(self.initial_matches)

    def launch(
        self,
        edges: PhaseEdges | list[tuple[int, int, int]],
        *,
        degraded: bool = False,
        items: Optional[dict[int, list[dict]]] = None,
    ) -> KernelOutput:
        """Run the WBM kernel for one sign phase over ``edges``: the
        phase's shared :class:`PhaseEdges` (one per phase across every
        runtime, as the service builds it) or a plain edge list.
        ``items`` are this runtime's work items from the host's shared
        :func:`working_items` pass over the phase; the runtime resolves
        its own when they are not given.

        ``degraded`` reruns the launch on the scalar-oracle arm
        (``vectorized=False`` over the same candidate table) — the
        service's graceful-degradation retry after a fault on the
        vectorized path. Matches and stats are identical by the
        flag-with-oracle contract; only the host-side execution differs.
        """
        if self.synced_version != self.store.version:
            raise MatchingError(
                f"runtime {self.name!r} out of sync with store "
                f"(saw v{self.synced_version}, store at v{self.store.version})"
            )
        phase = edges if isinstance(edges, PhaseEdges) else PhaseEdges(edges)
        if degraded:
            self._fire("runtime.launch.degraded")
            if self._degraded_config is None:
                self._degraded_config = replace(self.config, vectorized=False)
            return launch_kernel(
                self.query,
                self.store.graph,
                self.table,
                self.plan,
                self._degraded_config,
                self.gpu,
                phase,
                csr=None,
            )
        self._fire("runtime.launch")
        csr = None
        if self.config.vectorized:
            csr = self.store.csr_snapshot()
            if items is None:
                items = working_items(phase, csr, [self])[0]
                record_entries(phase, csr, [self], [items])
        return launch_kernel(
            self.query,
            self.store.graph,
            self.table,
            self.plan,
            self.config,
            self.gpu,
            phase,
            csr=csr,
            per_edge=items,
        )

    def observe_commit(self, commit) -> None:
        """Refresh the candidate rows after the store's single update
        (once per commit for the whole stack, by whichever of its
        runtimes observes first); every runtime must observe every
        commit exactly once."""
        if commit.version != self.synced_version + 1:
            raise MatchingError(
                f"runtime {self.name!r} missed a store commit "
                f"(saw v{self.synced_version}, commit is v{commit.version})"
            )
        self._fire("runtime.observe")
        self.table.stack.observe(commit)
        self._fire("runtime.observe.mid")
        self.synced_version = commit.version

    def rebootstrap(self) -> set[Match]:
        """Rebuild all per-query state from the store's current graph —
        the quarantine-recovery path.

        A quarantined runtime may hold arbitrarily stale or corrupt
        state (a fault can strike mid-refresh), so recovery does not
        patch: the query's stack columns and its collector are rebuilt
        from scratch, the version re-synced, and the match view
        re-anchored to a fresh static bootstrap. The gated plan is
        kept: it is fixed at registration and never written afterwards,
        and re-gating it on the current table would launch different
        kernels (same matches, different ``KernelStats``) than a run
        that never faulted. The shared store is never touched.
        """
        self._fire("runtime.bootstrap")
        self.table.stack.rebuild(self.table)
        if self.collector is not None:
            self.collector = type(self.collector)()
        self.synced_version = self.store.version
        return self.bootstrap()

    def current_matches(self) -> set[Match]:
        """Bootstrap matches plus live births minus observed deaths."""
        base = set(self.initial_matches or ())
        if self.collector is not None:
            base |= self.collector.live_matches()
            base -= self.collector.dead_matches()
        return base
