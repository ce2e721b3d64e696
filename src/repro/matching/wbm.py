"""WBM: the warp-centric batch-dynamic subgraph matching kernel
(paper Algorithm 1 + the §V optimizations).

One warp task per updated edge. The task maps its edge onto the
representative query edge of every coalesced group (all ordered query
edges when coalescing is off), then runs a DFS whose per-level
candidate arrays and cursors (``csize``/``p`` in the paper) live in
block shared memory — which is precisely what lets sibling warps steal:

* **active stealing** — an idle warp scans sibling states, picks the
  victim with the most remaining work, and takes either half its
  pending work-item queue or the back half of the shallowest DFS
  frame's unexplored candidates (Example 3);
* **passive stealing** — a busy warp periodically checks for parked
  siblings and pushes half of its own work to one.

Duplicate elimination across a batch uses the total-order rule: the
task of update rank ``r`` refuses to map any net-update edge of rank
``< r``, so every incremental match is attributed to the minimum-rank
update edge among its query-edge images exactly once.

Coalesced search runs the automorphic core ``V^k`` first under an
orbit-invariant candidate filter, emits permuted partials at the
phase boundary (screened against the full candidate table), and
extends each through ``R^k``.

The DFS workers exist in two host-side forms behind the repo's
flag-with-oracle convention. ``config.vectorized`` (default) runs each
warp's DFS as a **level-stepped cursor** (:class:`_DfsLevelCursor`):
per-step bookkeeping — frame bounds, cursors, the partial assignment —
lives in Python scalars, candidate runs live in an
:class:`~repro.gpu.memory.Int64Arena`, the scheduler drives one
resumable step per DFS level, and a frame's child candidate
generation is batched once — across sibling cursors staging the same
``(group, level)`` when the launch-wide step coalescer finds them
(:func:`_level_children_multi`), per frame otherwise
(:func:`_level_children`) — with per-child costs recorded as priced
:class:`~repro.gpu.trace.SegmentCosts` and hub-anchor narrowings cached
per launch. ``vectorized=False`` keeps the original generator pair
``_worker``/``_dfs`` over the dict-walk Gen-Candidates as the
correctness oracle — matches, ``KernelStats``/``BlockStats``, and the
whole block schedule are byte-identical between the two
(``tests/test_dfs_level_step.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Generator, Optional

from repro import xp
from repro.errors import BudgetExceeded, ConfigMismatchError, MatchingError
from repro.filtering import CandidateStack, CandidateTable
from repro.graph.csr import CSRGraph, _flat_indices
from repro.graph.labeled_graph import LabeledGraph, canonical
from repro.gpu.device import VirtualGPU
from repro.gpu.memory import Int64Arena
from repro.gpu.params import DEFAULT_PARAMS, DeviceParams
from repro.gpu.scheduler import BlockScheduler
from repro.gpu.stats import KernelStats
from repro.gpu.trace import (
    OP_COALESCED,
    OP_LANES,
    OP_SCATTERED,
    SegmentCosts,
    TraceBuilder,
    TraceCursor,
)
from repro.gpu.warp import LevelCursor, WarpContext
from repro.matching.coalesced import CoalescedGroup, CoalescedPlan, build_coalesced_plan, trivial_plan
from repro.matching.intersect import (
    drop_member,
    gather_column,
    intersect_sorted,
    mask_members,
    positions_in,
    segmented_positions_in,
)
from repro.pma.gpma import GpmaUpdateStats

Match = tuple[int, ...]

_QUEUE_ITEM_WEIGHT = 4  # steal-estimate weight of one pending work item


@dataclass(frozen=True)
class WBMConfig:
    """Knobs for the kernel (the paper's ablation arms)."""

    work_stealing: str = "active"  # "active" | "passive" | "off"
    coalesced: bool = True
    max_k: int = 2
    bits_per_label: int = 2
    #: CSR-backed array kernels for Gen-Candidates and the filtering
    #: stack, the pooled array-native virtual-GPU launch path, and
    #: level-stepped DFS cursors with launch-wide fused candidate
    #: generation; False selects the original dict-walk / generator-
    #: worker / per-block-construction scalar path, kept as the
    #: correctness oracle (identical matches AND identical modeled
    #: cycle accounting)
    vectorized: bool = True
    # engine-wide busy-cycle allowance per launch (the timeout analogue;
    # exceeded -> BudgetExceeded -> the query counts as unsolved)
    cycle_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.work_stealing not in ("active", "passive", "off"):
            raise MatchingError(f"unknown work_stealing mode {self.work_stealing!r}")


@dataclass(frozen=True)
class MatchRecord:
    """One incremental match with its sign (+ insert-born, − delete-born)."""

    sign: int
    match: Match


@dataclass
class KernelOutput:
    """Result of one kernel launch (one sign phase of a batch)."""

    matches: list[Match] = field(default_factory=list)
    stats: KernelStats = field(default_factory=KernelStats)
    peak_stack_words: int = 0
    aborted: bool = False


@dataclass
class BatchResult:
    """Everything one processed batch produced."""

    positives: set[Match] = field(default_factory=set)
    negatives: set[Match] = field(default_factory=set)
    kernel_stats: KernelStats = field(default_factory=KernelStats)
    gpma_stats: GpmaUpdateStats = field(default_factory=GpmaUpdateStats)
    reencoded_vertices: int = 0
    transfer_words: int = 0
    aborted: bool = False

    @property
    def records(self) -> list[MatchRecord]:
        return [MatchRecord(1, m) for m in sorted(self.positives)] + [
            MatchRecord(-1, m) for m in sorted(self.negatives)
        ]

    def total_cycles(self) -> float:
        return self.kernel_stats.total_cycles + self.gpma_stats.total_cycles

    def model_seconds(self, clock_hz: float) -> float:
        return self.total_cycles() / clock_hz


class _MemoryGauge:
    """Tracks the DFS stacks' device-word footprint (Figure 5's claim
    that DFS memory stays flat)."""

    def __init__(self) -> None:
        self.current = 0
        self.peak = 0

    def alloc(self, words: int) -> None:
        self.current += words
        if self.current > self.peak:
            self.peak = self.current

    def free(self, words: int) -> None:
        self.current -= words


class PhaseEdges:
    """One sign phase's net update edges, indexed once and shared by
    every runtime that launches the phase.

    Holds the canonical ``(ex, ey, el)`` columns as arrays and as int
    lists, the total-order ``rank_map`` (edge rank = its index in the
    phase), and two lazily built indexes:

    * the update-edge partners of each endpoint, sorted by endpoint
      then partner, so :meth:`rank_partners` is one ``searchsorted``
      per data vertex, cached for the whole phase;
    * per CSR snapshot, a bucket index: the in-range edges sorted by
      their ``(label_x, label_y, edge_label)`` key, ascending edge
      index within a key — the label partitioning of GSI's PCSR — so
      the working-items pass resolves every hosted query's group keys
      with one ``searchsorted`` and visits only the edges a group
      representative can map onto (:func:`working_items`).
    """

    def __init__(self, edges) -> None:
        self.edges: list[tuple[int, int, int]] = list(edges)
        arr = xp.asarray(self.edges, dtype=xp.int64).reshape(-1, 3)
        self.ex = xp.minimum(arr[:, 0], arr[:, 1])
        self.ey = xp.maximum(arr[:, 0], arr[:, 1])
        self.el = arr[:, 2]
        # plain-int columns: work items are dicts of Python ints, and
        # unboxing an array scalar per field shows up in the hot loop
        self.exl: list[int] = xp.to_numpy(self.ex).tolist()
        self.eyl: list[int] = xp.to_numpy(self.ey).tolist()
        self.ell: list[int] = xp.to_numpy(self.el).tolist()
        self.rank_map: dict[tuple[int, int], int] = {
            e: i for i, e in enumerate(zip(self.exl, self.eyl))
        }
        self._partner_index: Optional[tuple] = None
        self._partners: dict[int, tuple[xp.ndarray, xp.ndarray]] = {}
        self._bucket_csr: Optional[CSRGraph] = None
        self._bucket: tuple = ()

    def __len__(self) -> int:
        return len(self.edges)

    def rank_partners(self, dv: int) -> tuple[xp.ndarray, xp.ndarray]:
        """Update-edge partners of data vertex ``dv`` (sorted) with the
        rank of each touching net-update edge, cached per phase."""
        entry = self._partners.get(dv)
        if entry is None:
            if self._partner_index is None:
                # built from rank_map, so a repeated edge keeps its last
                # rank exactly as the dict does
                keys = xp.asarray(list(self.rank_map), dtype=xp.int64).reshape(-1, 2)
                r = xp.asarray(list(self.rank_map.values()), dtype=xp.int64)
                ends = xp.concatenate([keys[:, 0], keys[:, 1]])
                others = xp.concatenate([keys[:, 1], keys[:, 0]])
                ranks = xp.concatenate([r, r])
                order = xp.lexsort((others, ends))
                self._partner_index = (ends[order], others[order], ranks[order])
            ends, others, ranks = self._partner_index
            lo = int(xp.searchsorted(ends, dv))
            hi = int(xp.searchsorted(ends, dv, side="right"))
            entry = self._partners[dv] = (others[lo:hi], ranks[lo:hi])
        return entry

    def bucket_index(self, csr: CSRGraph) -> tuple:
        """``(vertex alphabet, edge alphabet, sorted keys, edge index
        of each key)`` over the edges with both endpoints in ``csr``.

        A key is ``(rank(label_x) * V + rank(label_y)) * E +
        rank(edge_label)`` over the dense ranks of the labels the
        in-range edges carry (so it cannot overflow); the edge indices
        ascend within a key. Rebuilt only if a launch brings a
        different snapshot."""
        if self._bucket_csr is not csr:
            n = csr.n_vertices
            idx = xp.nonzero((self.ex < n) & (self.ey < n))[0]
            labels = csr.vertex_labels
            lx, ly, el = labels[self.ex[idx]], labels[self.ey[idx]], self.el[idx]
            valph = xp.unique(xp.concatenate([lx, ly]))
            ealph = xp.unique(el)
            keys = (
                xp.searchsorted(valph, lx) * len(valph) + xp.searchsorted(valph, ly)
            ) * len(ealph) + xp.searchsorted(ealph, el)
            order = xp.argsort(keys, kind="stable")
            self._bucket = (valph, ealph, keys[order], idx[order])
            self._bucket_csr = csr
        return self._bucket

    def resolve(self, csr: CSRGraph, keys: xp.ndarray) -> tuple[xp.ndarray, xp.ndarray]:
        """Candidate ``(key row, edge index)`` pairs of the ``(k, 3)``
        label-key matrix ``keys``: every in-range edge whose labels
        equal a row's key, key rows in order, edge indices ascending
        within a row."""
        valph, ealph, skeys, sidx = self.bucket_index(csr)
        packed = xp.full(len(keys), -1, dtype=xp.int64)
        if len(skeys):
            ranks = []
            ok = xp.ones(len(keys), dtype=bool)
            for col, alph in ((0, valph), (1, valph), (2, ealph)):
                r = xp.minimum(xp.searchsorted(alph, keys[:, col]), len(alph) - 1)
                ok &= alph[r] == keys[:, col]
                ranks.append(r)
            packed[ok] = ((ranks[0] * len(valph) + ranks[1]) * len(ealph) + ranks[2])[ok]
        lo = xp.searchsorted(skeys, packed)
        cnt = xp.searchsorted(skeys, packed, side="right") - lo
        total = int(cnt.sum())
        rows = xp.repeat(xp.arange(len(keys), dtype=xp.int64), cnt)
        pos = xp.arange(total, dtype=xp.int64) + xp.repeat(lo - (xp.cumsum(cnt) - cnt), cnt)
        return rows, sidx[pos]


class _Env:
    """Per-launch read-mostly context shared by all warp tasks."""

    def __init__(
        self,
        query: LabeledGraph,
        graph: LabeledGraph,
        table: CandidateTable,
        plan: CoalescedPlan,
        phase: PhaseEdges,
        config: WBMConfig,
        out: KernelOutput,
        csr: Optional[CSRGraph] = None,
    ) -> None:
        self.query = query
        self.graph = graph
        self.table = table
        self.plan = plan
        self.rank_map = phase.rank_map
        #: per data-vertex (sorted update partners, their ranks), served
        #: from the phase's endpoint-sorted index
        self.rank_partners = phase.rank_partners
        self.config = config
        self.out = out
        #: CSR snapshot of ``graph`` at launch time; shared across all
        #: runtimes when the store hands out its cached snapshot, built
        #: lazily otherwise (only the vectorized path reads it)
        self._csr = csr
        # pooled per-warp DFS states for the level-stepped path: blocks
        # run sequentially within a launch, so a warp's frame stack and
        # assignment array are reused across blocks (workers reset them
        # on completion, exactly like the pooled scheduler contexts)
        self._cursor_states: dict[int, dict] = {}
        # per-launch cache of first-stage narrowed hub slices, keyed by
        # (anchor data vertex, query vertex, anchor query vertex, filter
        # column): the label/edge-label/bitmap mask over a hub's sorted
        # adjacency depends only on that key, so repeated expansions of
        # the same hub across update edges (and across sibling cursors
        # in the fused level step) hit memory instead of recomputation.
        # Injectivity and rank filtering are applied by the caller on
        # top of the cached slice — both are order-preserving ANDs, so
        # they commute with the cached narrowing.
        self._hub_slices: dict[tuple, xp.ndarray] = {}
        self.gauge = _MemoryGauge()
        self.n = query.n_vertices
        #: the candidate stack's bitmap (its columns are read-only
        #: views) and the stack column of query vertex 0
        self.bitmap = table.stack.bitmap
        self.lo = table.lo
        # phase-A filter columns per (group, query vertex): the union of
        # candidate-table columns over the vertex's automorphism orbit —
        # on the fast path the stack's union column for a k>0 group and
        # the exact column otherwise (for whole-query automorphisms the
        # table is orbit-invariant, so the union equals the exact column)
        self._orbit_cols: dict[tuple[int, int], object] = {}
        self.spent_cycles = 0.0  # engine-wide busy cycles this launch

    @property
    def csr(self) -> CSRGraph:
        """CSR snapshot of the launch-time graph (lazily built)."""
        if self._csr is None:
            self._csr = CSRGraph.from_graph(self.graph)
        return self._csr

    def rank_filter(self, cands: xp.ndarray, dv: int, rank: int) -> xp.ndarray:
        """Drop candidates whose edge to ``dv`` is a net-update edge of
        rank below ``rank`` (the total-order duplicate rule)."""
        partners, ranks = self.rank_partners(dv)
        if not len(partners):
            return cands
        pos, hit = positions_in(partners, cands)
        blocked = hit & (ranks[pos] < rank)
        if blocked.any():
            return cands[~blocked]
        return cands

    def hub_slice(
        self, anchor_dv: int, qv: int, anchor_qv: int, col, col_key
    ) -> xp.ndarray:
        """Cached first-stage narrowing of ``anchor_dv``'s sorted
        adjacency for candidates of ``qv``: vertex label, edge label to
        the anchor, and the candidacy column — every prefix-independent
        mask. The caller layers injectivity / rank / other-neighbor
        intersections on top (never mutating the cached array)."""
        key = (anchor_dv, qv, anchor_qv, col_key)
        cache = self._hub_slices
        sl = cache.get(key)
        if sl is None:
            csr = self.csr
            base = csr.neighbor_slice(anchor_dv)
            query = self.query
            mask = (csr.vertex_labels[base] == query.vertex_label(qv)) & (
                csr.edge_label_slice(anchor_dv) == query.edge_label(qv, anchor_qv)
            )
            mask &= gather_column(col, base)
            sl = cache[key] = base[mask]
        return sl

    def cursor_state(self, warp_id: int) -> dict:
        """Pooled DFS state of one warp (level-step path)."""
        state = self._cursor_states.get(warp_id)
        if state is None:
            state = self._cursor_states[warp_id] = {
                "queue": [],
                "frames": _FrameStack(self.n),
                "assign": [-1] * self.n,
                "order": (),
                "active": False,
            }
        return state

    def orbit_column(self, group: CoalescedGroup, qv: int):
        """Boolean candidacy column for phase-A filtering at ``qv``: a
        stack column on the fast path; the scalar oracle ORs the
        orbit's exact columns itself."""
        key = (id(group), qv)
        col = self._orbit_cols.get(key)
        if col is None:
            if self.config.vectorized:
                col = self.bitmap[:, filter_index(self.table, group, qv)]
            else:
                orbit = group.vertex_orbits.get(qv, (qv,))
                col = self.table.bitmap[:, orbit[0]]
                for w in orbit[1:]:
                    col = col | self.table.bitmap[:, w]
            self._orbit_cols[key] = col
        return col

    def filter_column(self, group: CoalescedGroup, level: int) -> tuple:
        """Candidacy column for ``group.full_order[level]`` plus its
        hashable hub-cache key: the orbit-invariant union inside the
        core (phase A), the exact column outside it (phase B)."""
        qv = group.full_order[level]
        if level < len(group.core):
            return self.orbit_column(group, qv), (id(group), qv)
        return self.bitmap[:, self.lo + qv], qv

    def passes_filter(self, group: CoalescedGroup, qv: int, dv: int, in_core: bool) -> bool:
        """Candidate check: orbit-invariant union inside the core,
        exact column outside (and for singleton orbits they coincide)."""
        if in_core:
            col = self.orbit_column(group, qv)
            return dv < len(col) and bool(col[dv])
        return self.table.is_candidate(qv, dv)

    def emit(self, ctx: WarpContext, assign: dict[int, int]) -> None:
        match = tuple(assign[u] for u in range(self.n))
        ctx.write_global_consecutive(self.n)
        self.out.matches.append(match)

    def check_budget(self, ctx: WarpContext) -> None:
        """Accumulate this warp's new busy cycles into the launch-wide
        total and abort once the work allowance is hit."""
        self.spent_cycles += ctx.busy_cycles - ctx.env_busy_mark
        ctx.env_busy_mark = ctx.busy_cycles
        budget = self.config.cycle_budget
        if budget is not None and self.spent_cycles > budget:
            self.out.aborted = True
            raise BudgetExceeded(self.spent_cycles, budget)


# ---------------------------------------------------------------------------
# candidate generation (Algorithm 1's GenCandidates)
# ---------------------------------------------------------------------------
def _gen_candidates(
    ctx: WarpContext,
    env: _Env,
    group: CoalescedGroup,
    order: tuple[int, ...],
    assign: dict[int, int],
    level: int,
    rank: int,
) -> list[int]:
    """Candidates for ``order[level]`` given the current partial match.

    Phase A (core levels) filters with the orbit-invariant union of
    candidate columns; phase B uses the exact column. Enforces vertex
    label, adjacency + edge labels to all matched query neighbors,
    injectivity, and the total-order rank rule.

    The default path narrows through :func:`_narrow`;
    ``config.vectorized = False`` selects the dict walk
    (:func:`_candidates_scalar`), kept as the correctness oracle. Both
    paths pay the identical modeled warp-cooperative cost.
    """
    query, graph = env.query, env.graph
    qv = order[level]
    matched = [w for w in query.neighbors(qv) if w in assign]
    if not matched:
        raise MatchingError(f"matching order broke connectivity at {qv}")
    degs = [graph.degree(assign[w]) for w in matched]
    nb = min(degs)
    # the first minimum-degree matched vertex (adjacency order) anchors
    anchor = matched[degs.index(nb)]
    others = [w for w in matched if w != anchor]
    col, col_key = env.filter_column(group, level)
    if env.config.vectorized:
        out = _narrow(
            env, assign, rank, qv, anchor, [(w, assign[w]) for w in others], col, col_key
        )
        if not isinstance(out, list):
            out = xp.to_numpy(out).tolist()
    else:
        out = _candidates_scalar(env, assign, qv, anchor, others, col, rank)

    # --- cost accounting (warp-cooperative execution) -----------------
    ctx.read_global_consecutive(nb)  # the anchor's adjacency
    ctx.charge_lanes(nb * (1 + len(others)))
    if others:
        deg_sum = sum(degs) - nb
        steps = max(1, (deg_sum // len(others)).bit_length())
        rounds = (nb + ctx.params.warp_size - 1) // ctx.params.warp_size
        ctx.read_global_scattered(rounds * steps * len(others))
    # candidate-table probes: one scattered transaction per probed row group
    ctx.read_global_scattered(max(1, nb // ctx.params.warp_size))
    return out


def _candidates_scalar(
    env: _Env,
    assign: dict[int, int],
    qv: int,
    anchor: int,
    others: list[int],
    col,
    rank: int,
) -> list[int]:
    """Original dict-walk Gen-Candidates (the correctness oracle)."""
    query, graph = env.query, env.graph
    base = graph.neighbors(assign[anchor])
    anchor_label = query.edge_label(qv, anchor)
    want_label = query.vertex_label(qv)
    used = set(assign.values())
    rank_map = env.rank_map
    labels = graph.vertex_labels
    anchor_adj = graph.neighbor_dict(assign[anchor])
    n_col = len(col)

    out: list[int] = []
    for c in base:
        if labels[c] != want_label or c in used:
            continue
        if anchor_adj[c] != anchor_label:
            continue
        if c >= n_col or not col[c]:
            continue
        if rank_map:
            r = rank_map.get(canonical(c, assign[anchor]))
            if r is not None and r < rank:
                continue
        ok = True
        for w in others:
            dv = assign[w]
            elbl = graph.neighbor_dict(dv).get(c)
            if elbl is None or elbl != query.edge_label(qv, w):
                ok = False
                break
            if rank_map:
                r = rank_map.get(canonical(c, dv))
                if r is not None and r < rank:
                    ok = False
                    break
        if ok:
            out.append(c)
    return out


def _narrow(
    env: _Env,
    assign: dict[int, int],
    rank: int,
    qv: int,
    anchor: int,
    fixed: list[tuple[int, int]],
    col,
    col_key,
) -> "list[int] | xp.ndarray":
    """Fast-path Gen-Candidates: candidates of ``qv`` in the adjacency of
    ``assign[anchor]`` that pass the vertex label, the edge label to the
    anchor, the candidacy column ``col``, injectivity against ``assign``,
    the rank rule, and, per other matched neighbor ``(query vertex, data
    vertex)`` in ``fixed``, adjacency with the wanted edge label and its
    rank rule.

    The host strategy follows the length of the run: an anchor of at
    most ``_SCALAR_GEN_MAX`` neighbors is narrowed by one python pass
    over its snapshot rows; a hub anchor's first stage comes from the
    per-launch hub-slice cache (keyed on the hashable ``col_key``), and
    that slice is narrowed in python when it is short, by the array
    kernels otherwise. Ascending, as a python list, or as an int64
    array when the array kernels ran; equal to the scalar oracle."""
    graph = env.graph
    anchor_dv = assign[anchor]
    # the launch snapshot holds every assigned vertex: its int list is
    # the cheapest degree read
    if env.csr.degree(anchor_dv) > _SCALAR_GEN_MAX:
        run = env.hub_slice(anchor_dv, qv, anchor, col, col_key)
        if len(run) > _SCALAR_GEN_MAX:
            return _narrow_run_arrays(env, run, assign.values(), anchor_dv, rank, qv, fixed)
        run = xp.to_numpy(run).tolist()
    else:
        query = env.query
        anchor_label = query.edge_label(qv, anchor)
        want_label = query.vertex_label(qv)
        labels = graph.vertex_labels
        anchor_adj = graph.neighbor_dict(anchor_dv)
        n_col = len(col)
        run = [
            c
            for c in graph.neighbors(anchor_dv)
            if labels[c] == want_label
            and anchor_adj[c] == anchor_label
            and c < n_col
            and col[c]
        ]
    if not run:
        return run
    return _narrow_small_run(env, run, set(assign.values()), anchor_dv, rank, qv, fixed)


def _narrow_small_run(
    env: _Env,
    run: list[int],
    used: set[int],
    anchor_dv: int,
    rank: int,
    qv: int,
    fixed: list[tuple[int, int]],
) -> list[int]:
    """Python tail of :func:`_narrow` over a short run of first-stage
    survivors (ascending, already label / edge-label / bitmap filtered
    against the anchor): injectivity against ``used``, the anchor's rank
    rule, then per other matched neighbor ``(query vertex, data
    vertex)`` in ``fixed`` its snapshot row with the wanted edge label
    and its rank rule. Keeps the run's order."""
    graph, query, rank_map = env.graph, env.query, env.rank_map
    rows = [(graph.neighbor_dict(dv), query.edge_label(qv, w), dv) for w, dv in fixed]
    out: list[int] = []
    for c in run:
        if c in used:
            continue
        if rank_map:
            r = rank_map.get(canonical(c, anchor_dv))
            if r is not None and r < rank:
                continue
        for row, elbl, dv in rows:
            if row.get(c) != elbl:
                break
            if rank_map:
                r = rank_map.get(canonical(c, dv))
                if r is not None and r < rank:
                    break
        else:
            out.append(c)
    return out


def _narrow_run_arrays(
    env: _Env,
    run: xp.ndarray,
    used,
    anchor_dv: int,
    rank: int,
    qv: int,
    fixed: list[tuple[int, int]],
) -> xp.ndarray:
    """Array form of :func:`_narrow_small_run` for long runs: injectivity
    by one binary search per ``used`` value (clearing assigned vertices
    from the cached subsequence keeps exactly what the full-base mask
    would — both are per-element ANDs), then a sorted-adjacency
    intersection with every other matched neighbor via
    ``searchsorted`` (the paper's per-lane parallel binary search)."""
    query, csr = env.query, env.csr
    keep = xp.ones(len(run), dtype=bool)
    mask_members(keep, run, used)
    cands = run[keep]
    if env.rank_map and len(cands):
        cands = env.rank_filter(cands, anchor_dv, rank)
    for w, dv in fixed:
        if not len(cands):
            break
        cands = intersect_sorted(
            cands, csr.neighbor_slice(dv), csr.edge_label_slice(dv),
            query.edge_label(qv, w),
        )
        if env.rank_map and len(cands):
            cands = env.rank_filter(cands, dv, rank)
    return cands


def _fused_self_anchor(
    env: "_Env",
    prefix: dict[int, int],
    rank: int,
    qv: int,
    qv_prev: int,
    fixed: list[tuple[int, int]],
    col,
    c_arr: xp.ndarray,
) -> list[xp.ndarray]:
    """Batched Gen-Candidates for a run of children whose cost anchor is
    the frame vertex itself (each child's own adjacency is the narrowest
    matched neighborhood). One concatenated pass over the children's
    sorted adjacency slices replaces per-child generator calls: the
    vertex-label / edge-label / bitmap masks vectorize across the whole
    run, injectivity against the shared prefix is a handful of
    inequality masks, and every *other* matched neighbor — a prefix
    vertex, hence shared by the run — contributes ONE ``searchsorted``
    over all surviving elements instead of one per child. Every filter
    is a per-element AND, so the surviving values (ascending within
    each child, like the sorted slices they came from) equal the
    per-child :func:`_narrow` calls exactly."""
    query, csr = env.query, env.csr
    offsets = csr.offsets
    k = len(c_arr)
    st = offsets[c_arr]
    cnt = offsets[c_arr + 1] - st
    flat = _flat_indices(st, cnt)
    xs = csr.neighbors[flat]
    m = (csr.vertex_labels[xs] == query.vertex_label(qv)) & (
        csr.edge_labels[flat] == query.edge_label(qv, qv_prev)
    )
    m &= gather_column(col, xs)
    # injectivity: the child itself can never appear in its own
    # adjacency (no self loops), so only the shared prefix values mask
    for v in prefix.values():
        m &= xs != v
    segs = xp.repeat(xp.arange(k, dtype=xp.int64), cnt)
    keep = xp.nonzero(m)[0]
    xs = xs[keep]
    segs = segs[keep]
    has_rank = bool(env.rank_map)
    alive = True
    for w, dv in fixed:
        if not len(xs):
            break
        nbrs = csr.neighbor_slice(dv)
        if not len(nbrs):
            alive = False
            break
        pos, hit = positions_in(nbrs, xs)
        hit &= csr.edge_label_slice(dv)[pos] == query.edge_label(qv, w)
        if has_rank:
            partners, ranks = env.rank_partners(dv)
            if len(partners):
                rpos, rhit = positions_in(partners, xs)
                hit &= ~(rhit & (ranks[rpos] < rank))
        xs = xs[hit]
        segs = segs[hit]
    empty = c_arr[:0]
    if not alive or not len(xs):
        return [empty] * k
    counts = xp.bincount(segs, minlength=k)
    bounds = xp.zeros(k + 1, dtype=xp.int64)
    xp.cumsum(counts, out=bounds[1:])
    out: list[xp.ndarray] = []
    for i in range(k):
        res = xs[int(bounds[i]) : int(bounds[i + 1])]
        if has_rank and len(res):
            # the rank rule against the child's own edge keys on the
            # child value, so it stays a (cheap) per-child pass
            res = env.rank_filter(res, int(c_arr[i]), rank)
        out.append(res)
    return out


#: frames below this candidate count price/generate their level with the
#: python pass (array-assembly overhead beats the batch win there)
_LEVEL_BATCH_MIN = 10
#: candidate runs at or below this length are narrowed in one python
#: pass over per-vertex snapshot rows (anchor adjacencies and first-stage
#: hub slices alike); the array kernels take over above it
_SCALAR_GEN_MAX = 64
#: self-anchored children batch through one fused pass only when their
#: combined adjacency volume clears this bar — below it the per-child
#: walks beat the array-assembly overhead
_FUSE_SELF_MIN_WORK = 96


def _level_target(
    env: _Env,
    group: CoalescedGroup,
    order: tuple[int, ...],
    lv: int,
    prefix: dict[int, int],
) -> tuple[int, int, object, object, list[int]]:
    """What a level generation below frame ``order[lv]`` targets: the
    next query vertex, the frame vertex, the filter column with its
    hub-cache key, and the matched query neighbors (adjacency order)."""
    qv = order[lv + 1]
    qv_prev = order[lv]
    col, col_key = env.filter_column(group, lv + 1)
    matched = [w for w in env.query.neighbors(qv) if w in prefix or w == qv_prev]
    if not matched:
        raise MatchingError(f"matching order broke connectivity at {qv}")
    return qv, qv_prev, col, col_key, matched


def _level_children_scalar(
    env: _Env,
    prefix: dict[int, int],
    rank: int,
    params: DeviceParams,
    qv: int,
    qv_prev: int,
    col,
    matched: list[int],
    cands: list[int],
    col_key,
) -> tuple[list, SegmentCosts]:
    """Small-frame form of :func:`_level_children`: per-child cost
    totals by direct integer arithmetic (same pricing rules as
    :meth:`SegmentCosts.from_ops`) and candidate data from one shared
    prefix narrowing plus a per-child adjacency filter."""
    query, graph = env.query, env.graph
    warp = params.warp_size
    cc = params.compute_cycles
    gtc = params.global_transaction_cycles
    n_others = len(matched) - 1
    mult = 1 + n_others
    rank_map = env.rank_map
    fixed_degs = {w: graph.degree(prefix[w]) for w in matched if w != qv_prev}
    fixed_sum = sum(fixed_degs.values())
    prev_matched = qv_prev in matched
    want_elabel = query.edge_label(qv, qv_prev) if prev_matched else None

    k = len(cands)
    clock = [0] * k
    compute = [0] * k
    coalesced = [0] * k
    scattered = [0] * k
    transactions = [0] * k
    children: list = [None] * k
    pre_cache: dict[int, list[int]] = {}
    # self-anchored children: slots, values and degrees
    self_slots: list[int] = []
    self_cands: list[int] = []
    self_degs: list[int] = []
    for j, c in enumerate(cands):
        deg_c = graph.degree(c) if prev_matched else 0
        # anchor = first minimum-degree matched vertex (oracle tie-break)
        anchor = None
        nb = -1
        for w in matched:
            d = deg_c if w == qv_prev else fixed_degs[w]
            if nb < 0 or d < nb:
                nb, anchor = d, w
        # --- cost (the exact _gen_candidates charges) -----------------
        tx = -(-max(nb, 1) // warp)  # coalesced adjacency read
        coalesced[j] = tx
        comp_cy = (-(-max(nb * mult, 1) // warp)) * cc
        compute[j] = comp_cy
        if n_others:
            deg_sum = fixed_sum + deg_c - nb
            steps = max(1, (deg_sum // n_others).bit_length())
            scat = max((-(-nb // warp)) * steps * n_others, 1) + max(1, nb // warp)
        else:
            scat = max(1, nb // warp)
        scattered[j] = scat
        transactions[j] = tx + scat
        clock[j] = comp_cy + (tx + scat) * gtc
        # --- data -----------------------------------------------------
        if anchor == qv_prev:
            self_slots.append(j)
            self_cands.append(c)
            self_degs.append(nb)
            continue
        pre = pre_cache.get(anchor)
        if pre is None:
            pre = _narrow(
                env, prefix, rank, qv, anchor,
                [(w, prefix[w]) for w in matched if w != anchor and w != qv_prev],
                col, col_key,
            )
            if not isinstance(pre, list):
                pre = xp.to_numpy(pre).tolist()
            pre_cache[anchor] = pre
        if not pre:
            children[j] = pre
        elif prev_matched:
            adj_c = graph.neighbor_dict(c)
            res = []
            for x in pre:
                if adj_c.get(x) != want_elabel:
                    continue
                if rank_map:
                    r = rank_map.get(canonical(x, c))
                    if r is not None and r < rank:
                        continue
                res.append(x)
            children[j] = res
        else:
            # the child's value only matters for injectivity here
            children[j] = [x for x in pre if x != c] if c in pre else pre
    if self_slots:
        _self_anchored(
            env, prefix, rank, qv, qv_prev,
            [(w, prefix[w]) for w in matched if w != qv_prev],
            col, col_key, children, self_slots, self_cands, self_degs,
        )
    costs = SegmentCosts.from_totals(
        clock, list(clock), compute, transactions, coalesced, scattered
    )
    return children, costs


def _self_anchored(
    env: _Env,
    prefix: dict[int, int],
    rank: int,
    qv: int,
    qv_prev: int,
    fixed: list[tuple[int, int]],
    col,
    col_key,
    children: list,
    slots: list[int],
    cands,
    degs: list[int],
) -> None:
    """Candidates of the children whose anchor is the frame vertex
    itself (child ``cands[i]``'s own adjacency, of ``degs[i]``
    neighbors, is the narrowest matched neighborhood), written into
    ``children[slots[i]]``. ``cands`` is a list (a small frame) or an
    int64 array (a batched level); ``fixed`` holds the other matched
    neighbors, all prefix vertices. When at least two children have at
    most ``_SCALAR_GEN_MAX`` neighbors and their volume clears
    ``_FUSE_SELF_MIN_WORK``, those run as one :func:`_fused_self_anchor`
    pass; every other child is one :func:`_narrow` call (a hub child
    keeps the hub-slice cache)."""
    n = len(slots)
    if max(degs) <= _SCALAR_GEN_MAX:  # no hub child: gate at C speed
        small, rest, work = range(n), (), sum(degs)
    else:
        small = [i for i in range(n) if degs[i] <= _SCALAR_GEN_MAX]
        rest = [i for i in range(n) if degs[i] > _SCALAR_GEN_MAX]
        work = sum(degs[i] for i in small)
    if len(small) >= 2 and work >= _FUSE_SELF_MIN_WORK:
        c_arr = xp.asarray(cands, dtype=xp.int64)
        if len(small) < n:
            c_arr = c_arr[xp.asarray(small, dtype=xp.int64)]
        fused = _fused_self_anchor(env, prefix, rank, qv, qv_prev, fixed, col, c_arr)
        for i, res in zip(small, fused):
            children[slots[i]] = res
    else:
        rest = range(n)
    child_assign = dict(prefix)
    for i in rest:
        child_assign[qv_prev] = int(cands[i])
        children[slots[i]] = _narrow(
            env, child_assign, rank, qv, qv_prev, fixed, col, col_key
        )


def _gen_cost_segments(
    degs: xp.ndarray, anchor_idx: xp.ndarray, params: DeviceParams
) -> SegmentCosts:
    """Per-child priced Gen-Candidates segments from a degree matrix
    (one row per matched query neighbor, one column per child).
    Amounts mirror :func:`_gen_candidates` exactly; a single
    :meth:`SegmentCosts.from_ops` call prices every child."""
    k = degs.shape[1]
    n_others = degs.shape[0] - 1
    warp = params.warp_size
    n_base = degs[anchor_idx, xp.arange(k)]
    lanes = n_base * (1 + n_others)
    probe = xp.maximum(1, n_base // warp)
    if n_others:
        rounds = -(-n_base // warp)
        q_deg = (degs.sum(axis=0) - n_base) // n_others
        # frexp's exponent is bit_length for positive ints (0 for 0)
        steps = xp.maximum(1, xp.frexp(q_deg)[1].astype(xp.int64))
        kinds = xp.tile(
            xp.array(
                [OP_COALESCED, OP_LANES, OP_SCATTERED, OP_SCATTERED],
                dtype=xp.int64,
            ),
            k,
        )
        amounts = xp.empty(4 * k, dtype=xp.int64)
        amounts[0::4] = n_base
        amounts[1::4] = lanes
        amounts[2::4] = rounds * steps * n_others
        amounts[3::4] = probe
        bounds = xp.arange(4, 4 * k, 4, dtype=xp.int64)
    else:
        kinds = xp.tile(
            xp.array([OP_COALESCED, OP_LANES, OP_SCATTERED], dtype=xp.int64), k
        )
        amounts = xp.empty(3 * k, dtype=xp.int64)
        amounts[0::3] = n_base
        amounts[1::3] = lanes
        amounts[2::3] = probe
        bounds = xp.arange(3, 3 * k, 3, dtype=xp.int64)
    return SegmentCosts.from_ops(kinds, amounts, bounds, params)


def _level_children_multi(
    env: _Env,
    group: CoalescedGroup,
    order: tuple[int, ...],
    lv: int,
    requests: list[tuple[dict[int, int], xp.ndarray, int]],
    params: DeviceParams,
) -> list[tuple[list, SegmentCosts]]:
    """Array Gen-Candidates for one DFS level, over one or more requests.

    The one array primitive of the level-stepped path: a large frame's
    own generation (:func:`_level_children`, one request), pending
    frames of sibling warp cursors coalesced at a level step, and
    sibling frontier partials of the BFS variant all run here as ONE
    batched pass over the concatenation of their candidate runs. Each
    request is ``(prefix, candidate array, rank)``; all share the next
    query vertex, the filter column, and the matched-neighbor set, so
    the degree matrix, the anchor argmin, and the priced cost op arrays
    assemble once over the union of children, and the per-request
    :class:`SegmentCosts` are exact list slices of the one batch
    pricing. Prefix-anchored runs defer their per-child adjacency
    intersection into a single segmented ``searchsorted``
    (:func:`segmented_positions_in`) across every (request, child)
    pair. Children values and per-segment costs equal per-child
    :func:`_gen_candidates` calls — batching changes host-side
    granularity, never a modeled number.
    """
    query, csr = env.query, env.csr
    # every request's prefix assigns exactly order[0..lv-1], so the
    # matched set is request-invariant; probe it on the first prefix
    qv, qv_prev, col, col_key, matched = _level_target(
        env, group, order, lv, requests[0][0]
    )
    counts = xp.array([len(c) for _, c, _ in requests], dtype=xp.int64)
    all_cands = xp.concatenate([c for _, c, _ in requests])
    total = len(all_cands)
    offsets = csr.offsets
    degs = xp.empty((len(matched), total), dtype=xp.int64)
    for i, w in enumerate(matched):
        if w == qv_prev:
            degs[i] = offsets[all_cands + 1] - offsets[all_cands]
        else:
            degs[i] = xp.repeat(
                xp.array(
                    [csr.degree(prefix[w]) for prefix, _, _ in requests],
                    dtype=xp.int64,
                ),
                counts,
            )
    # first minimum along the matched order == the oracle's min() tie-break
    anchor_idx = xp.argmin(degs, axis=0)
    batch_costs = _gen_cost_segments(degs, anchor_idx, params)

    starts = xp.zeros(len(requests) + 1, dtype=xp.int64)
    xp.cumsum(counts, out=starts[1:])
    out: list[tuple[list, SegmentCosts]] = []
    for r in range(len(requests)):
        a, b = int(starts[r]), int(starts[r + 1])
        out.append(
            (
                [None] * (b - a),
                SegmentCosts.from_totals(
                    batch_costs.clock[a:b],
                    batch_costs.busy[a:b],
                    batch_costs.compute[a:b],
                    batch_costs.transactions[a:b],
                    batch_costs.coalesced[a:b],
                    batch_costs.scattered[a:b],
                ),
            )
        )

    # --- per-child candidate data ------------------------------------
    has_rank = bool(env.rank_map)
    prev_matched = qv_prev in matched
    want_elabel = query.edge_label(qv, qv_prev) if prev_matched else None
    others = [w for w in matched if w != qv_prev]
    empty = all_cands[:0]
    # deferred (request, child) pairs for the fused segmented intersect
    fuse_pre: list[xp.ndarray] = []
    fuse_dst: list[tuple[int, int]] = []
    fuse_c: list[int] = []
    for r, (prefix, cands_r, rank) in enumerate(requests):
        children = out[r][0]
        a = int(starts[r])
        aidx = anchor_idx[a : a + len(cands_r)]
        for ai in sorted(set(xp.to_numpy(aidx).tolist())):
            sel = xp.to_numpy(xp.nonzero(aidx == ai)[0])
            w_anchor = matched[ai]
            if w_anchor == qv_prev:
                _self_anchored(
                    env, prefix, rank, qv, qv_prev,
                    [(w, prefix[w]) for w in others], col, col_key, children,
                    sel.tolist(), cands_r[sel], xp.to_numpy(degs[ai, a + sel]).tolist(),
                )
                continue
            # prefix anchor: one shared narrowing for the whole run
            pre = _narrow(
                env, prefix, rank, qv, w_anchor,
                [(w, prefix[w]) for w in others if w != w_anchor], col, col_key,
            )
            if isinstance(pre, list):
                pre = xp.asarray(pre, dtype=xp.int64)
            if prev_matched:
                for j in sel:
                    if not len(pre):
                        children[j] = empty
                        continue
                    fuse_pre.append(pre)
                    fuse_dst.append((r, int(j)))
                    fuse_c.append(int(cands_r[j]))
            else:
                # the child's value only matters for injectivity here
                for j in sel:
                    children[j] = drop_member(pre, int(cands_r[j]))

    if fuse_pre:
        # one concatenated gather over the children's adjacency slices
        # plus one segmented searchsorted covers every deferred pair
        c_arr = xp.array(fuse_c, dtype=xp.int64)
        t_starts = offsets[c_arr]
        t_counts = offsets[c_arr + 1] - t_starts
        flat = _flat_indices(t_starts, t_counts)
        targets = csr.neighbors[flat]
        t_lbls = csr.edge_labels[flat]
        n_items = len(c_arr)
        seg_ids = xp.arange(n_items, dtype=xp.int64)
        t_segs = xp.repeat(seg_ids, t_counts)
        p_lens = xp.fromiter(
            (len(p) for p in fuse_pre), dtype=xp.int64, count=n_items
        )
        probes = xp.concatenate(fuse_pre)
        p_segs = xp.repeat(seg_ids, p_lens)
        pos, hit = segmented_positions_in(
            targets, t_segs, probes, p_segs, csr.n_vertices
        )
        if len(targets):
            hit &= t_lbls[pos] == want_elabel
        off = 0
        for i in range(n_items):
            ln = int(p_lens[i])
            # no self loops: the child itself can never survive its own
            # adjacency intersection, so injectivity is implied
            res = fuse_pre[i][hit[off : off + ln]]
            off += ln
            r, j = fuse_dst[i]
            if has_rank and len(res):
                res = env.rank_filter(res, fuse_c[i], requests[r][2])
            out[r][0][j] = res
    return out


def _level_children(
    env: _Env,
    group: CoalescedGroup,
    order: tuple[int, ...],
    prefix: dict[int, int],
    lv: int,
    cands: xp.ndarray,
    rank: int,
    params: DeviceParams,
) -> tuple[list, SegmentCosts]:
    """Batched Gen-Candidates for one whole DFS level.

    The frame at ``order[lv]`` holds unexplored candidates ``cands``;
    each child assigns one candidate on top of the fixed ``prefix``
    (``order[0..lv-1]``) and needs its own candidate list for
    ``order[lv + 1]``. All children share the prefix, so the per-child
    narrowing largely factors out: whenever the cost-model anchor (the
    matched neighbor of minimum degree) is a *prefix* vertex, the
    label/bitmap/injectivity masks and every prefix-adjacency
    intersection are computed once for the run and only the child's own
    adjacency (and injectivity against the child itself) varies.

    Returns the per-child candidate arrays plus one
    :class:`SegmentCosts` with a segment per child — the recorded
    per-level cost trace the level-stepped cursor replays with scalar
    adds. Amounts mirror :func:`_gen_candidates` exactly, so the priced
    segments equal the oracle's per-call charges byte for byte.

    Two host strategies produce the identical result: small frames
    (the common case on selective serving queries) run a python pass
    over per-vertex snapshot rows — the fixed cost of assembling op arrays
    dwarfs a handful of children — while larger frames are a
    single-request :func:`_level_children_multi` batch.
    """
    if len(cands) >= _LEVEL_BATCH_MIN:
        return _level_children_multi(
            env, group, order, lv,
            [(prefix, xp.asarray(cands, dtype=xp.int64), rank)], params,
        )[0]
    qv, qv_prev, col, col_key, matched = _level_target(env, group, order, lv, prefix)
    return _level_children_scalar(
        env, prefix, rank, params, qv, qv_prev, col, matched,
        xp.to_numpy(cands).tolist(), col_key,
    )


# ---------------------------------------------------------------------------
# boundary permutation (coalesced search §V-B)
# ---------------------------------------------------------------------------
def _boundary_items(
    ctx: WarpContext,
    env: _Env,
    group: CoalescedGroup,
    assign: dict[int, int],
    dedup: set,
    rank: int,
) -> list[dict]:
    """Permute a completed core assignment through the group's
    automorphisms, screen against the full candidate table, and return
    phase-B work items."""
    items: list[dict] = []
    table = env.table
    boundary = len(group.core)
    for sigma in group.core_maps:
        permuted = {sigma[u]: assign[u] for u in group.core}
        key = tuple(permuted[u] for u in group.core)
        if key in dedup:
            continue
        dedup.add(key)
        if all(table.is_candidate(qv, dv) for qv, dv in permuted.items()):
            items.append(
                {
                    "group": group,
                    "assign": permuted,
                    "level": boundary,
                    "dedup": dedup,
                    "rank": rank,
                    "permuted": True,
                }
            )
    ctx.charge_lanes(len(group.core_maps) * len(group.core))
    return items


# ---------------------------------------------------------------------------
# the DFS worker (one warp's main loop)
# ---------------------------------------------------------------------------
def _state_name(warp_id: int) -> str:
    return f"wstate_{warp_id}"


def _ensure_state(ctx: WarpContext, env: Optional[_Env] = None) -> dict:
    """The warp's shared DFS state, allocated on first use.

    With ``env`` (the level-stepped path) the state carries the cursor
    layout: frames as a :class:`_FrameStack` and the assignment as a
    plain int list indexed by query vertex (-1 = unassigned). The
    generator oracle keeps the original dict/list layout. A launch
    never mixes the two — every worker of a launch is spawned through
    the same :func:`_spawn_worker` mode.
    """
    name = _state_name(ctx.warp_id)
    if name not in ctx.shared:
        if env is not None:
            state = env.cursor_state(ctx.warp_id)
        else:
            state = {"queue": [], "frames": [], "assign": {}, "order": (), "active": False}
        ctx.shared_alloc(name, state, words=64)
    state, _ = ctx.shared.read(name)
    return state


def _worker(ctx: WarpContext, env: _Env, items: list[dict]) -> Generator[None, None, None]:
    """Process work items (initial mappings, boundary partials, or
    stolen slices) until the local queue drains."""
    ctx.resume_mutates_shared = False  # the mutation is happening now
    state = _ensure_state(ctx)
    state["queue"].extend(items)
    state["active"] = True
    try:
        while state["queue"]:
            item = state["queue"].pop()
            yield from _dfs(ctx, env, state, item)
    finally:
        state["active"] = False
        state["frames"] = []
        state["assign"] = {}


def _dfs(ctx: WarpContext, env: _Env, state: dict, item: dict) -> Generator[None, None, None]:
    group: CoalescedGroup = item["group"]
    order = group.full_order
    n = env.n
    boundary = len(group.core)
    rank = item["rank"]
    dedup: set = item["dedup"]
    assign = dict(item["assign"])
    state["assign"] = assign
    state["order"] = order
    state["current_group"] = group
    state["current_dedup"] = dedup
    state["current_rank"] = rank
    level = item["level"]

    # items landing at or past the end are complete matches (k=0 groups)
    if level >= n:
        env.emit(ctx, assign)
        return
    # unpermuted item sitting exactly on the boundary: permute first
    if level == boundary and not item.get("permuted", False) and not group.is_singleton:
        state["queue"].extend(_boundary_items(ctx, env, group, assign, dedup, rank))
        return

    frames: list[dict] = state["frames"]
    base_depth = len(frames)

    cands = item.get("cands")
    if cands is None:
        cands = _gen_candidates(ctx, env, group, order, assign, level, rank)
        yield
    env.gauge.alloc(len(cands))
    frames.append({"level": level, "cands": cands, "p": 0})
    passive = env.config.work_stealing == "passive"
    step = 0

    while len(frames) > base_depth:
        env.check_budget(ctx)
        fr = frames[-1]
        lv = fr["level"]
        qv = order[lv]
        # csize is re-read each iteration: an active thief may have
        # truncated the candidate list through shared memory
        if fr["p"] >= len(fr["cands"]):
            frames.pop()
            env.gauge.free(len(fr["cands"]))
            assign.pop(qv, None)
            ctx.charge_compute(1)
            continue
        c = fr["cands"][fr["p"]]
        fr["p"] += 1
        assign[qv] = c
        nxt = lv + 1
        step += 1
        if passive and step % _STEAL_PERIOD == 0:
            _passive_donate(ctx, env, state)
        # boundary first: a whole-query automorphic group (boundary == n)
        # must still emit the permuted members, not just the found one
        if nxt == boundary and not group.is_singleton:
            state["queue"].extend(_boundary_items(ctx, env, group, assign, dedup, rank))
            del assign[qv]
            continue
        if nxt == n:
            env.emit(ctx, assign)
            del assign[qv]
            continue
        nxt_cands = _gen_candidates(ctx, env, group, order, assign, nxt, rank)
        yield
        if nxt_cands:
            env.gauge.alloc(len(nxt_cands))
            frames.append({"level": nxt, "cands": nxt_cands, "p": 0})
        else:
            del assign[qv]
    # leftover assignment of the entry level is cleared by frame pop


# ---------------------------------------------------------------------------
# the level-stepped DFS worker (the fast path)
# ---------------------------------------------------------------------------
class _FrameStack:
    """DFS frame stack of one warp, bookkept in Python scalars.

    The generator oracle keeps frames as a list of
    ``{"level", "cands", "p"}`` dicts; here each frame is one slot of
    four plain int lists — ``level[i]``, the frame's candidate run
    bounds ``start[i]``/``end[i]`` inside a shared :class:`Int64Arena`,
    and the absolute candidate cursor ``p[i]`` — plus, per frame, the
    precomputed next-level candidate arrays and their priced cost
    segments (:func:`_level_children`), indexed by candidate position
    at push time. A level step reads and writes only these ints; the
    arena holds the candidate runs, the one thing processed as a whole
    array. An active thief splits a frame by copying the tail
    ``[mid, end)`` and lowering ``end[i]`` — the stack form of the
    oracle's in-place ``del fr["cands"][mid:]`` truncation (stranded
    precomputed children are simply never consumed).
    """

    __slots__ = (
        "level",
        "start",
        "end",
        "p",
        "arena",
        "depth",
        "children",
        "child_costs",
    )

    def __init__(self, n_levels: int) -> None:
        cap = max(int(n_levels), 1)
        self.level = [0] * cap
        self.start = [0] * cap
        self.end = [0] * cap
        self.p = [0] * cap
        self.arena = Int64Arena()
        self.depth = 0
        self.children: list = [None] * cap
        self.child_costs: list = [None] * cap

    def push(self, lv: int, cands) -> int:
        d = self.depth
        start, end = self.arena.push(cands)
        self.level[d] = lv
        self.start[d] = start
        self.end[d] = end
        self.p[d] = start
        self.children[d] = None
        self.child_costs[d] = None
        self.depth = d + 1
        return d

    def pop(self) -> int:
        """Drop the top frame; returns its (possibly thief-truncated)
        candidate count — the words the memory gauge frees."""
        d = self.depth - 1
        start = self.start[d]
        self.children[d] = None
        self.child_costs[d] = None
        self.arena.truncate(start)
        self.depth = d
        return self.end[d] - start

    def remaining(self) -> int:
        """Unexplored candidates across all frames (steal estimate)."""
        d = self.depth
        return sum(self.end[:d]) - sum(self.p[:d])

    def clear(self) -> None:
        for i in range(self.depth):
            self.children[i] = None
            self.child_costs[i] = None
        self.depth = 0
        self.arena.truncate(0)

    def steal_shallowest(self, order, assign: list[int]) -> Optional[dict]:
        """Split the shallowest frame with >= 2 unexplored candidates;
        returns the same loot shape as the oracle's frame steal."""
        for i in range(self.depth):
            p, end = self.p[i], self.end[i]
            remaining = end - p
            if remaining >= 2:
                mid = p + remaining // 2
                stolen = self.arena.view(mid, end).copy()
                self.end[i] = mid  # in-place: the victim sees the cut
                lv = self.level[i]
                return {
                    "frame_steal": True,
                    "level": lv,
                    "cands": stolen,
                    "assign": {order[j]: assign[order[j]] for j in range(lv)},
                }
        return None


class _DfsLevelCursor(LevelCursor):
    """Level-stepped DFS worker (one warp's main loop).

    The fast-path replacement for the generator ``_worker``/``_dfs``
    pair: one :meth:`step` executes exactly the work between two oracle
    yields — the pending candidate attach, then pops / emits / boundary
    bookkeeping up to and including the next candidate generation — so
    the block schedule, every charge, and all sibling-observable shared
    state are byte-identical to the generator path at every step
    boundary. What changes is the host-side execution: per-step
    bookkeeping lives in Python scalars — a :class:`_FrameStack` of int
    lists and an int-list assignment — while arrays are used only where
    a whole candidate run is processed: a level's candidate generation
    is batched once at frame push (:func:`_level_children`), and each
    child's gen cost replays from the recorded per-level segments with
    scalar adds.

    Interactions stay faithful: active thieves only run between steps
    (and read the same state shape through ``_steal_from``); passive
    donates keep the oracle's intra-step op order because batching is
    disabled under passive stealing and under engine budgets.
    """

    __slots__ = (
        "env",
        "items",
        "state",
        "pending",
        "staged",
        "group",
        "order",
        "boundary",
        "singleton",
        "gen_levels",
        "rank",
        "dedup",
        "steps",
        "fast",
        "passive",
        "_prefetch",
    )

    def __init__(self, ctx: WarpContext, env: _Env, items: list[dict]) -> None:
        # ``ctx`` mirrors the _worker(ctx, ...) signature; the cursor is
        # always stepped with the owning warp's context by the scheduler
        self.env = env
        self.items = list(items)
        self.state: Optional[dict] = None
        self.pending: Optional[tuple] = None
        #: True while ``pending`` holds a frame whose children the step
        #: coalescer may generate early (see :meth:`staged_gen`)
        self.staged = False
        self._prefetch: Optional[tuple] = None
        cfg = env.config
        self.passive = cfg.work_stealing == "passive"
        self.fast = cfg.cycle_budget is None and not self.passive
        self.steps = 0

    # ------------------------------------------------------------------
    def step(self, ctx: WarpContext) -> bool:
        """One resumption; True once the work queue drains."""
        state = self.state
        if state is None:
            # first resumption: same prologue as _worker
            ctx.resume_mutates_shared = False
            state = self.state = _ensure_state(ctx, self.env)
            state["queue"].extend(self.items)
            state["active"] = True
            self.items = None
        try:
            pend = self.pending
            if pend is not None:
                self.pending = None
                self.staged = False
                env = self.env
                if pend[0] == 0:  # entry frame push after the item-entry gen
                    _, cands, level = pend
                    env.gauge.alloc(len(cands))
                    self._push_frame(
                        ctx, state, level, xp.asarray(cands, dtype=xp.int64)
                    )
                else:  # child attach after a priced gen segment
                    _, child, nxt, qv_prev = pend
                    if len(child):
                        env.gauge.alloc(len(child))
                        self._push_frame(ctx, state, nxt, child)
                    else:
                        state["assign"][qv_prev] = -1
                if self._inner(ctx):
                    return False
            queue = state["queue"]
            while queue:
                if self._enter_item(ctx, queue.pop()):
                    return False
        except BaseException:
            self._cleanup()  # the generator's finally block
            raise
        self._cleanup()
        return True

    def _cleanup(self) -> None:
        state = self.state
        state["active"] = False
        state["frames"].clear()
        state["assign"][:] = [-1] * self.env.n

    def _enter_item(self, ctx: WarpContext, item: dict) -> bool:
        """The _dfs prologue; True when the item yielded on its entry gen."""
        env = self.env
        state = self.state
        group: CoalescedGroup = item["group"]
        n = env.n
        boundary = len(group.core)
        rank = item["rank"]
        dedup: set = item["dedup"]
        adict = item["assign"]
        level = item["level"]
        # items that never open a frame (complete matches, unpermuted
        # boundary partials) are handled before the state bookkeeping:
        # the oracle's writes for them are unobservable — no yield can
        # occur before a later item (or the worker's cleanup) overwrites
        # the state — so skipping them changes nothing a sibling can see
        if level >= n:
            env.emit(ctx, adict)
            return False
        singleton = group.is_singleton
        if level == boundary and not item.get("permuted", False) and not singleton:
            state["queue"].extend(
                _boundary_items(ctx, env, group, adict, dedup, rank)
            )
            return False
        order = group.full_order
        assign = state["assign"]
        assign[:] = [-1] * n
        for u, dv in adict.items():
            assign[u] = dv
        state["order"] = order
        state["current_group"] = group
        state["current_dedup"] = dedup
        state["current_rank"] = rank
        self.group = group
        self.order = order
        self.boundary = boundary
        self.singleton = singleton
        #: per level: does a frame there generate children, i.e. is its
        #: next level neither the match end nor an unpermuted boundary
        self.gen_levels = [
            lv + 1 < n and (lv + 1 != boundary or singleton) for lv in range(n)
        ]
        self.rank = rank
        self.dedup = dedup
        self.steps = 0
        cands = item.get("cands")
        if cands is None:
            cands = _gen_candidates(ctx, env, group, order, adict, level, rank)
            self.pending = (0, cands, level)
            self.staged = len(cands) > 0 and self.gen_levels[level]
            return True  # the oracle's entry-gen yield
        # stolen frame slice: pushed in the same resumption, no yield
        env.gauge.alloc(len(cands))
        self._push_frame(ctx, state, level, xp.asarray(cands, dtype=xp.int64))
        return self._inner(ctx)

    def staged_gen(self):
        """The pending frame's fully-determined child-generation request.

        Once :attr:`pending` is set, the cursor's next resumption begins
        by pushing exactly that frame: the prefix comes from
        ``state["assign"]`` (mutated only by this cursor — thieves
        truncate arena runs, never the assignment), and the candidate
        run is the pending tuple's own array. Early generation is
        therefore value- and cost-identical to the inline
        :func:`_level_children` call at push time, which is the contract
        :meth:`LevelCursor.staged_gen` demands. :attr:`staged` mirrors
        the gating of :meth:`_push_frame` — frames that would not batch
        inline stage nothing — and drops once the coalescer hands the
        frame its prefetched children.
        """
        if not self.staged:
            return None
        _, cands, lv = self.pending[:3]
        return (self.group, lv, self.staged_prefix, cands, self.rank)

    def staged_prefix(self, lv: int) -> dict[int, int]:
        """The staged frame's prefix assignment, materialized on demand:
        the coalescer scans staged requests every level step but only
        batch members past the fusion gate ever need the dict, so the
        request carries this builder instead of an eager copy."""
        order = self.order
        assign = self.state["assign"]
        return {order[i]: assign[order[i]] for i in range(lv)}

    def _push_frame(self, ctx: WarpContext, state: dict, lv: int, cands) -> None:
        """Push a frame; batch-generate its children's candidates and
        record the per-child cost segments (no charges yet — each child
        pays its segment at its own consumption step, exactly when the
        oracle would have charged its Gen-Candidates call)."""
        fs: _FrameStack = state["frames"]
        d = fs.push(lv, cands)
        pf = self._prefetch
        if pf is not None:
            # the launch-wide coalescer already generated this frame's
            # children in a fused sibling batch; adopt them verbatim
            self._prefetch = None
            if pf[0] == lv:
                fs.children[d] = pf[1]
                fs.child_costs[d] = pf[2]
                return
        if len(cands) and self.gen_levels[lv]:
            children, costs = _level_children(
                self.env,
                self.group,
                self.order,
                self.staged_prefix(lv),
                lv,
                fs.arena.view(fs.start[d], fs.end[d]),
                self.rank,
                ctx.params,
            )
            fs.children[d] = children
            fs.child_costs[d] = costs

    def _inner(self, ctx: WarpContext) -> bool:
        """The _dfs while loop; True when it yielded on a child gen."""
        state = self.state
        fs: _FrameStack = state["frames"]
        # the frame lists are mutated in place, never replaced, and no
        # frame is pushed inside this loop, so the arena buffer is stable;
        # what only the rare branches need is read there, off ``self``
        fs_level, fs_start, fs_end, fs_p = fs.level, fs.start, fs.end, fs.p
        buf = fs.arena.buf
        assign = state["assign"]
        order = self.order
        boundary = self.boundary
        singleton = self.singleton
        n = self.env.n
        fast = self.fast
        while fs.depth:
            if not fast:
                self.env.check_budget(ctx)
            d = fs.depth - 1
            # bounds re-read each iteration: an active thief may have
            # truncated the frame's run through shared memory
            p, end = fs_p[d], fs_end[d]
            lv = fs_level[d]
            qv = order[lv]
            if p >= end:
                self.env.gauge.free(fs.pop())
                assign[qv] = -1
                ctx.charge_compute(1)
                continue
            nxt = lv + 1
            is_boundary = nxt == boundary and not singleton
            if fast and nxt == n and not is_boundary:
                # leaf frame: the oracle drains it within one resumption
                # (no yield between emits), so emit the whole remaining
                # run as one batch with the identical total charge
                k = end - p
                row = assign[:]
                out_matches = self.env.out.matches
                for c in xp.to_numpy(buf[p:end]).tolist():
                    row[qv] = c
                    out_matches.append(tuple(row))
                params = ctx.params
                tx = -(-n // params.warp_size) * k
                cycles = tx * params.global_transaction_cycles
                ctx.clock += cycles
                ctx.busy_cycles += cycles
                st = ctx.stats
                st.global_transactions += tx
                st.coalesced_transactions += tx
                fs_p[d] = end
                continue
            c = int(buf[p])
            fs_p[d] = p + 1
            assign[qv] = c
            if self.passive:
                self.steps += 1
                if self.steps % _STEAL_PERIOD == 0:
                    _passive_donate(ctx, self.env, state)
            if is_boundary:
                group = self.group
                bdict = {u: assign[u] for u in group.core}
                state["queue"].extend(
                    _boundary_items(
                        ctx, self.env, group, bdict, self.dedup, self.rank
                    )
                )
                assign[qv] = -1
                continue
            if nxt == n:
                ctx.write_global_consecutive(n)
                self.env.out.matches.append(tuple(assign))
                assign[qv] = -1
                continue
            # child gen: replay the priced per-level segment, attach on
            # the next resumption (the oracle's post-gen yield). The
            # segment is charged inline — :meth:`SegmentCosts.apply`'s
            # exact adds, without a call per step
            j = p - fs_start[d]
            costs = fs.child_costs[d]
            ctx.clock += costs.clock[j]
            ctx.busy_cycles += costs.busy[j]
            st = ctx.stats
            st.compute_cycles += costs.compute[j]
            st.global_transactions += costs.transactions[j]
            st.coalesced_transactions += costs.coalesced[j]
            st.scattered_transactions += costs.scattered[j]
            child = fs.children[d][j]
            self.pending = (1, child, nxt, qv)
            self.staged = len(child) > 0 and self.gen_levels[nxt]
            return True
        return False


def _spawn_worker(ctx: WarpContext, env: _Env, items: list[dict]):
    """A DFS worker in the launch's task form: a level-stepped cursor on
    the vectorized path, the generator oracle otherwise."""
    if env.config.vectorized:
        return _DfsLevelCursor(ctx, env, items)
    return _worker(ctx, env, items)


def _make_step_coalescer(sched: BlockScheduler, env: _Env):
    """Launch-wide fused Gen-Candidates on the vectorized path.

    Installed as the scheduler's level-barrier hook: right before a DFS
    cursor steps, collect the staged candidate-generation requests
    (:meth:`_DfsLevelCursor.staged_gen`) of every sibling cursor
    targeting the same ``(group, level)`` and run them as ONE
    :func:`_level_children_multi` batch, handing each cursor its
    precomputed children and priced cost segments through
    ``_prefetch``. Purely host-side: no cycle charge, no shared-memory
    traffic, and each cursor still pays its own per-child segments at
    its own consumption steps — the modeled schedule and every stat are
    byte-identical to inline generation. Small batches fall through to
    the inline path (the fusion overhead would dominate).
    """

    def coalesce(cursor: LevelCursor) -> None:
        if type(cursor) is not _DfsLevelCursor or not cursor.staged:
            return
        # one scan classifies every staged sibling request by its
        # (group, level) generation target; every class past the gate
        # fuses now — staged inputs are stable until each owner's next
        # resumption, so generating early is value- and cost-identical
        classes: dict[tuple[int, int], list] = {}
        for g in sched.generators.values():
            if type(g) is _DfsLevelCursor and g.staged:
                r = g.staged_gen()
                classes.setdefault((id(r[0]), r[1]), []).append((g, r))
        for batch in classes.values():
            if (
                len(batch) < 2
                or sum(len(r[3]) for _, r in batch) < _LEVEL_BATCH_MIN
            ):
                continue
            group, lv = batch[0][1][0], batch[0][1][1]
            results = _level_children_multi(
                env,
                group,
                group.full_order,
                lv,
                [
                    (r[2](lv), xp.asarray(r[3], dtype=xp.int64), r[4])
                    for _, r in batch
                ],
                sched.params,
            )
            for (g, _), (children, costs) in zip(batch, results):
                g._prefetch = (lv, children, costs)
                g.staged = False

    return coalesce


# ---------------------------------------------------------------------------
# work stealing
# ---------------------------------------------------------------------------
def _estimate_remaining(state: dict) -> int:
    est = len(state["queue"]) * _QUEUE_ITEM_WEIGHT
    frames = state["frames"]
    if type(frames) is _FrameStack:
        return est + frames.remaining()
    for fr in frames:
        est += max(0, len(fr["cands"]) - fr["p"])
    return est


def _steal_from(victim: dict, env: _Env) -> Optional[dict]:
    """Take half the victim's pending queue, else split the shallowest
    frame with at least two unexplored candidates."""
    queue = victim["queue"]
    if len(queue) >= 2:
        take = len(queue) // 2
        stolen = queue[:take]
        del queue[:take]
        return {"items": stolen}
    order = victim["order"]
    assign = victim["assign"]
    frames = victim["frames"]
    if type(frames) is _FrameStack:  # level-stepped victim: array layout
        return frames.steal_shallowest(order, assign)
    for fr in frames:
        remaining = len(fr["cands"]) - fr["p"]
        if remaining >= 2:
            mid = fr["p"] + remaining // 2
            stolen_cands = fr["cands"][mid:]
            del fr["cands"][mid:]  # in-place: victim sees the truncation
            lv = fr["level"]
            prefix = {order[i]: assign[order[i]] for i in range(lv)}
            # find group/dedup/rank through the queue-free path: the
            # victim's current item context lives in its frames' shared
            # state, captured below by the caller
            return {
                "frame_steal": True,
                "level": lv,
                "cands": stolen_cands,
                "assign": prefix,
            }
    return None


_POLL_CYCLES = 64.0  # persistent idle warp re-checks at this cadence
_STEAL_PERIOD = 8  # passive: a busy warp checks for parked siblings every this many steps


def _active_idle_handler(sched: BlockScheduler, env: _Env):
    """Idle hook: scan sibling warp states, raid the most loaded one.

    A warp that finds active siblings but nothing stealable *right now*
    spin-waits (idle cycles, not busy) and retries — persistent-warp
    style — instead of retiring while work remains.

    On the pooled fast path the spin is priced in batch: sibling DFS
    state can only change when a sibling resumes, and the scheduler
    knows the clock of the next such event, so every re-scan strictly
    before that horizon provably observes the same nothing-to-steal
    state. Those cycles are charged in one O(1) step (attempts, scan
    busy cycles, shared probes, idle time — the exact per-cycle sums)
    instead of being replayed; the generator oracle keeps the scan-by-
    scan loop, and the two stay byte-identical.
    """

    n_warps = sched.stats.n_warps
    names = [_state_name(w) for w in range(n_warps)]
    # per-warp sibling scan lists and the reverse map, hoisted out of the
    # handler: the scan itself is one batched shared read instead of a
    # per-sibling python loop of method calls (identical arrival order,
    # identical integer cycle/access totals)
    warp_of = {names[w]: w for w in range(n_warps)}
    siblings = [
        [names[w2] for w2 in range(n_warps) if w2 != w1] for w1 in range(n_warps)
    ]

    def handler(ctx: WarpContext) -> Optional[Generator]:
        ctx.stats.steal_attempts += 1
        ctx._charge(ctx.params.steal_check_cycles)
        best_state: Optional[dict] = None
        best_est = 0
        active_warps: list[int] = []
        present = ctx.shared_read_present(siblings[ctx.warp_id])
        for name, st in present:
            if not st["active"]:
                continue
            active_warps.append(warp_of[name])
            est = _estimate_remaining(st)
            if est > best_est:
                best_est, best_state = est, st
        loot = _steal_from(best_state, env) if best_state is not None else None
        if loot is None:
            if not active_warps:
                return None
            n_read = len(present)
            batched = _batchable_polls(sched, ctx, names, active_warps, n_read)
            return _poll_spin(ctx, batched, n_read)
        ctx.stats.steals += 1
        # the thief's DFS state still reads inactive until its stolen
        # generator first resumes; flag the pending mutation so sibling
        # poll batching does not price past it
        ctx.resume_mutates_shared = True
        if "items" in loot:
            return _spawn_worker(ctx, env, loot["items"])
        item = {
            "group": best_state["current_group"],
            "assign": loot["assign"],
            "level": loot["level"],
            "cands": loot["cands"],
            "dedup": best_state["current_dedup"],
            "rank": best_state["current_rank"],
            "permuted": loot["level"] >= len(best_state["current_group"].core),
        }
        return _spawn_worker(ctx, env, [item])

    return handler


def _poll_spin(c: WarpContext, k: int, m: int) -> Generator[None, None, None]:
    """One idle-spin poll task, with ``k`` provably-identical future
    (idle + rescan) cycles pre-charged in one step (module-level so the
    handler does not rebuild a closure per no-loot scan).

    Each batched cycle was one completed poll task plus one scan over
    ``m`` sibling states — the exact per-cycle sums, as integers.
    """
    if k:
        stats = c.stats
        stats.steal_attempts += k
        stats.tasks_completed += k
        stats.shared_accesses += k * m
        c.shared.accesses += k * m
        c._charge(
            k * (c.params.steal_check_cycles + c.params.shared_access_cycles * m)
        )
        c.advance_idle(k * _POLL_CYCLES)
    c.advance_idle(_POLL_CYCLES)
    yield


def _batchable_polls(
    sched: BlockScheduler,
    ctx: WarpContext,
    names: list[str],
    active_warps: list[int],
    n_read: int,
) -> int:
    """How many future (idle-spin + re-scan) cycles provably observe the
    exact state this scan just saw — priced in one step on the pooled
    fast path, replayed one by one under the generator oracle.

    Sibling DFS state only mutates when a sibling warp resumes, so the
    horizon is the earliest next resumption that can mutate: the
    minimum clock over *active* siblings plus any inactive thief whose
    stolen work is pending (``resume_mutates_shared``). Pure pollers
    are ignorable — their no-loot scans observe without mutating. The
    batch is abandoned (0) whenever an unaccounted actor exists: tasks
    still queue in the block (a completion could spawn a fresh worker),
    or a non-parked sibling has no DFS state yet (its first resumption
    would create one).
    """
    if not sched.vectorized or sched.pending_tasks:
        return 0
    contexts = sched.contexts
    parked = sched._parked
    shared = sched.shared
    idle_sourced = sched.idle_sourced
    generators = sched.generators
    self_id = ctx.warp_id
    horizon = float("inf")
    for w in range(sched.stats.n_warps):
        if w == self_id or w in parked:
            continue
        c = contexts[w]
        if c.resume_mutates_shared:
            # a thief with undelivered loot: its next resumption writes
            # its DFS state, so the window may not extend past it
            horizon = min(horizon, c.clock)
            continue
        if names[w] in shared:
            continue  # scanned: active -> horizon below, inactive -> poller
        if w in idle_sourced:
            continue  # stateless poller: observes, never mutates
        if type(generators.get(w)) is TraceCursor:
            continue  # trace task: pure pricing, touches no shared state
        return 0  # un-started worker: next resumption allocates state
    for w in active_warps:
        c = contexts[w]
        if c.clock < horizon:
            horizon = c.clock
    if horizon == float("inf"):
        return 0
    scan_busy = (
        ctx.params.steal_check_cycles + ctx.params.shared_access_cycles * n_read
    )
    period = _POLL_CYCLES + scan_busy
    # re-scan i (i >= 1) starts at clock + i*poll + (i-1)*scan_busy;
    # batch every one that starts strictly before the horizon
    span = horizon - ctx.clock + scan_busy
    if span <= period:
        return 0
    return int(-(-span // period)) - 1


def _passive_donate(ctx: WarpContext, env: _Env, state: dict) -> None:
    """Busy warp pushes work to a parked sibling (passive stealing)."""
    if "_sched" not in ctx.shared:
        return
    sched: BlockScheduler = ctx.shared_read("_sched")
    parked = sched.parked_warps()
    if not parked:
        return
    ctx._charge(ctx.params.steal_check_cycles)
    loot = _steal_from(state, env)
    if loot is None:
        return
    target = min(parked)
    if "items" in loot:
        items = loot["items"]
    else:
        items = [
            {
                "group": state["current_group"],
                "assign": loot["assign"],
                "level": loot["level"],
                "cands": loot["cands"],
                "dedup": state["current_dedup"],
                "rank": state["current_rank"],
                "permuted": loot["level"] >= len(state["current_group"].core),
            }
        ]
    ctx.stats.steals += 1
    target_ctx = sched.contexts[target]
    sched.push_work(target, _spawn_worker(target_ctx, env, items), ctx.clock)


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
                col = bitmap[:, orbit[0]]
                for w in orbit[1:]:
                    col = col | bitmap[:, w]
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


def filter_index(table: CandidateTable, group: CoalescedGroup, qv: int) -> int:
    """Stack column of ``qv``'s phase-A filter in ``group``: the union
    column of its orbit for a k>0 group, the exact column otherwise."""
    if group.k:
        return table.column_index(qv, group.vertex_orbits.get(qv, (qv,)))
    return table.lo + qv


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
    """A runtime's groups with their label keys and the stack columns
    of both representative endpoints' filters, cached until the stack's
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
        cache = runtime._launch_keys = (tag, groups, keys, cols)
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


# an update edge that maps onto no work item still pays its probe: one
# warp-wide compute round (Algorithm 1 gives every update edge a warp).
# Under selective queries nearly every warp is such a probe, so the
# launch passes only the working warps plus this ONE shared filler
# trace: the pooled device prices each filler-only block from a
# memoized template, and the oracle device expands the grid and
# replays the trace op-by-op (a single-segment trace completes on its
# first resumption, like the yield-free generator it stands for).
_NOOP_PROBE = TraceBuilder().charge_compute(1).build()


def _make_task(env: _Env, items: list[dict]):
    def task(ctx: WarpContext):
        # a generator on the oracle path, a level-stepped cursor on the
        # vectorized path — the scheduler drives either form
        return _spawn_worker(ctx, env, items)

    return task


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
    working = {i: _make_task(env, items) for i, items in per_edge.items()}

    def block_hook(sched: BlockScheduler):
        sched.shared.alloc("_sched", sched, words=0)
        if config.vectorized:
            sched.step_coalescer = _make_step_coalescer(sched, env)
        if config.work_stealing == "active":
            return _active_idle_handler(sched, env)
        return None

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
