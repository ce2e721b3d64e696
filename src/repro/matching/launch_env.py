"""Launch-phase types of the WBM kernel and its per-launch context.

The kernel's knobs (:class:`WBMConfig`), what a launch and a batch
produce (:class:`KernelOutput`, :class:`BatchResult`), one sign phase's
indexed update edges (:class:`PhaseEdges`, shared by every runtime that
launches the phase), and :class:`_Env`, the read-mostly context every
warp task of one launch shares: the snapshot, the candidate table and
its filter columns, the rank rule, the memory gauge and the cycle
budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import xp
from repro.errors import BudgetExceeded, MatchingError
from repro.filtering import CandidateTable
from repro.graph.csr import CSRGraph
from repro.graph.labeled_graph import LabeledGraph
from repro.gpu.stats import KernelStats
from repro.gpu.warp import WarpContext
from repro.matching.coalesced import CoalescedGroup, CoalescedPlan
from repro.pma.gpma import GpmaUpdateStats

Match = tuple[int, ...]


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

    * the rank rule as one sorted key array (:meth:`rank_index`), so
      the array Gen-Candidates primitive checks many pairs at once;
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
        self._rank_index: tuple = (-1,)
        self._bucket_csr: Optional[CSRGraph] = None
        self._bucket: tuple = ()

    def __len__(self) -> int:
        return len(self.edges)

    def rank_index(self, n: int) -> tuple[xp.ndarray, xp.ndarray]:
        """The rank rule over an ``n``-vertex snapshot as one sorted
        array: the keys ``lo * n + hi`` of the net-update edges with
        both endpoints below ``n``, and each edge's rank (a repeated
        edge keeps its last rank, as ``rank_map`` does). Cached for the
        last ``n`` asked."""
        if self._rank_index[0] != n:
            inside = xp.nonzero(self.ey < n)[0]
            keys = self.ex[inside] * n + self.ey[inside]
            order = xp.argsort(keys, kind="stable")
            keys, ranks = keys[order], inside[order]
            last = xp.ones(len(keys), dtype=bool)
            last[:-1] = keys[1:] != keys[:-1]
            self._rank_index = (n, keys[last], ranks[last])
        return self._rank_index[1:]

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


def or_columns(bitmap, cols: tuple[int, ...]):
    """The OR of ``bitmap``'s columns ``cols`` (an orbit's union column)."""
    col = bitmap[:, cols[0]]
    for w in cols[1:]:
        col = col | bitmap[:, w]
    return col


def filter_index(table: CandidateTable, group: CoalescedGroup, qv: int) -> int:
    """Stack column of ``qv``'s phase-A filter in ``group``: the union
    column of its orbit for a k>0 group, the exact column otherwise."""
    if group.k:
        return table.column_index(qv, group.vertex_orbits.get(qv, (qv,)))
    return table.lo + qv


def level_column(table: CandidateTable, group: CoalescedGroup, level: int) -> int:
    """Stack column filtering ``group.full_order[level]``: the phase-A
    filter inside the core (:func:`filter_index`), the exact column
    outside it (phase B)."""
    qv = group.full_order[level]
    return filter_index(table, group, qv) if level < len(group.core) else table.lo + qv


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
        #: the sign phase this launch matches (the level batching's
        #: :class:`~repro.matching.level_batch._Snapshot` reads its rank
        #: index)
        self.phase = phase
        self.rank_map = phase.rank_map
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
        self.gauge = _MemoryGauge()
        self.n = query.n_vertices
        #: the candidate stack's bitmap (its columns are read-only
        #: views) and the stack column of query vertex 0
        self.bitmap = table.stack.bitmap
        self.lo = table.lo
        # phase-A filter columns per (group, query vertex): the union of
        # candidate-table columns over the vertex's automorphism orbit
        # (for whole-query automorphisms the table is orbit-invariant, so
        # the union equals the exact column)
        self._orbit_cols: dict[tuple[int, int], object] = {}
        self._core_maps: dict[int, tuple] = {}
        self.spent_cycles = 0.0  # engine-wide busy cycles this launch
        #: the running block's scheduler when its DFS cursors may run
        #: ahead up to its observer horizon (set per block by the
        #: launch's block hook; ``None`` disables run-ahead)
        self.sched = None

    @property
    def csr(self) -> CSRGraph:
        """CSR snapshot of the launch-time graph (lazily built)."""
        if self._csr is None:
            self._csr = CSRGraph.from_graph(self.graph)
        return self._csr

    def orbit_column(self, group: CoalescedGroup, qv: int):
        """Boolean candidacy column for phase-A filtering at ``qv``: the
        OR of the orbit's exact columns (the oracle's own union; the
        fast path reads the stack's union column,
        :func:`filter_index`)."""
        key = (id(group), qv)
        col = self._orbit_cols.get(key)
        if col is None:
            orbit = group.vertex_orbits.get(qv, (qv,))
            col = self._orbit_cols[key] = or_columns(
                self.bitmap, tuple(self.lo + w for w in orbit)
            )
        return col

    def core_maps(self, group: CoalescedGroup) -> tuple:
        """``group``'s automorphisms as index tables, cached per launch:
        ``(src, targets, rows)``. Automorphism ``m`` moves the core value
        at core position ``src[m][i]`` onto core vertex ``core[i]`` and
        sends the core to ``targets[m]`` (core order); ``rows`` caches,
        per data vertex, whether it passes each core vertex's exact
        filter (:meth:`core_row`)."""
        maps = self._core_maps.get(id(group))
        if maps is None:
            core = group.core
            at = {u: i for i, u in enumerate(core)}
            src, targets = [], []
            for sigma in group.core_maps:
                moved = {sigma[u]: u for u in core}
                src.append(tuple(at[moved[u]] for u in core))
                targets.append(tuple(sigma[u] for u in core))
            maps = self._core_maps[id(group)] = (src, targets, {})
        return maps

    def core_row(self, group: CoalescedGroup, rows: dict, dv: int) -> list:
        """Whether data vertex ``dv`` passes each of ``group``'s core
        vertices' exact filters (core order): one bitmap read, kept in
        ``rows`` (:meth:`core_maps`; the stack is fixed for the launch).
        A vertex past the stack carries no claim."""
        row = rows.get(dv)
        if row is None:
            bitmap = self.table.stack.bitmap
            if dv < bitmap.shape[0]:
                cols = xp.asarray([self.table.lo + u for u in group.core], dtype=xp.int64)
                row = xp.to_numpy(bitmap[dv, cols]).tolist()
            else:
                row = [False] * len(group.core)
            rows[dv] = row
        return row

    def filter_column(self, group: CoalescedGroup, level: int):
        """Candidacy column for ``group.full_order[level]``: the
        orbit-invariant union inside the core (phase A), the exact
        column outside it (phase B)."""
        qv = group.full_order[level]
        if level < len(group.core):
            return self.orbit_column(group, qv)
        return self.bitmap[:, self.lo + qv]

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
        total and abort once the work allowance is hit.

        Both DFS forms check at the top of every DFS loop iteration. The
        oracle emits a leaf frame's run leaf by leaf, checking before
        each leaf; the cursor emits it in one batch only when the
        budget cannot trip inside it, i.e. when ``spent_cycles + (k-1) *
        leaf_cycles <= cycle_budget`` for ``k`` leaves left of
        ``leaf_cycles`` busy cycles each (integers, so the test is
        exact). Otherwise it emits leaf by leaf, checking as the oracle
        does, and aborts at the same leaf."""
        self.spent_cycles += ctx.busy_cycles - ctx.env_busy_mark
        ctx.env_busy_mark = ctx.busy_cycles
        budget = self.config.cycle_budget
        if budget is not None and self.spent_cycles > budget:
            self.out.aborted = True
            raise BudgetExceeded(self.spent_cycles, budget)

