"""BFS-expansion matching kernel: the Figure 5 counterpoint to WBM.

Level-synchronous frontier expansion materializes *every* partial match
of a level before moving on — the classic GPU pattern-mining layout the
paper argues against: intermediate results grow exponentially, device
memory fills, and host↔device spilling (Comm) dominates total time,
while DFS (WBM) keeps only per-warp stacks resident.

The engine produces the same incremental matches as WBM (validated in
tests); its purpose here is the memory-growth timeline and the
Comm/Comp breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import xp
from repro.filtering import CandidateTable, EncodingSchema, EncodingTable
from repro.graph.csr import CSRGraph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.updates import UpdateBatch, apply_batch, effective_delta
from repro.gpu.memory import GlobalMemory, SharedMemory
from repro.gpu.params import DEFAULT_PARAMS, DeviceParams
from repro.gpu.stats import BlockStats
from repro.gpu.warp import WarpContext
from repro.matching.coalesced import trivial_plan
from repro.matching.gen_candidates import _charge_gen, _gen_candidates
from repro.matching.launch_env import KernelOutput, Match, PhaseEdges, WBMConfig, _Env
from repro.matching.level_batch import _entry_candidates, _level_children


@dataclass
class BFSResult:
    """Output + the Figure 5 instrumentation."""

    positives: set[Match] = field(default_factory=set)
    negatives: set[Match] = field(default_factory=set)
    comp_cycles: float = 0.0
    comm_cycles: float = 0.0
    peak_frontier_words: int = 0
    spill_events: int = 0
    # (phase, level, device-memory fraction) samples over "time"
    memory_timeline: list[tuple[str, int, float]] = field(default_factory=list)

    @property
    def total_cycles(self) -> float:
        return self.comp_cycles + self.comm_cycles


class BFSEngine:
    """Batch-dynamic matcher with level-synchronous BFS expansion."""

    def __init__(
        self,
        query: LabeledGraph,
        graph: LabeledGraph,
        params: DeviceParams = DEFAULT_PARAMS,
        bits_per_label: int = 2,
        barrier_cycles: float = 64.0,
        vectorized: bool = True,
    ) -> None:
        self.query = query
        self.graph = graph.copy()
        self.params = params
        self.barrier_cycles = barrier_cycles
        self.vectorized = vectorized
        schema = EncodingSchema.for_query(query, bits_per_label)
        self.encodings = EncodingTable(schema, self.graph, vectorized=vectorized)
        self.table = CandidateTable(
            query, self.graph, self.encodings, vectorized=vectorized
        )
        self.plan = trivial_plan(query)
        self._csr: CSRGraph | None = None  # phase-local snapshot cache
        #: pooled pricing context (vectorized path): one WarpContext and
        #: its memories reused across phases, reset instead of rebuilt —
        #: the BFS analogue of the launch pool in repro.gpu.device
        self._phase_ctx: WarpContext | None = None

    # ------------------------------------------------------------------
    def process_batch(self, batch: UpdateBatch) -> BFSResult:
        result = BFSResult()
        delta = effective_delta(self.graph, batch)
        if delta.deleted:
            result.negatives = self._expand_phase(list(delta.deleted), "del", result)
        apply_batch(self.graph, batch)
        if not self.vectorized:
            self._csr = None
        elif self._csr is not None:
            # splice the pre-batch snapshot instead of a full rebuild
            self._csr = self._csr.apply_delta(delta, self.graph)
        else:
            self._csr = CSRGraph.from_graph(self.graph)
        changed = self.encodings.apply_delta(self.graph, delta, csr=self._csr)
        self.table.refresh_rows(changed)
        if delta.inserted:
            result.positives = self._expand_phase(list(delta.inserted), "ins", result)
        return result

    # ------------------------------------------------------------------
    def _pricing_context(self) -> WarpContext:
        """The warp context all of a phase's expansion costs accrue to.

        Vectorized mode pools one context across phases (reset with a
        fresh ``BlockStats``); scalar mode reconstructs it each phase,
        as the original formulation did. Either way the phase starts
        from a zero clock, so ``comp_cycles`` deltas are unaffected.
        """
        if not self.vectorized:
            return WarpContext(
                0,
                self.params,
                SharedMemory(self.params),
                GlobalMemory(self.params),
                BlockStats(n_warps=1),
            )
        if self._phase_ctx is None:
            self._phase_ctx = WarpContext(
                0,
                self.params,
                SharedMemory(self.params),
                GlobalMemory(self.params),
                BlockStats(n_warps=1),
            )
        else:
            self._phase_ctx.shared.reset()
            self._phase_ctx.reset(BlockStats(n_warps=1))
        return self._phase_ctx

    def _expand_phase(
        self,
        edges: list[tuple[int, int, int]],
        phase: str,
        result: BFSResult,
    ) -> set[Match]:
        """Expand all updates of one sign together, level-synchronously."""
        params = self.params
        n = self.query.n_vertices
        phase = PhaseEdges(edges)
        out = KernelOutput()
        env = _Env(
            self.query,
            self.graph,
            self.table,
            self.plan,
            phase,
            WBMConfig(vectorized=self.vectorized),
            out,
            csr=self._csr,
        )
        ctx = self._pricing_context()
        mem = GlobalMemory(params)

        # level 0/1: seed partials from update-edge mappings
        frontier: list[tuple[object, dict[int, int], int]] = []
        for rank, (x, y, lbl) in enumerate(zip(phase.exl, phase.eyl, phase.ell)):
            for group in self.plan.groups:
                a, b = group.representative
                if self.query.edge_label(a, b) != lbl:
                    continue
                if (
                    self.query.vertex_label(a) != self.graph.vertex_label(x)
                    or self.query.vertex_label(b) != self.graph.vertex_label(y)
                ):
                    continue
                if not (self.table.is_candidate(a, x) and self.table.is_candidate(b, y)):
                    continue
                frontier.append((group, {a: x, b: y}, rank))
        words = sum(len(assign) for _, assign, _ in frontier)
        self._account_frontier(mem, words, phase, 1, result)

        if self.vectorized:
            matches = self._expand_levels(frontier, env, ctx, mem, phase, result)
        else:
            matches = self._expand_levels_scalar(
                frontier, env, ctx, mem, phase, result
            )
        result.comp_cycles += len(matches) * n / max(params.total_warps, 1)
        return matches

    def _expand_levels_scalar(
        self, frontier, env, ctx, mem, phase, result
    ) -> set[Match]:
        """Original per-partial expansion (the correctness oracle)."""
        n = self.query.n_vertices
        params = self.params
        matches: set[Match] = set()
        for level in range(2, n):
            start_clock = ctx.clock
            nxt: list[tuple[object, dict[int, int], int]] = []
            for group, assign, rank in frontier:
                cands = _gen_candidates(ctx, env, group, group.full_order, assign, level, rank)
                qv = group.full_order[level]
                for c in cands:
                    child = dict(assign)
                    child[qv] = c
                    if level == n - 1:
                        matches.add(tuple(child[u] for u in range(n)))
                    else:
                        nxt.append((group, child, rank))
            level_cycles = ctx.clock - start_clock
            # level work spreads across the whole device; barrier syncs it
            result.comp_cycles += level_cycles / max(params.total_warps, 1) + self.barrier_cycles
            frontier = nxt
            words = sum(len(assign) for _, assign, _ in frontier)
            self._account_frontier(mem, words, phase, level, result)
        return matches

    def _expand_levels(self, seeds, env, ctx, mem, phase, result) -> set[Match]:
        """Level-batched expansion: each frontier partial carries the
        candidate array its parent's level pass produced, and each
        group's sibling frames generate their whole child level in one
        ``_level_children`` call (the WBM level-step primitive) with
        per-child priced segments. A seed's entry is one
        ``_entry_candidates`` call. Every Gen-Candidates charge of the
        scalar oracle is paid exactly once — attributed one level
        earlier, so per-level splits shift but the phase totals
        (``comp_cycles``, spills, peak words) are identical.
        """
        n = self.query.n_vertices
        params = self.params
        matches: set[Match] = set()
        frames = [(group, assign, rank, None) for group, assign, rank in seeds]
        for level in range(2, n):
            start_clock = ctx.clock
            nxt: list[tuple[object, dict[int, int], int, object]] = []
            # pass 1: resolve candidate runs, emit the leaf level
            prepared: list[tuple[object, dict[int, int], int, list]] = []
            for group, assign, rank, cands in frames:
                if cands is None:  # seed: entry generation, charged here
                    cands, charge = _entry_candidates(env, group, assign, level, rank)
                    _charge_gen(ctx, *charge)
                cands = xp.to_numpy(cands).tolist()
                qv = group.full_order[level]
                if level == n - 1:
                    for c in cands:
                        child = dict(assign)
                        child[qv] = c
                        matches.add(tuple(child[u] for u in range(n)))
                    continue
                if not cands:
                    continue
                prepared.append((group, assign, rank, cands))
            # pass 2: sibling frames of one group share the level's query
            # vertex, so they generate in one launch-wide batch
            gen_out: list = [None] * len(prepared)
            by_group: dict[int, list[int]] = {}
            for i, (group, _, _, _) in enumerate(prepared):
                by_group.setdefault(id(group), []).append(i)
            for idxs in by_group.values():
                sibs = [prepared[i] for i in idxs]
                group = sibs[0][0]
                prefix = group.full_order[:level]
                requests = [([a[u] for u in prefix], c, r) for _, a, r, c in sibs]
                results = _level_children(env, group, level, requests, ctx.params)
                for i, res in zip(idxs, results):
                    gen_out[i] = res
            # pass 3: consume in the original frame order; a level's
            # charges are additive integer cycles, so the totals equal
            # a per-frame interleaved pass exactly
            for (group, assign, rank, cands), (rec, base) in zip(prepared, gen_out):
                qv = group.full_order[level]
                for j, c in enumerate(cands, base):
                    rec.costs.apply(ctx, j)
                    child = dict(assign)
                    child[qv] = c
                    nxt.append((group, child, rank, rec.children(j)))
            level_cycles = ctx.clock - start_clock
            result.comp_cycles += level_cycles / max(params.total_warps, 1) + self.barrier_cycles
            frames = nxt
            words = sum(len(assign) for _, assign, _, _ in frames)
            self._account_frontier(mem, words, phase, level, result)
        return matches

    def _account_frontier(
        self,
        mem: GlobalMemory,
        words: int,
        phase: str,
        level: int,
        result: BFSResult,
    ) -> None:
        """Charge frontier materialization; spill to host past capacity."""
        result.peak_frontier_words = max(result.peak_frontier_words, words)
        resident = min(words, mem.capacity_words)
        overflow = words - resident
        if overflow > 0:
            # round-trip: evict to host now, fetch back next level
            result.spill_events += 1
            result.comm_cycles += 2 * overflow / self.params.pcie_words_per_cycle
        result.memory_timeline.append((phase, level, resident / mem.capacity_words))
