"""Gen-Candidates for many partial matches at once (paper Algorithm 1,
§IV-C): the fast path's one array primitive over a :class:`_Snapshot`,
in two steps — a request plan (:func:`_plan_requests`: anchors, charges
and distinct first stages, once per request) and an element expansion
over any slice of it (:func:`_expand_requests`), composed for one batch
by :func:`_narrow_level` — with its closed-form pricing
(:class:`_CostSink`, :func:`_gen_cost_segments`), the record every
level generation returns (:class:`LevelRecord`) and the DFS frame stack
that adopts it by offset (:class:`_FrameStack`), and the two inline
forms built on the primitive: the children of one or more frames of a
DFS level (:func:`_level_children`) and one partial match's entry
generation (:func:`_entry_candidates`). The host-wide level pass
(:mod:`~repro.matching.entry_pass`) narrows every DFS level of every
hosted query through the same two steps and records the same shape.
Every candidate list and priced cost segment equals a per-call
:func:`~repro.matching.gen_candidates._gen_candidates` oracle call.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import NamedTuple, Optional

from repro import xp
from repro.errors import MatchingError
from repro.graph.csr import CSRGraph, _flat_indices
from repro.gpu.memory import Int64Arena
from repro.gpu.params import DeviceParams
from repro.gpu.trace import SegmentCosts
from repro.matching.coalesced import CoalescedGroup
from repro.matching.intersect import positions_in
from repro.matching.launch_env import PhaseEdges, _Env, level_column

#: degree of a padding slot: above every real degree, so never the anchor
_NO_ANCHOR = 1 << 62


class _Snapshot:
    """What every request of one phase narrows against: the CSR
    snapshot, its directed edge index, the host's stacked candidate
    bitmap and the phase's rank index."""

    def __init__(self, csr: CSRGraph, bitmap: xp.ndarray, phase: PhaseEdges) -> None:
        self.csr = csr
        self.bitmap = bitmap
        self.n = csr.n_vertices
        self.edge_keys, self.edge_labels = csr.edge_index()
        self.rank_keys, self.ranks = phase.rank_index(self.n)

    def first_stage(self, anchor, vlabel, elabel, col) -> tuple:
        """Per key ``i``: ``anchor[i]``'s sorted adjacency masked by the
        vertex label, the edge label and stack column ``col[i]`` (rows
        past the stack carry no claim). Returns the concatenated runs
        with each run's start and length."""
        csr = self.csr
        st = csr.offsets[anchor]
        cnt = csr.offsets[anchor + 1] - st
        flat = _flat_indices(st, cnt)
        xs = csr.neighbors[flat]
        seg = xp.repeat(xp.arange(len(anchor), dtype=xp.int64), cnt)
        keep = xp.nonzero(
            (csr.vertex_labels[xs] == vlabel[seg]) & (csr.edge_labels[flat] == elabel[seg])
            & (xs < self.bitmap.shape[0])
        )[0]
        xs, seg = xs[keep], seg[keep]
        keep = self.bitmap[xs, col[seg]]
        xs, seg = xs[keep], seg[keep]
        counts = xp.bincount(seg, minlength=len(anchor))
        return xs, xp.cumsum(counts) - counts, counts

    def rank_blocked(self, vals, dv, rank):
        """Whether edge ``(vals[i], dv[i])`` is a net-update edge of rank
        below ``rank[i]`` (the total-order duplicate rule)."""
        if not len(self.rank_keys):
            return xp.zeros(len(vals), dtype=bool)
        key = xp.minimum(vals, dv) * self.n + xp.maximum(vals, dv)
        pos, hit = positions_in(self.rank_keys, key)
        return hit & (self.ranks[pos] < rank)

    def adjacent(self, dv, vals, elabel):
        """Whether ``dv[i]`` and ``vals[i]`` are adjacent by an edge
        labelled ``elabel[i]``."""
        pos, hit = positions_in(self.edge_keys, dv * self.n + vals)
        return hit & (self.edge_labels[pos] == elabel)


def _distinct(*cols) -> tuple[xp.ndarray, xp.ndarray]:
    """The first row of each distinct row of the equal-length integer
    columns ``cols``, and each row's distinct-row id."""
    order = xp.lexsort(cols)
    new = xp.zeros(len(order), dtype=bool)
    new[:1] = True
    for c in cols:
        s = c[order]
        new[1:] |= s[1:] != s[:-1]
    inverse = xp.empty(len(order), dtype=xp.int64)
    inverse[order] = xp.cumsum(new) - 1
    return order[new], inverse


class _RequestPlan(NamedTuple):
    """The request side of a batch of Gen-Candidates requests
    (:func:`_plan_requests`), one entry per request ``i``: its assigned
    data vertices ``prefix[i]`` (-1 for an unassigned slot) and rank
    ``rank[i]``, its anchor, its matched neighbors other than the
    anchor as columns (-1 pad) with their edge labels to the target,
    its first stage ``key[i]`` (runs
    ``runs[run_starts[k] : run_starts[k] + run_counts[k]]``), its
    first-stage element count ``volume[i]`` and its charge: the anchor
    degree, the number of other matched neighbors and their degree
    sum."""

    prefix: xp.ndarray
    rank: xp.ndarray
    anchor: xp.ndarray
    others: tuple
    key: xp.ndarray
    runs: xp.ndarray
    run_starts: xp.ndarray
    run_counts: xp.ndarray
    volume: xp.ndarray
    charge: tuple


def _plan_requests(
    snap: _Snapshot, prefix: xp.ndarray, pos, elabels, vlabel: xp.ndarray, col: xp.ndarray,
    rank: xp.ndarray,
) -> _RequestPlan:
    """Plan Gen-Candidates requests once, before any element is
    expanded (:func:`_expand_requests`).

    Request ``i`` has the assigned data vertices ``prefix[i]``, the
    wanted vertex label ``vlabel[i]``, the stack column ``col[i]`` of
    its filter and its rank ``rank[i]``. ``pos`` and ``elabels`` hold
    one per-request column per matched query neighbor of the target,
    in adjacency order: its prefix slot (-1 pad; every request has a
    matched neighbor in column 0) and its edge label to the target.
    Columns are read one at a time as 1-D arrays. The
    anchor is the first minimum-degree matched vertex (the oracle's
    rule), and requests that share ``(anchor, vertex label, edge
    label, column)`` share one first stage."""
    at = xp.arange(len(prefix), dtype=xp.int64)
    offsets = snap.csr.offsets
    # column 0 is matched in every request
    dv = prefix[at, pos[0]]
    nb = deg_sum = offsets[dv + 1] - offsets[dv]
    aidx, anchor, anchor_elabel = 0, dv, elabels[0]
    n_others = xp.zeros(len(at), dtype=xp.int64)
    columns = [(dv, elabels[0])]
    for c in range(1, len(pos)):
        matched = pos[c] >= 0
        dv = prefix[at, xp.maximum(pos[c], 0)]
        deg = xp.where(matched, offsets[dv + 1] - offsets[dv], _NO_ANCHOR)
        # strictly below: the first minimum along the matched order is
        # the oracle's tie-break
        lower = deg < nb
        nb = xp.where(lower, deg, nb)
        aidx = xp.where(lower, c, aidx)
        anchor = xp.where(lower, dv, anchor)
        anchor_elabel = xp.where(lower, elabels[c], anchor_elabel)
        n_others = n_others + matched
        deg_sum = deg_sum + xp.where(matched, deg, 0)
        columns.append((xp.where(matched, dv, -1), elabels[c]))
    # the matched neighbors other than the anchor, one column fewer:
    # from the anchor's column on, column c + 1 stands in for column c
    others = []
    for c in range(len(columns) - 1):
        past = aidx <= c
        (v0, e0), (v1, e1) = columns[c], columns[c + 1]
        others.append((xp.where(past, v1, v0), xp.where(past, e1, e0)))
    firsts, key = _distinct(anchor, vlabel, anchor_elabel, col)
    runs, run_starts, run_counts = snap.first_stage(
        anchor[firsts], vlabel[firsts], anchor_elabel[firsts], col[firsts]
    )
    return _RequestPlan(
        prefix, rank, anchor, tuple(others), key, runs, run_starts, run_counts, run_counts[key],
        (nb, n_others, deg_sum - nb),
    )


def _expand_requests(snap: _Snapshot, plan: _RequestPlan, lo: int, hi: int) -> tuple:
    """Narrow requests ``[lo, hi)`` of ``plan``: expand their first
    stages, then AND the per-element filters — adjacency to each other
    matched vertex with its edge's rank rule, the anchor edge's rank
    rule and injectivity against every assigned value — so every list
    comes out ascending and equal to the oracle's. Returns the
    candidates (requests in order) and each request's count."""
    key = plan.key[lo:hi]
    cnt = plan.volume[lo:hi]
    vals = plan.runs[_flat_indices(plan.run_starts[key], cnt)]
    req = xp.repeat(xp.arange(lo, hi, dtype=xp.int64), cnt)
    rank = plan.rank
    # adjacency to each other matched vertex, with its edge's rank rule,
    # first: it is the filter that drops the most elements
    for others, elabel in plan.others:
        other = others[req]
        keep = other < 0  # the requests without this other neighbor
        has = xp.nonzero(~keep)[0]
        if len(has):
            x, r = vals[has], req[has]
            keep[has] = snap.adjacent(other[has], x, elabel[r]) & ~snap.rank_blocked(
                x, other[has], rank[r]
            )
            vals, req = vals[keep], req[keep]
    # the anchor edge's rank rule, and injectivity against every
    # assigned value (a -1 slot never equals)
    keep = ~snap.rank_blocked(vals, plan.anchor[req], rank[req])
    prefix = plan.prefix
    for slot in range(prefix.shape[1]):
        keep &= vals != prefix[req, slot]
    return vals[keep], xp.bincount(req[keep] - lo, minlength=hi - lo)


def _narrow_level(
    snap: _Snapshot,
    prefix: xp.ndarray,
    pos: xp.ndarray,
    elabels: xp.ndarray,
    vlabel: xp.ndarray,
    col: xp.ndarray,
    rank: xp.ndarray,
) -> tuple:
    """Gen-Candidates for every request in one array pass, the way GSI
    (PAPERS.md, arXiv 1906.03420) joins many partial matches at once:
    :func:`_plan_requests` then :func:`_expand_requests` over all of
    them. ``pos`` and ``elabels`` are ``(requests × matched)`` arrays
    (-1 pad). Returns the candidates (ascending per request, requests
    in order), each request's candidate count and its charge."""
    plan = _plan_requests(
        snap, prefix, [pos[:, c] for c in range(pos.shape[1])],
        [elabels[:, c] for c in range(elabels.shape[1])], vlabel, col, rank,
    )
    return (*_expand_requests(snap, plan, 0, len(prefix)), plan.charge)


class _CostSink:
    """Priced Gen-Candidates segments, written a batch at a time
    (:meth:`price`): ``n`` zero-cost segments whose columns are
    ``array('q')`` — 8 bytes an entry, and an indexed read is a plain
    Python int — with int64 views that :meth:`price` writes through.
    A Gen-Candidates segment is all busy, so ``busy`` is ``clock``'s
    array."""

    def __init__(self, n: int) -> None:
        #: clock, compute, transactions, coalesced, scattered
        self.columns = [array("q", [0]) * n for _ in range(5)]
        self._views = [xp.frombuffer(column, dtype=xp.int64) for column in self.columns]

    def price(self, at, nb, n_others, others_deg, params: DeviceParams) -> None:
        """Price the segments at positions ``at``: child ``i``'s anchor
        has ``nb[i]`` neighbors and its ``n_others[i]`` other matched
        neighbors ``others_deg[i]`` in all. The totals are
        :func:`~repro.matching.gen_candidates._charge_gen`'s integer
        rules as array arithmetic: the anchor's coalesced read, one lane
        pass per matched neighbor, the binary-search rounds and the
        probe transactions."""
        clock_at, compute_at, transactions_at, coalesced_at, scattered_at = self._views
        warp = params.warp_size
        coalesced = -(-xp.maximum(nb, 1) // warp)
        coalesced_at[at] = coalesced
        # frexp's exponent is bit_length for positive ints (0 for 0)
        steps = xp.maximum(
            1, xp.frexp(others_deg // xp.maximum(n_others, 1))[1].astype(xp.int64)
        )
        scattered = xp.where(n_others > 0, xp.maximum(-(-nb // warp) * steps * n_others, 1), 0)
        scattered += xp.maximum(1, nb // warp)  # the probes
        scattered_at[at] = scattered
        scattered += coalesced
        transactions_at[at] = scattered
        compute = -(-xp.maximum(nb * (1 + n_others), 1) // warp) * params.compute_cycles
        compute_at[at] = compute
        compute += scattered * params.global_transaction_cycles
        clock_at[at] = compute

    def costs(self, n: int) -> SegmentCosts:
        """The first ``n`` segments; ends the writing."""
        self._views = None
        for column in self.columns:
            del column[n:]
        clock, *rest = self.columns
        return SegmentCosts.from_totals(clock, clock, *rest)


def _gen_cost_segments(
    nb: xp.ndarray, n_others: xp.ndarray, others_deg: xp.ndarray, params: DeviceParams
) -> SegmentCosts:
    """Per-child priced Gen-Candidates segments (:meth:`_CostSink.price`)."""
    sink = _CostSink(len(nb))
    sink.price(slice(None), nb, n_others, others_deg, params)
    return sink.costs(len(nb))


class LevelRecord:
    """The recorded Gen-Candidates of one DFS level.

    ``cands`` holds the level's candidate runs end to end. The children
    of its first ``covered`` candidates are recorded: candidate ``i``'s
    are ``kids.cands[off[i]:off[i + 1]]``, and segment ``i`` of
    ``costs`` prices their generation. A frame holding candidates
    ``[base, base + k)`` adopts the record by offset — its ``j``-th
    child reads segment ``base + j`` — and so does a thief taking the
    frame's tail. Every level generation returns this shape: the level
    pass one record per DFS level, an inline generation
    (:func:`_level_children`) a record over its frames' candidates
    (``cands`` unset) whose ``kids`` record nothing further. Read-only
    once built; the index a DFS cursor runs ahead with
    (:meth:`clock_sums`, :meth:`childless_run`) is derived on first
    use."""

    __slots__ = ("cands", "off", "costs", "covered", "kids", "_sums", "_parents")

    def __init__(
        self,
        cands,
        off: Optional[array] = None,
        costs: Optional[SegmentCosts] = None,
        covered: int = 0,
        kids: Optional["LevelRecord"] = None,
    ) -> None:
        self.cands = cands
        self.off = off
        self.costs = costs
        self.covered = covered
        self.kids = kids
        self._sums: Optional[array] = None
        self._parents: Optional[array] = None

    def children(self, i: int):
        """The recorded children of candidate ``i``."""
        return self.kids.cands[self.off[i] : self.off[i + 1]]

    def clock_sums(self) -> array:
        """Prefix sums of the segments' clock costs, as int64: entry
        ``i`` is the clock of segments ``[0, i)``. Built on first use,
        when a frame adopts the record (its owner's
        :attr:`_FrameStack.clock_ahead`)."""
        if self._sums is None:
            clock = self.costs.clock
            self._sums = sums = array("q", [0]) * (len(clock) + 1)
            xp.cumsum(xp.frombuffer(clock, dtype=xp.int64), out=xp.frombuffer(sums, dtype=xp.int64)[1:])
        return self._sums

    def childless_run(self, j: int, span: float, last: int) -> int:
        """How many resumptions a frame may run ahead after charging
        candidate ``j``'s generation: candidate ``j + i`` (``1 <= i``)
        is consumed by a resumption that starts ``sum(clock[j + 1 : j
        + i])`` cycles later, and the run takes every such ``i`` whose
        start is below ``span``, stopping at candidate ``last`` and at
        the first candidate that has children (both included). Both
        bounds are a bisect: over :meth:`clock_sums` and over the
        int64 index of candidates with children, built on first use."""
        sums = self.clock_sums()
        stop = bisect_left(sums, span + sums[j + 1], j + 1, last + 1) - 1
        if self._parents is None:
            off = xp.frombuffer(self.off, dtype=xp.int64)
            parents = xp.to_numpy(xp.nonzero(off[:-1] < off[1:])[0]).astype(xp.int64)
            self._parents = array("q")
            self._parents.frombytes(memoryview(parents).cast("B"))
        parents = self._parents
        at = bisect_right(parents, j)
        if at < len(parents) and parents[at] < stop:
            stop = parents[at]
        return stop - j


class _FrameStack:
    """DFS frame stack of one warp, bookkept in Python scalars.

    The generator oracle keeps frames as a list of
    ``{"level", "cands", "p"}`` dicts; here each frame is one slot of
    four plain int lists — ``level[i]``, the frame's candidate run
    bounds ``start[i]``/``end[i]`` inside a shared :class:`Int64Arena`,
    and the absolute candidate cursor ``p[i]`` — plus, per frame that
    generates children, the :class:`LevelRecord`
    holding them and the frame's offset into it: ``rec[i]`` and
    ``base[i]``, so candidate ``j``'s children and priced segment sit at
    ``base[i] + j``. Every DFS level's record comes from the host's
    level pass where it reached the frame, from an inline level
    generation otherwise. A level step reads and writes only these
    ints; the arena holds the candidate runs, the one thing processed
    as a whole array. An active thief splits a frame by copying the
    tail ``[mid, end)`` with its record offset and lowering ``end[i]``
    — the stack form of the oracle's in-place ``del fr["cands"][mid:]``
    truncation (the victim never reads past the cut).

    ``clock_ahead`` is the recorded clock cost of every frame's
    unconsumed candidates (a frame holds a record iff it generates
    children): the Gen-Candidates cycles this stack's owner must still
    charge, one generation per resumption that yields. It is a running
    total: the DFS cursor attaching a record to a frame it pushed,
    consuming a candidate or running ahead through several, and a
    thief's cut each adjust it (a frame pops only once consumed).
    """

    __slots__ = ("level", "start", "end", "p", "arena", "depth", "rec", "base", "clock_ahead")

    def __init__(self, n_levels: int) -> None:
        cap = max(int(n_levels), 1)
        self.level = [0] * cap
        self.start = [0] * cap
        self.end = [0] * cap
        self.p = [0] * cap
        self.arena = Int64Arena()
        self.depth = 0
        self.rec: list = [None] * cap
        self.base = [0] * cap
        self.clock_ahead = 0

    def push(self, lv: int, cands) -> int:
        d = self.depth
        start, end = self.arena.push(cands)
        self.level[d] = lv
        self.start[d] = start
        self.end[d] = end
        self.p[d] = start
        self.rec[d] = None
        self.depth = d + 1
        return d

    def pop(self) -> int:
        """Drop the top frame; returns its (possibly thief-truncated)
        candidate count — the words the memory gauge frees. A frame
        pops once consumed (``p == end``), so ``clock_ahead`` holds
        nothing of it any more."""
        d = self.depth - 1
        start = self.start[d]
        self.rec[d] = None
        self.arena.truncate(start)
        self.depth = d
        return self.end[d] - start

    def remaining(self) -> int:
        """Unexplored candidates across all frames (steal estimate)."""
        d = self.depth
        return sum(self.end[:d]) - sum(self.p[:d])

    def clear(self) -> None:
        for i in range(self.depth):
            self.rec[i] = None
        self.depth = 0
        self.clock_ahead = 0
        self.arena.truncate(0)

    def splittable(self) -> bool:
        """Whether :meth:`steal_shallowest` would find a frame to split."""
        return any(self.end[i] - self.p[i] >= 2 for i in range(self.depth))

    def steal_shallowest(self, order, assign: list[int]) -> Optional[dict]:
        """Split the shallowest frame with >= 2 unexplored candidates;
        returns the oracle's frame-steal loot plus the tail's record
        handle ``(record, offset)`` (``None`` when the frame generates
        no children), so the thief adopts instead of regenerating."""
        for i in range(self.depth):
            p, end = self.p[i], self.end[i]
            remaining = end - p
            if remaining >= 2:
                mid = p + remaining // 2
                stolen = self.arena.view(mid, end).copy()
                rec = self.rec[i]
                if rec is not None:
                    sums = rec.clock_sums()
                    at = self.base[i] - self.start[i]
                    self.clock_ahead -= sums[at + end] - sums[at + mid]
                self.end[i] = mid  # in-place: the victim sees the cut
                lv = self.level[i]
                return {
                    "frame_steal": True,
                    "level": lv,
                    "cands": stolen,
                    "assign": {order[j]: assign[order[j]] for j in range(lv)},
                    "rec": None if rec is None else (rec, self.base[i] + mid - self.start[i]),
                }
        return None


def _entry_candidates(
    env: _Env, group: CoalescedGroup, assign: dict[int, int], level: int, rank: int
) -> tuple:
    """Gen-Candidates for one partial match as one :func:`_narrow_level`
    request: the ascending candidates of ``group.full_order[level]``
    given ``assign`` (query vertex -> data vertex), and the
    :func:`~repro.matching.gen_candidates._charge_gen` arguments of the
    call. Item entries the level pass did not record and the BFS
    variant's seeds generate here."""
    query = env.query
    qv = group.full_order[level]
    slot = {u: i for i, u in enumerate(assign)}
    matched = [w for w in query.neighbors(qv) if w in slot]
    if not matched:
        raise MatchingError(f"matching order broke connectivity at {qv}")
    cands, _, charge = _narrow_level(
        _Snapshot(env.csr, env.bitmap, env.phase),
        xp.asarray([list(assign.values())], dtype=xp.int64),
        xp.asarray([[slot[w] for w in matched]], dtype=xp.int64),
        xp.asarray([[query.edge_label(qv, w) for w in matched]], dtype=xp.int64),
        xp.asarray([query.vertex_label(qv)], dtype=xp.int64),
        xp.asarray([level_column(env.table, group, level)], dtype=xp.int64),
        xp.asarray([rank], dtype=xp.int64),
    )
    return cands, tuple(int(c[0]) for c in charge)


def _level_children(
    env: _Env,
    group: CoalescedGroup,
    lv: int,
    requests: list[tuple],
    params: DeviceParams,
) -> list[tuple[LevelRecord, int]]:
    """Gen-Candidates for the children of one or more frames at DFS
    level ``lv`` of ``group``, in ONE :func:`_narrow_level` pass.

    A frame's own generation (one request), the sibling frames the step
    coalescer fuses, and a group's sibling frontier partials in the BFS
    variant all build their requests here. A request is ``(prefix,
    cands, rank)``: the data vertices of ``order[:lv]``, the frame's
    candidates for ``order[lv]`` and its rank. Each child is one
    primitive request, its frame's prefix with the child in slot
    ``lv``. The frames share one :class:`LevelRecord`, each adopting it
    at its first child's offset (returned per request as ``(record,
    offset)``). Children and priced segments equal per-child oracle
    Gen-Candidates calls: batching changes host-side granularity, never
    a modeled number.
    """
    query = env.query
    order = group.full_order
    qv = order[lv + 1]
    # every prefix assigns exactly order[:lv] and the child fills slot
    # lv, so the matched slots are request-invariant
    slot = {u: i for i, u in enumerate(order[: lv + 1])}
    matched = [w for w in query.neighbors(qv) if w in slot]
    if not matched:
        raise MatchingError(f"matching order broke connectivity at {qv}")
    sizes = [len(c) for _, c, _ in requests]
    counts = xp.asarray(sizes, dtype=xp.int64)
    prefix = xp.empty((sum(sizes), lv + 1), dtype=xp.int64)
    prefix[:, :lv] = xp.repeat(
        xp.asarray([p for p, _, _ in requests], dtype=xp.int64).reshape(-1, lv),
        counts,
        axis=0,
    )
    prefix[:, lv] = xp.concatenate([xp.asarray(c, dtype=xp.int64) for _, c, _ in requests])
    shape = (len(prefix), len(matched))
    vals, kid_counts, charge = _narrow_level(
        _Snapshot(env.csr, env.bitmap, env.phase),
        prefix,
        xp.broadcast_to(xp.asarray([slot[w] for w in matched], dtype=xp.int64), shape),
        xp.broadcast_to(
            xp.asarray([query.edge_label(qv, w) for w in matched], dtype=xp.int64), shape
        ),
        xp.full(len(prefix), query.vertex_label(qv), dtype=xp.int64),
        xp.full(len(prefix), level_column(env.table, group, lv + 1), dtype=xp.int64),
        xp.repeat(xp.asarray([r for _, _, r in requests], dtype=xp.int64), counts),
    )
    off = array("q", [0]) * (len(prefix) + 1)
    xp.cumsum(kid_counts, out=xp.frombuffer(off, dtype=xp.int64)[1:])
    record = LevelRecord(
        None, off, _gen_cost_segments(*charge, params), len(prefix), LevelRecord(vals)
    )
    bases = [0] * len(sizes)
    for r in range(1, len(sizes)):
        bases[r] = bases[r - 1] + sizes[r - 1]
    return [(record, base) for base in bases]
