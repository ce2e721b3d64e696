"""Gen-Candidates for many partial matches at once (paper Algorithm 1,
§IV-C): the fast path's one array primitive (:func:`_narrow_level` over
a :class:`_Snapshot`) with its closed-form pricing
(:func:`_gen_cost_segments`), the record every level generation
returns (:class:`LevelRecord`) and the DFS frame stack that adopts it
by offset (:class:`_FrameStack`), and the two inline forms built on the
primitive: the children of one or more frames of a DFS level
(:func:`_level_children`) and one partial match's entry generation
(:func:`_entry_candidates`). The host-wide level pass
(:mod:`~repro.matching.entry_pass`) narrows every DFS level of every
hosted query through the same primitive and records the same shape.
Every candidate list and priced cost segment equals a per-call
:func:`~repro.matching.gen_candidates._gen_candidates` oracle call.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, compress, count, islice
from operator import lt
from typing import Optional

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


def _narrow_level(
    snap: _Snapshot,
    prefix: xp.ndarray,
    pos: xp.ndarray,
    elabels: xp.ndarray,
    vlabel: xp.ndarray,
    col: xp.ndarray,
    rank: xp.ndarray,
    cut: Optional[tuple[xp.ndarray, int]] = None,
) -> tuple:
    """Gen-Candidates for every request in one array pass, the way GSI
    (PAPERS.md, arXiv 1906.03420) joins many partial matches at once.

    Request ``i`` has the assigned data vertices ``prefix[i]`` (-1 for
    an unassigned slot), its target's matched query neighbors as prefix
    slots ``pos[i]`` in adjacency order (-1 pad) with their edge labels
    to the target ``elabels[i]``, the wanted vertex label ``vlabel[i]``,
    the stack column ``col[i]`` of its filter and its rank ``rank[i]``.
    Its anchor is the first minimum-degree matched vertex (the oracle's
    rule). Requests that share ``(anchor, vertex label, edge label,
    column)`` share one first stage; injectivity, the rank rule and
    adjacency to the other matched vertices are per-element ANDs over
    the expanded runs, so every list comes out ascending and equal to
    the oracle's.

    With ``cut = (bounds, limit)`` the requests form items, item ``t``
    owning ``[bounds[t], bounds[t + 1])``, and only the leading items
    whose first-stage runs total at most ``limit`` elements are
    narrowed. Returns how many items (without a cut, requests) were
    narrowed, the candidates (ascending per request, requests in
    order), each narrowed request's candidate count, and its charge:
    the anchor degree, the number of other matched neighbors and their
    degree sum."""
    n_req = len(prefix)
    at = xp.arange(n_req, dtype=xp.int64)
    matched = pos >= 0
    dv = prefix[at[:, None], xp.maximum(pos, 0)]
    offsets = snap.csr.offsets
    deg = xp.where(matched, offsets[dv + 1] - offsets[dv], _NO_ANCHOR)
    # first minimum along the matched order == the oracle's tie-break
    aidx = xp.argmin(deg, axis=1)
    nb = deg[at, aidx]
    n_others = matched.sum(axis=1) - 1
    others_deg = xp.where(matched, deg, 0).sum(axis=1) - nb
    anchor = dv[at, aidx]
    others = xp.where(
        matched & (xp.arange(pos.shape[1])[None, :] != aidx[:, None]), dv, -1
    )
    anchor_elabel = elabels[at, aidx]
    firsts, key_of = _distinct(anchor, vlabel, anchor_elabel, col)
    runs, run_starts, run_counts = snap.first_stage(
        anchor[firsts], vlabel[firsts], anchor_elabel[firsts], col[firsts]
    )
    n_items = n_req
    if cut is not None:
        bounds, limit = cut
        volume = xp.zeros(n_req + 1, dtype=xp.int64)
        xp.cumsum(run_counts[key_of], out=volume[1:])
        n_items = int(xp.searchsorted(volume[bounds], limit, side="right")) - 1
        n_req = int(bounds[n_items])
        key_of = key_of[:n_req]
    cnt = run_counts[key_of]
    vals = runs[_flat_indices(run_starts[key_of], cnt)]
    req = xp.repeat(at[:n_req], cnt)
    # adjacency to each other matched vertex, with its edge's rank rule,
    # first: it is the filter that drops the most elements
    for o in range(others.shape[1]):
        other = others[req, o]
        keep = other < 0  # the requests without an o-th other neighbor
        has = xp.nonzero(~keep)[0]
        if len(has):
            x, r = vals[has], req[has]
            keep[has] = snap.adjacent(other[has], x, elabels[r, o]) & ~snap.rank_blocked(
                x, other[has], rank[r]
            )
            vals, req = vals[keep], req[keep]
    # the anchor edge's rank rule, and injectivity against every
    # assigned value (a -1 slot never equals)
    keep = ~snap.rank_blocked(vals, anchor[req], rank[req])
    for slot in range(prefix.shape[1]):
        keep &= vals != prefix[req, slot]
    vals, req = vals[keep], req[keep]
    counts = xp.bincount(req, minlength=n_req)
    return n_items, vals, counts, (nb[:n_req], n_others[:n_req], others_deg[:n_req])


def _gen_cost_segments(
    nb: xp.ndarray, n_others: xp.ndarray, others_deg: xp.ndarray, params: DeviceParams
) -> SegmentCosts:
    """Per-child priced Gen-Candidates segments: child ``i``'s anchor has
    ``nb[i]`` neighbors and its ``n_others[i]`` other matched neighbors
    ``others_deg[i]`` in all. The totals are
    :func:`~repro.matching.gen_candidates._charge_gen`'s integer rules
    as array arithmetic: the anchor's coalesced read, one lane pass per
    matched neighbor, the binary-search rounds and the probe
    transactions."""
    warp = params.warp_size
    coalesced = -(-xp.maximum(nb, 1) // warp)
    compute = -(-xp.maximum(nb * (1 + n_others), 1) // warp) * params.compute_cycles
    # frexp's exponent is bit_length for positive ints (0 for 0)
    steps = xp.maximum(
        1, xp.frexp(others_deg // xp.maximum(n_others, 1))[1].astype(xp.int64)
    )
    probes = xp.maximum(1, nb // warp)
    scattered = probes + xp.where(
        n_others > 0, xp.maximum(-(-nb // warp) * steps * n_others, 1), 0
    )
    transactions = coalesced + scattered
    clock = compute + transactions * params.global_transaction_cycles
    totals = [xp.to_numpy(a).tolist() for a in (clock, compute, transactions, coalesced, scattered)]
    return SegmentCosts.from_totals(totals[0], list(totals[0]), *totals[1:])


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
        off: Optional[list[int]] = None,
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
        so only the records a cursor runs ahead through, or bounds a
        sibling's horizon with, hold one."""
        if self._sums is None:
            self._sums = array("q", accumulate(self.costs.clock, initial=0))
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
            off = self.off
            self._parents = array(
                "q", compress(count(), map(lt, off, islice(off, 1, None)))
            )
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
    """

    __slots__ = ("level", "start", "end", "p", "arena", "depth", "rec", "base")

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
        candidate count — the words the memory gauge frees."""
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

    def clock_ahead(self) -> int:
        """The recorded clock costs of every frame's unconsumed
        candidates (a frame holds a record iff it generates children):
        the Gen-Candidates cycles this stack's owner must still charge,
        one generation per resumption that yields."""
        total = 0
        for d in range(self.depth):
            rec = self.rec[d]
            if rec is not None:
                sums = rec.clock_sums()
                at = self.base[d] - self.start[d]
                total += sums[at + self.end[d]] - sums[at + self.p[d]]
        return total

    def clear(self) -> None:
        for i in range(self.depth):
            self.rec[i] = None
        self.depth = 0
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
                self.end[i] = mid  # in-place: the victim sees the cut
                lv = self.level[i]
                rec = self.rec[i]
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
    _, cands, _, charge = _narrow_level(
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
    _, vals, kid_counts, charge = _narrow_level(
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
    off = xp.zeros(len(prefix) + 1, dtype=xp.int64)
    xp.cumsum(kid_counts, out=off[1:])
    record = LevelRecord(
        None, xp.to_numpy(off).tolist(), _gen_cost_segments(*charge, params),
        len(prefix), LevelRecord(vals),
    )
    bases = [0] * len(sizes)
    for r in range(1, len(sizes)):
        bases[r] = bases[r - 1] + sizes[r - 1]
    return [(record, base) for base in bases]
