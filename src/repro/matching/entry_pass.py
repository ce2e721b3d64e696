"""The host-wide level pass: every Gen-Candidates level of every hosted
query's work items, one array pass per DFS level.

Every work item of a phase enters its DFS at level 2 with the update
edge mapped onto its group's representative, so its whole search tree
— the candidates of ``order[2]``, then per candidate the candidates of
``order[3]``, and so on down to the last level a frame generates for
— depends only on the item, the phase's rank rule, the snapshot and the
candidate stack. :func:`entry_pass` computes that tree for all the
host's items right after :func:`~repro.matching.wbm.working_items`, one
level at a time until the frontier is empty, the way GSM (PAPERS.md,
arXiv 2003.01527) expands a frontier and GSI (arXiv 1906.03420) joins
many partial matches against one candidate set at once. It records on
each item what the inline calls would return and charge:

* ``item["entry"] = (cands, charge, frame)``: the ascending candidates
  of ``order[2]``, the :func:`~repro.matching.gen_candidates._charge_gen`
  arguments of the inline :func:`_gen_candidates` call, and the entry
  frame's adoption handle ``(record, offset)`` into the level-2
  :class:`~repro.matching.level_batch.LevelRecord` (``None`` when the
  frame generates nothing, or past the bound).

The tree is one record per level, chained through ``kids``: the
level's candidates end to end, per candidate the offsets of its
children in the next level (a CSR trie, an ``array('q')``) and one
pass-wide :class:`~repro.gpu.trace.SegmentCosts` of ``array('q')``
columns, priced by :class:`~repro.matching.level_batch._CostSink`. A
frame adopts its children by offset, and a thief adopts the tail it
stole the same way.

Each level goes through the level batching's array primitive in its
two steps (:func:`~repro.matching.level_batch._plan_requests`, then
:func:`~repro.matching.level_batch._expand_requests`) over every
recorded candidate whose frame generates children: a request is one
partial match, given as its prefix slots and the level's static facts
(:func:`entry_facts`). The prefix slots are never held for a whole
level: the pass keeps, per level, the candidates and each one's parent
(a chain down to the items) and gathers a chunk's slots from it.
Requests that share an anchor, labels and column share one first
stage. Each frame-whole chunk of at most ``_LEVEL_CHUNK`` requests is
planned once and expanded in frame-whole slices of at most
``_LEVEL_CHUNK`` first-stage elements, each slice priced into the
level's record as it lands. A level stops at the frame whose
first-stage runs would pass ``_ENTRY_PASS_MAX`` elements in all, so a
non-selective query never holds its whole tree; the frames past it,
and everything under them, generate inline. ``hub_heavy``'s whole tree
(about 27,000 level-4 requests a phase) fits the bound.

Nothing modeled changes: the cursor pays the recorded charges at the
step the inline call would have, and adopts the recorded children
where it would have generated them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import NamedTuple, Optional

from repro import xp
from repro.graph.csr import CSRGraph
from repro.gpu.params import DeviceParams
from repro.matching.launch_env import PhaseEdges, level_column
from repro.matching.level_batch import (
    LevelRecord,
    _CostSink,
    _expand_requests,
    _plan_requests,
    _Snapshot,
)

#: a level's pass expands at most this many first-stage elements (the
#: requests' runs, before injectivity, rank and adjacency); the frames
#: past it generate that level inline, so a non-selective query cannot
#: hold every item's candidates at once
_ENTRY_PASS_MAX = 1 << 17
#: one request plan covers at most this many requests, and one
#: expansion of it at most this many first-stage elements, so the
#: pass's transient arrays stay small however far a level runs; a
#: frame whose children alone pass it stops its level like a frame
#: past ``_ENTRY_PASS_MAX``
_LEVEL_CHUNK = 1 << 13


class LevelFacts(NamedTuple):
    """The static facts of one DFS level's requests, one row per plan
    group: whether the pass narrows the level for the group (a frame
    one level up generates children, or, at level 2, the item opens a
    frame), the target's vertex label, the stack column of its filter
    (:func:`~repro.matching.launch_env.level_column`), and its matched
    query neighbors as prefix slots in adjacency order, padded with -1
    to width ``level``, with their edge labels to the target."""

    on: xp.ndarray
    vlabel: xp.ndarray
    col: xp.ndarray
    pos: xp.ndarray
    elabel: xp.ndarray

    @classmethod
    def off(cls, n_groups: int, level: int) -> "LevelFacts":
        """The facts of groups whose query has no level ``level``."""
        zeros = xp.zeros(n_groups, dtype=xp.int64)
        return cls(
            zeros.astype(bool), zeros, zeros,
            xp.full((n_groups, level), -1, dtype=xp.int64),
            xp.zeros((n_groups, level), dtype=xp.int64),
        )

    @property
    def width(self) -> int:
        """The most matched query neighbors of any row: the columns of
        ``pos`` past it are padding."""
        return int(xp.max((self.pos >= 0).sum(axis=1), initial=0))


def entry_facts(query, table, groups) -> dict[int, LevelFacts]:
    """A runtime's :class:`LevelFacts` for every DFS level ``2 … n-1``.
    A level is on where the cursor's frame one level up generates
    children; a group whose matching order disconnects a level it
    would generate raises inline, so the pass leaves it alone. Valid
    until the stack's layout changes (its column indices move)."""
    n = query.n_vertices
    cols = {lv: ([], [], [], [], []) for lv in range(2, n)}
    for group in groups:
        order = group.full_order
        slot = {u: i for i, u in enumerate(order)}
        gen = {lv: lv != len(group.core) or group.is_singleton for lv in cols}
        matched = {
            lv: [w for w in query.neighbors(order[lv]) if slot[w] < lv] for lv in cols
        }
        covered = all(matched[lv] for lv in cols if gen[lv])
        for lv, (on, vlabel, col, pos, elabel) in cols.items():
            qv, m = order[lv], matched[lv]
            on.append(covered and gen[lv])
            vlabel.append(query.vertex_label(qv))
            col.append(level_column(table, group, lv))
            pos.append([slot[w] for w in m] + [-1] * (lv - len(m)))
            elabel.append([query.edge_label(qv, w) for w in m] + [0] * (lv - len(m)))
    return {
        lv: LevelFacts(
            xp.asarray(on, dtype=bool),
            *(xp.asarray(c, dtype=xp.int64) for c in (vlabel, col)),
            *(xp.asarray(c, dtype=xp.int64).reshape(-1, lv) for c in (pos, elabel)),
        )
        for lv, (on, vlabel, col, pos, elabel) in cols.items()
    }


def stack_facts(blocks: list[tuple[int, dict[int, LevelFacts]]]) -> dict[int, LevelFacts]:
    """The facts of several runtimes' ``(group count, entry_facts)``,
    rows stacked in order; a runtime without a level is off there."""
    levels = sorted({lv for _, facts in blocks for lv in facts})
    return {
        lv: LevelFacts(
            *(
                xp.concatenate(parts)
                for parts in zip(
                    *(facts.get(lv) or LevelFacts.off(n, lv) for n, facts in blocks)
                )
            )
        )
        for lv in levels
    }


class _Items(NamedTuple):
    """The items a pass narrows: per item its fact row, its update edge
    and the edge's endpoints (prefix slots 0 and 1)."""

    g: xp.ndarray
    e: xp.ndarray
    x: xp.ndarray
    y: xp.ndarray


def _prefixes(items: _Items, chain: list, rows: xp.ndarray) -> tuple:
    """The assigned slots of candidates ``rows`` of the deepest level
    in ``chain`` (of ``items`` for an empty chain), as a ``(rows ×
    slots)`` matrix, and each one's item. ``chain`` holds, per recorded
    level from 2 down, its candidates and each one's parent: the item
    at level 2, the candidate one level up below it."""
    columns = []
    for cands, parent in reversed(chain):
        columns.append(cands[rows])
        rows = parent[rows]
    return xp.stack([items.x[rows], items.y[rows], *columns[::-1]], axis=1), rows


def _narrow_frames(
    snap: _Snapshot, facts: LevelFacts, items: _Items, chain: list, req, bounds: list[int],
    keep,
) -> tuple:
    """Gen-Candidates for requests grouped into frames, frame ``f``
    owning requests ``[bounds[f], bounds[f + 1])``; request ``i`` is
    candidate ``req[i]`` of ``chain``'s deepest level (item ``req[i]``
    for an empty chain, see :func:`_prefixes`). Frames stay whole: each
    frame-whole chunk of at most ``_LEVEL_CHUNK`` requests (a larger
    frame alone) is planned once (:func:`_plan_requests`) and expanded
    (:func:`_expand_requests`) in frame-whole slices of at most
    ``_LEVEL_CHUNK`` first-stage elements. The level stops at the
    first frame whose elements would pass what is left of
    ``_ENTRY_PASS_MAX``, or that alone passes a slice. Hands each
    slice's requests ``at`` (values of ``req``), their candidate counts
    and their charges to ``keep(at, counts, charge)``; returns the
    frames narrowed and their candidates."""
    left = _ENTRY_PASS_MAX
    n_frames, f, parts = len(bounds) - 1, 0, []
    width = facts.width
    while f < n_frames:
        a = bounds[f]
        end = max(bisect_right(bounds, a + _LEVEL_CHUNK) - 1, f + 1)
        rows = req[a : bounds[end]]
        prefix, item = _prefixes(items, chain, rows)
        gr = items.g[item]
        plan = _plan_requests(
            snap, prefix,
            [facts.pos[gr, c] for c in range(width)], [facts.elabel[gr, c] for c in range(width)],
            facts.vlabel[gr], facts.col[gr], items.e[item],
        )
        # each frame's first row, and the chunk's elements before it
        firsts = [b - a for b in bounds[f : end + 1]]
        volume = xp.zeros(len(rows) + 1, dtype=xp.int64)
        xp.cumsum(plan.volume, out=volume[1:])
        before = xp.to_numpy(volume[xp.asarray(firsts, dtype=xp.int64)]).tolist()
        s = 0
        while s < end - f:
            t = bisect_right(before, before[s] + min(_LEVEL_CHUNK, left), s) - 1
            if t == s:  # the next frame alone passes the bound
                return f + s, _joined(parts)
            lo, hi = firsts[s], firsts[t]
            vals, counts = _expand_requests(snap, plan, lo, hi)
            keep(rows[lo:hi], counts, tuple(column[lo:hi] for column in plan.charge))
            parts.append(vals)
            left -= before[t] - before[s]
            s = t
        del plan  # before the next chunk's
        f = end
    return f, _joined(parts)


def _joined(parts: list) -> xp.ndarray:
    return xp.concatenate(parts) if parts else xp.zeros(0, dtype=xp.int64)


def _record_level(
    snap: _Snapshot,
    facts: LevelFacts,
    level: LevelRecord,
    items: _Items,
    chain: list,
    params: DeviceParams,
) -> Optional[int]:
    """Record the children of ``level``'s candidates, the deepest level
    of ``chain``: one request per candidate whose group generates the
    next level, the frames (runs of one parent) kept whole under the
    bound. Fills ``level``'s offsets, costs, coverage and ``kids``,
    appends the kids to ``chain`` and returns the number of frames
    recorded, or ``None`` when no frame generates within the bound."""
    parent = chain[-1][1]
    item = parent
    for _, up in reversed(chain[:-1]):
        item = up[item]
    req = xp.nonzero(facts.on[items.g[item]])[0]
    del item
    if not len(req):
        return None
    frame = parent[req]
    firsts = xp.nonzero(xp.concatenate([[True], frame[1:] != frame[:-1]]))[0]
    bounds = xp.to_numpy(firsts).tolist() + [len(req)]
    del frame, firsts
    # per candidate its child count and priced segment, priced slice by
    # slice (zero where it generates nothing)
    counts = xp.zeros(len(parent), dtype=xp.int64)
    sink = _CostSink(len(parent))

    def keep(at, kid_counts, charge) -> None:
        counts[at] = kid_counts
        sink.price(at, *charge, params)

    n_frames, vals = _narrow_frames(snap, facts, items, chain, req, bounds, keep)
    n_done = bounds[n_frames]
    if not n_done:
        return None
    # the candidates of every frame before the first one left out
    covered = (
        len(parent) if n_done == len(req) else int(xp.searchsorted(parent, parent[req[n_done]]))
    )
    counts = counts[:covered]
    level.off = array("q", [0]) * (covered + 1)
    xp.cumsum(counts, out=xp.frombuffer(level.off, dtype=xp.int64)[1:])
    level.costs = sink.costs(covered)
    level.covered = covered
    level.kids = LevelRecord(vals)
    chain.append((vals, xp.repeat(xp.arange(covered, dtype=xp.int64), counts)))
    return n_frames


def entry_pass(
    phase: PhaseEdges,
    csr: CSRGraph,
    bitmap: xp.ndarray,
    facts: dict[int, LevelFacts],
    rows: xp.ndarray,
    edges: xp.ndarray,
    items: list[dict],
    params: DeviceParams,
) -> tuple[int, dict[int, int]]:
    """Record the entry generation of every covered item, then level by
    level the children of every frame that generates them: ``items[j]``
    maps update edge ``edges[j]`` of ``phase`` onto the group of fact
    row ``rows[j]`` (rows of the runtimes' :func:`entry_facts`,
    stacked by :func:`stack_facts`). ``bitmap`` is the host's stacked
    candidate bitmap and ``params`` prices the children. Returns how
    many entry generations it recorded and, per DFS level, how many
    frames' children."""
    if 2 not in facts:
        return 0, {}
    sel = xp.nonzero(facts[2].on[rows])[0]
    if not len(sel):
        return 0, {}
    e = edges[sel]
    items_in = _Items(rows[sel], e, phase.ex[e], phase.ey[e])
    snap = _Snapshot(csr, bitmap, phase)
    # each item is a frame of one request, with order[0] <- x and
    # order[1] <- y
    out = xp.zeros((4, len(sel)), dtype=xp.int64)

    def keep(at, counts, charge) -> None:
        out[0, at] = counts
        for k, column in enumerate(charge, 1):
            out[k, at] = column

    n_entry, cands = _narrow_frames(
        snap, facts[2], items_in, [], xp.arange(len(sel), dtype=xp.int64),
        list(range(len(sel) + 1)), keep,
    )
    counts, charge = out[0, :n_entry], (out[1, :n_entry], out[2, :n_entry], out[3, :n_entry])
    top = level = LevelRecord(cands)
    chain = [(cands, xp.repeat(xp.arange(n_entry, dtype=xp.int64), counts))]
    frames: dict[int, int] = {}
    lv = 2
    while lv + 1 in facts and len(level.cands):
        n_frames = _record_level(snap, facts[lv + 1], level, items_in, chain, params)
        if n_frames is None:
            break
        frames[lv] = n_frames
        level = level.kids
        lv += 1

    ends = xp.to_numpy(xp.cumsum(counts)).tolist()
    charges = zip(*(xp.to_numpy(c).tolist() for c in charge))
    a = 0
    for j, b, charge_j in zip(xp.to_numpy(sel).tolist(), ends, charges):
        frame = (top, a) if a < b <= top.covered else None
        items[j]["entry"] = (cands[a:b], charge_j, frame)
        a = b
    return n_entry, frames
