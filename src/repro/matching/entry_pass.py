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
children in the next level (a CSR trie) and one pass-wide
:class:`~repro.gpu.trace.SegmentCosts` from
:func:`~repro.matching.level_batch._gen_cost_segments`. A frame adopts
its children by offset, and a thief adopts the tail it stole the same
way.

Each level is one call of the level batching's array primitive
(:func:`~repro.matching.level_batch._narrow_level`) over every recorded
candidate whose frame generates children: a request is one partial
match, given as its prefix slots and the level's static facts
(:func:`entry_facts`). Requests that share an anchor, labels and column
share one first stage across the whole host. Each level stops at the frame whose first-stage runs would
pass ``_ENTRY_PASS_MAX`` elements, so a non-selective query never holds
its whole tree; the frames past it, and everything under them,
generate inline.

Nothing modeled changes: the cursor pays the recorded charges at the
step the inline call would have, and adopts the recorded children
where it would have generated them.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple, Optional

from repro import xp
from repro.graph.csr import CSRGraph
from repro.gpu.params import DeviceParams
from repro.matching.launch_env import PhaseEdges, level_column
from repro.matching.level_batch import (
    LevelRecord,
    _gen_cost_segments,
    _narrow_level,
    _Snapshot,
)

#: a level's pass expands at most this many first-stage elements (the
#: requests' runs, before injectivity, rank and adjacency); the frames
#: past it generate that level inline, so a non-selective query cannot
#: hold every item's candidates at once
_ENTRY_PASS_MAX = 1 << 13
#: one primitive call narrows at most this many requests and this many
#: first-stage elements, so the pass's transient arrays stay small
#: however far a level runs; a frame whose children alone pass it
#: stops its level like a frame past ``_ENTRY_PASS_MAX``
_LEVEL_CHUNK = 1 << 11


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

    def requests(self, g: xp.ndarray) -> tuple:
        """The :func:`_narrow_level` request arrays of fact rows ``g``."""
        return self.pos[g], self.elabel[g], self.vlabel[g], self.col[g]


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


def _narrow_frames(
    snap: _Snapshot, facts: LevelFacts, req, prefix, g, e, bounds: list[int]
) -> tuple:
    """:func:`_narrow_level` over requests grouped into frames, frame
    ``f`` owning requests ``[bounds[f], bounds[f + 1])``; request ``i``
    is row ``req[i]`` of ``prefix``, fact rows ``g`` and update edges
    ``e``. Frames stay whole, and the level stops at the first frame
    that does not fit the bound: each call takes at most
    ``_LEVEL_CHUNK`` requests (a larger frame alone) and first-stage
    elements, and at most ``_ENTRY_PASS_MAX`` elements go through in
    all. Returns the frames narrowed and the narrowed requests'
    candidates, counts and charges."""
    limit = min(_LEVEL_CHUNK, _ENTRY_PASS_MAX)
    calls = max(_ENTRY_PASS_MAX // _LEVEL_CHUNK, 1)
    n_frames, f, parts = len(bounds) - 1, 0, []
    while f < n_frames and calls:
        a = bounds[f]
        end = max(bisect_right(bounds, a + _LEVEL_CHUNK) - 1, f + 1)
        rows = req[a : bounds[end]]
        n, *out = _narrow_level(
            snap, prefix[rows], *facts.requests(g[rows]), e[rows],
            cut=(xp.asarray(bounds[f : end + 1], dtype=xp.int64) - a, limit),
        )
        if not n:  # the next frame alone passes the bound
            break
        parts.append((out[0], out[1], *out[2]))
        f += n
        calls -= 1
    if not parts:
        return 0, xp.zeros(0, dtype=xp.int64), *(xp.zeros(0, dtype=xp.int64) for _ in range(4))
    return (f, *(xp.concatenate(column) for column in zip(*parts)))


def _record_level(
    snap: _Snapshot,
    facts: LevelFacts,
    level: LevelRecord,
    prefix: xp.ndarray,
    parent: xp.ndarray,
    g: xp.ndarray,
    e: xp.ndarray,
    params: DeviceParams,
) -> Optional[tuple]:
    """Record the children of ``level``'s candidates: one request per
    candidate whose group generates the next level, the frames (runs
    of one ``parent``) kept whole under the bound. ``prefix`` holds each
    candidate's assigned slots, ``g`` and ``e`` its fact row and update
    edge. Fills ``level``'s offsets, costs, coverage and ``kids``;
    returns the next level's ``(record, prefix, parent, g, e)`` and the
    number of frames recorded, or ``None`` when no frame generates
    within the bound."""
    req = xp.nonzero(facts.on[g])[0]
    if not len(req):
        return None
    frame = parent[req]
    firsts = xp.nonzero(xp.concatenate([[True], frame[1:] != frame[:-1]]))[0]
    bounds = xp.to_numpy(firsts).tolist() + [len(req)]
    n_frames, vals, counts, *charge = _narrow_frames(snap, facts, req, prefix, g, e, bounds)
    n_done = bounds[n_frames]
    if not n_done:
        return None
    # the candidates of every frame before the first one left out
    covered = (
        len(level.cands) if n_done == len(req) else int(xp.searchsorted(parent, frame[n_done]))
    )
    done = req[:n_done]
    kid_parent = xp.repeat(done, counts)
    if covered != n_done:  # some covered candidates generate nothing
        full = xp.zeros((4, covered), dtype=xp.int64)
        full[:, done] = xp.stack([counts, *charge])
        counts, charge = full[0], (full[1], full[2], full[3])
    off = xp.zeros(covered + 1, dtype=xp.int64)
    xp.cumsum(counts, out=off[1:])
    level.off = xp.to_numpy(off).tolist()
    level.costs = _gen_cost_segments(*charge, params)
    level.covered = covered
    level.kids = LevelRecord(vals)
    return (
        level.kids,
        xp.concatenate([prefix[kid_parent], vals[:, None]], axis=1),
        kid_parent,
        g[kid_parent],
        e[kid_parent],
        n_frames,
    )


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
    g, e = rows[sel], edges[sel]
    snap = _Snapshot(csr, bitmap, phase)
    # prefix slots: order[0] <- x, order[1] <- y; each item is a frame
    # of one request
    prefix = xp.stack([phase.ex[e], phase.ey[e]], axis=1)
    n_entry, cands, counts, *charge = _narrow_frames(
        snap, facts[2], xp.arange(len(sel), dtype=xp.int64), prefix, g, e,
        list(range(len(sel) + 1)),
    )
    top = LevelRecord(cands)
    item = xp.repeat(xp.arange(n_entry, dtype=xp.int64), counts)
    step = [top, xp.concatenate([prefix[item], cands[:, None]], axis=1), item, g[item], e[item]]
    frames: dict[int, int] = {}
    lv = 2
    while lv + 1 in facts and len(step[0].cands):
        out = _record_level(snap, facts[lv + 1], *step, params)
        if out is None:
            break
        *step, frames[lv] = out
        lv += 1

    ends = xp.to_numpy(xp.cumsum(counts)).tolist()
    charges = zip(*(xp.to_numpy(c).tolist() for c in charge))
    a = 0
    for j, b, charge_j in zip(xp.to_numpy(sel).tolist(), ends, charges):
        frame = (top, a) if a < b <= top.covered else None
        items[j]["entry"] = (cands[a:b], charge_j, frame)
        a = b
    return n_entry, frames
