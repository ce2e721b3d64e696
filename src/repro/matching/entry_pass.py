"""The host-wide entry pass: the first two Gen-Candidates levels of every
hosted query's work items, one array pass per level.

Every work item of a phase enters its DFS at level 2 with the update
edge mapped onto its group's representative, so its entry generation
(the candidates of ``order[2]``) and, when level 2 generates children,
its entry frame's children (the candidates of ``order[3]``, one list
per entry candidate) depend only on the item, the phase's rank rule,
the snapshot and the candidate stack. :func:`entry_pass` computes them
for all the host's items right after
:func:`~repro.matching.wbm.working_items`, the way GSI (PAPERS.md,
arXiv 1906.03420) joins many partial matches against one candidate set
at once, and records on each item what the inline calls would return
and charge:

* ``item["entry"] = (cands, charge, kids)``: the ascending candidates
  of ``order[2]``, the :func:`~repro.matching.gen_candidates._charge_gen`
  arguments of the inline :func:`_gen_candidates` call, and the
  frame's ``(level, children, costs)`` for the cursor's ``_prefetch``
  adoption (``None`` when the frame generates none, or past the bound).

Each level is one call of the level batching's array primitive
(:func:`~repro.matching.level_batch._narrow_level`): a request is one
partial match, given as its prefix slots, its matched neighbors' slots
and edge labels, the wanted vertex label, the stack column and the
rank, all read from the runtimes' fact matrix. Requests that share an
anchor, labels and column share one first stage, the per-launch
hub-slice cache lifted to the whole host. The entry frames' children
are priced by :func:`~repro.matching.level_batch._gen_cost_segments`,
the pricing of the level batching, and each level stops at the item
whose first-stage runs would pass ``_ENTRY_PASS_MAX`` elements.

Nothing modeled changes: the cursor pays the recorded charges at the
step the inline call would have, and adopts the recorded children
where it would have generated them.
"""

from __future__ import annotations

from repro import xp
from repro.graph.csr import CSRGraph
from repro.gpu.params import DeviceParams
from repro.matching.launch_env import PhaseEdges, level_column
from repro.matching.level_batch import (
    _cost_slice,
    _gen_cost_segments,
    _narrow_level,
    _Snapshot,
    _split,
)

#: a level's pass expands at most this many first-stage elements (the
#: requests' runs, before injectivity, rank and adjacency); the items
#: past it generate that level inline, so a non-selective query cannot
#: hold every item's candidates at once
_ENTRY_PASS_MAX = 1 << 16

# columns of a runtime's fact matrix (one row per plan group); the
# per-level ones are keyed by DFS level (2: entry, 3: the frame's children)
_ON, _KIDS = 0, 1  # the pass covers the group; level 2 generates children
_VL = {2: 2, 3: 9}  # wanted vertex label
_COL = {2: 3, 3: 10}  # stack column of the filter
_POS = {2: slice(4, 6), 3: slice(11, 14)}  # matched neighbors' prefix slots, -1 pad
_EL = {2: slice(6, 8), 3: slice(14, 17)}  # their edge labels to the target
_N_FACTS = 17


def entry_facts(query, table, groups) -> xp.ndarray:
    """The static facts of a runtime's entry pass, one row per group:
    whether the pass covers it (level 2 opens a frame instead of
    emitting or permuting), whether that frame
    generates children, and per level (2 and 3) the wanted vertex
    label, the filter column, and the matched query neighbors as slots
    of the prefix ``(order[0], order[1], order[2])`` in adjacency
    order, with their edge labels. Valid until the stack's layout
    changes (its column indices move)."""
    rows = []
    n = query.n_vertices
    for group in groups:
        row = [0] * _N_FACTS
        row[_POS[2]] = [-1, -1]
        row[_POS[3]] = [-1, -1, -1]
        order = group.full_order
        boundary = len(group.core)
        single = group.is_singleton
        if n > 2 and (boundary != 2 or single):
            slot = {order[i]: i for i in range(min(n, 3))}
            for lv in (2, 3) if n > 3 else (2,):
                qv = order[lv]
                matched = [w for w in query.neighbors(qv) if slot.get(w, lv) < lv]
                row[_VL[lv]] = query.vertex_label(qv)
                row[_COL[lv]] = level_column(table, group, lv)
                pos, el = _POS[lv], _EL[lv]
                row[pos.start : pos.start + len(matched)] = [slot[w] for w in matched]
                row[el.start : el.start + len(matched)] = [
                    query.edge_label(qv, w) for w in matched
                ]
            # a query the matching order disconnects raises inline
            row[_ON] = row[_POS[2].start] >= 0
            row[_KIDS] = n > 3 and (boundary != 3 or single) and row[_POS[3].start] >= 0
        rows.append(row)
    return xp.asarray(rows, dtype=xp.int64).reshape(-1, _N_FACTS)


def _level_facts(facts: xp.ndarray, level: int, g: xp.ndarray) -> tuple:
    """The :func:`_narrow_level` request arrays of DFS level ``level``
    for requests of fact rows ``g``: the matched neighbors' prefix
    slots and edge labels, the wanted vertex label and the stack
    column."""
    return facts[g, _POS[level]], facts[g, _EL[level]], facts[g, _VL[level]], facts[g, _COL[level]]


def entry_pass(
    phase: PhaseEdges,
    csr: CSRGraph,
    bitmap: xp.ndarray,
    facts: xp.ndarray,
    rows: xp.ndarray,
    edges: xp.ndarray,
    items: list[dict],
    params: DeviceParams,
) -> tuple[int, int]:
    """Record the entry generation, and the entry frame's children, of
    every covered item: ``items[j]`` maps update edge ``edges[j]`` of
    ``phase`` onto the group of fact row ``rows[j]`` (rows of the
    runtimes' :func:`entry_facts`, stacked). ``bitmap`` is the host's
    stacked candidate bitmap and ``params`` prices the children.
    Returns how many entry generations and entry frames it recorded."""
    sel = xp.nonzero(facts[rows, _ON])[0]
    if not len(sel):
        return 0, 0
    g, e = rows[sel], edges[sel]
    n_req = len(sel)
    snap = _Snapshot(csr, bitmap, phase)
    # prefix slots: order[0] <- x, order[1] <- y, order[2] <- a child
    prefix = xp.full((n_req, 3), -1, dtype=xp.int64)
    prefix[:, 0] = phase.ex[e]
    prefix[:, 1] = phase.ey[e]
    n_entry, cands, counts, charge = _narrow_level(
        snap, prefix, *_level_facts(facts, 2, g), e,
        cut=(xp.arange(n_req + 1, dtype=xp.int64), _ENTRY_PASS_MAX),
    )

    # the entry frames' children: one request per entry candidate
    parent = xp.repeat(xp.arange(n_entry, dtype=xp.int64), counts)
    opens = xp.nonzero(facts[g[parent], _KIDS])[0]
    parent = parent[opens]
    kid_prefix = prefix[parent]
    kid_prefix[:, 2] = cands[opens]
    bounds = xp.searchsorted(parent, xp.arange(n_entry + 1, dtype=xp.int64))
    n_kids, kid_vals, kid_counts, kid_charge = _narrow_level(
        snap, kid_prefix, *_level_facts(facts, 3, g[parent]), e[parent],
        cut=(bounds, _ENTRY_PASS_MAX),
    )
    costs = _gen_cost_segments(*kid_charge, params) if len(kid_counts) else None
    children = _split(kid_vals, kid_counts)

    bounds = xp.to_numpy(bounds).tolist()
    charges = zip(*(xp.to_numpy(c).tolist() for c in charge))
    n_frames = 0
    for r, (j, item_cands, charge_r) in enumerate(
        zip(xp.to_numpy(sel).tolist(), _split(cands, counts), charges)
    ):
        a, b = bounds[r], bounds[r + 1]
        kids = None
        if r < n_kids and b > a:
            kids = (2, children[a:b], _cost_slice(costs, a, b))
            n_frames += 1
        items[j]["entry"] = (item_cands, charge_r, kids)
    return n_entry, n_frames
