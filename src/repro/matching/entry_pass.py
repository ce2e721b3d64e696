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

A request of one level is one partial match to narrow: its anchor (the
first minimum-degree matched neighbor, the oracle's rule), the wanted
vertex label, the edge label to the anchor, the stack column, the
assigned values (injectivity), the other matched vertices with their
edge labels, and the rank. Requests that share ``(anchor, vertex
label, edge label, column)`` share one first stage: the anchor's sorted
adjacency masked by those three, the per-launch hub-slice cache lifted
to the whole host. Injectivity, the rank rule (:meth:`PhaseEdges.rank_index`)
and adjacency to the other matched vertices (``csr.edge_index()``) are
per-element ANDs over the expanded runs, so every list comes out
ascending and equal to the oracle's. Costs are priced by
:func:`~repro.matching.level_batch._gen_cost_segments`, the pricing of
the level batching.

Nothing modeled changes: the cursor pays the recorded charges at the
step the inline call would have, and adopts the recorded children
where it would have generated them.
"""

from __future__ import annotations

from repro import xp
from repro.graph.csr import CSRGraph, _flat_indices
from repro.gpu.params import DeviceParams
from repro.matching.intersect import positions_in
from repro.matching.launch_env import PhaseEdges, filter_index
from repro.matching.level_batch import _cost_slice, _gen_cost_segments

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
#: degree of a padding slot: above every real degree, so never the anchor
_NO_ANCHOR = 1 << 62


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
                row[_COL[lv]] = (
                    filter_index(table, group, qv) if lv < boundary else table.lo + qv
                )
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
    facts: xp.ndarray,
    level: int,
    g: xp.ndarray,
    prefix: xp.ndarray,
    rank: xp.ndarray,
    bounds: xp.ndarray,
) -> tuple:
    """Gen-Candidates of DFS level ``level`` for every request: request
    ``i`` targets fact row ``g[i]`` with prefix slots ``prefix[i]``
    (-1 unassigned) and rank ``rank[i]``. The requests form items,
    item ``t`` owning ``[bounds[t], bounds[t + 1])``; only the leading
    items whose first-stage runs total at most ``_ENTRY_PASS_MAX``
    elements are narrowed. Returns that item count, the candidates
    (ascending per request, requests in order), each narrowed
    request's candidate count, and its charge: the anchor degree, the
    number of other matched neighbors and their degree sum."""
    n_req = len(g)
    at = xp.arange(n_req, dtype=xp.int64)
    pos = facts[g, _POS[level]]
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
    elabels = facts[g, _EL[level]]
    others = xp.where(
        matched & (xp.arange(pos.shape[1])[None, :] != aidx[:, None]), dv, -1
    )
    vlabel = facts[g, _VL[level]]
    col = facts[g, _COL[level]]
    firsts, key_of = _distinct(anchor, vlabel, elabels[at, aidx], col)
    runs, run_starts, run_counts = snap.first_stage(
        anchor[firsts], vlabel[firsts], elabels[firsts, aidx[firsts]], col[firsts]
    )
    volume = xp.zeros(n_req + 1, dtype=xp.int64)
    xp.cumsum(run_counts[key_of], out=volume[1:])
    n_items = int(xp.searchsorted(volume[bounds], _ENTRY_PASS_MAX, side="right")) - 1
    n_req = int(bounds[n_items])
    key_of = key_of[:n_req]
    cnt = run_counts[key_of]
    vals = runs[_flat_indices(run_starts[key_of], cnt)]
    req = xp.repeat(at[:n_req], cnt)
    # injectivity against every assigned value (a -1 slot never equals)
    keep = vals != prefix[req, 0]
    for slot in range(1, prefix.shape[1]):
        keep &= vals != prefix[req, slot]
    vals, req = vals[keep], req[keep]
    req_rank = rank[req]
    keep = ~snap.rank_blocked(vals, anchor[req], req_rank)
    for o in range(others.shape[1]):
        # only the elements whose request has an o-th other neighbor
        at = xp.nonzero(others[req, o] >= 0)[0]
        if len(at):
            other, x, r = others[req[at], o], vals[at], req_rank[at]
            keep[at] &= snap.adjacent(other, x, elabels[req[at], o]) & ~snap.rank_blocked(
                x, other, r
            )
    vals, req = vals[keep], req[keep]
    counts = xp.bincount(req, minlength=n_req)
    return n_items, vals, counts, (nb[:n_req], n_others[:n_req], others_deg[:n_req])


def _split(vals: xp.ndarray, counts: xp.ndarray) -> list:
    """``vals`` cut into consecutive runs of ``counts`` elements."""
    ends = xp.to_numpy(xp.cumsum(counts)).tolist()
    return [vals[a:b] for a, b in zip([0] + ends[:-1], ends)]


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
        snap, facts, 2, g, prefix, e, xp.arange(n_req + 1, dtype=xp.int64)
    )

    # the entry frames' children: one request per entry candidate
    parent = xp.repeat(xp.arange(n_entry, dtype=xp.int64), counts)
    opens = xp.nonzero(facts[g[parent], _KIDS])[0]
    parent = parent[opens]
    kid_prefix = prefix[parent]
    kid_prefix[:, 2] = cands[opens]
    bounds = xp.searchsorted(parent, xp.arange(n_entry + 1, dtype=xp.int64))
    n_kids, kid_vals, kid_counts, kid_charge = _narrow_level(
        snap, facts, 3, g[parent], kid_prefix, e[parent], bounds
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
