"""Gen-Candidates for a whole DFS level (paper Algorithm 1, §IV-C):
the children of one frame (:func:`_level_children`), of sibling frames
fused in one pass (:func:`_fused_level`), and the one array primitive
under both (:func:`_level_children_multi`). Every child's candidates
and priced cost segment equal a per-child
:func:`~repro.matching.gen_candidates._gen_candidates` call. The size
switches of this module, and ``gen_candidates._SCALAR_GEN_MAX`` (read
through its module, so one patch reaches both narrowing sites), only
pick a host strategy.
"""

from __future__ import annotations

from typing import Optional

import repro.matching.gen_candidates as gen
from repro import xp
from repro.errors import MatchingError
from repro.graph.csr import _flat_indices
from repro.graph.labeled_graph import canonical
from repro.gpu.params import DeviceParams
from repro.gpu.trace import OP_COALESCED, OP_IDLE, OP_LANES, OP_SCATTERED, SegmentCosts
from repro.matching.coalesced import CoalescedGroup
from repro.matching.gen_candidates import _narrow
from repro.matching.intersect import (
    drop_member,
    gather_column,
    positions_in,
    segmented_positions_in,
)
from repro.matching.launch_env import _Env

#: frames below this candidate count price/generate their level with the
#: python pass (array-assembly overhead beats the batch win there)
_LEVEL_BATCH_MIN = 10
#: self-anchored children batch through one fused pass only when their
#: combined adjacency volume clears this bar — below it the per-child
#: walks beat the array-assembly overhead
_FUSE_SELF_MIN_WORK = 96



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
    # xs concatenates sorted runs, so the bounds check takes the
    # snapshot's vertex count instead of a last element
    m &= gather_column(col, xs, bound=csr.n_vertices)
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
    if max(degs) <= gen._SCALAR_GEN_MAX:  # no hub child: gate at C speed
        small, rest, work = range(n), (), sum(degs)
    else:
        small = [i for i in range(n) if degs[i] <= gen._SCALAR_GEN_MAX]
        rest = [i for i in range(n) if degs[i] > gen._SCALAR_GEN_MAX]
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
    n_base: xp.ndarray, n_others, others_deg: xp.ndarray, params: DeviceParams
) -> SegmentCosts:
    """Per-child priced Gen-Candidates segments: child ``i``'s anchor has
    ``n_base[i]`` neighbors and its ``n_others`` (per child, or one
    count for all) other matched neighbors ``others_deg[i]`` in all.
    Amounts mirror :func:`~repro.matching.gen_candidates._charge_gen`
    exactly; a single :meth:`SegmentCosts.from_ops` call prices every
    child. A child without other neighbors has no binary-search op: its
    third op is a zero-cycle idle, which prices to nothing."""
    k = len(n_base)
    warp = params.warp_size
    n_others = n_others + xp.zeros(k, dtype=xp.int64)
    has = n_others > 0
    # frexp's exponent is bit_length for positive ints (0 for 0)
    steps = xp.maximum(
        1, xp.frexp(others_deg // xp.maximum(n_others, 1))[1].astype(xp.int64)
    )
    kinds = xp.tile(
        xp.array([OP_COALESCED, OP_LANES, OP_SCATTERED, OP_SCATTERED], dtype=xp.int64), k
    )
    kinds[2::4] = xp.where(has, OP_SCATTERED, OP_IDLE)
    amounts = xp.empty(4 * k, dtype=xp.int64)
    amounts[0::4] = n_base
    amounts[1::4] = n_base * (1 + n_others)
    amounts[2::4] = xp.where(has, -(-n_base // warp) * steps * n_others, 0)
    amounts[3::4] = xp.maximum(1, n_base // warp)
    bounds = xp.arange(4, 4 * k, 4, dtype=xp.int64)
    return SegmentCosts.from_ops(kinds, amounts, bounds, params)


def _cost_slice(costs: SegmentCosts, a: int, b: int) -> SegmentCosts:
    """Segments ``[a, b)`` of one batch pricing."""
    return SegmentCosts.from_totals(
        costs.clock[a:b],
        costs.busy[a:b],
        costs.compute[a:b],
        costs.transactions[a:b],
        costs.coalesced[a:b],
        costs.scattered[a:b],
    )


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
    n_base = degs[anchor_idx, xp.arange(total)]
    batch_costs = _gen_cost_segments(
        n_base, len(matched) - 1, degs.sum(axis=0) - n_base, params
    )

    starts = xp.zeros(len(requests) + 1, dtype=xp.int64)
    xp.cumsum(counts, out=starts[1:])
    out: list[tuple[list, SegmentCosts]] = []
    for r in range(len(requests)):
        a, b = int(starts[r]), int(starts[r + 1])
        out.append(([None] * (b - a), _cost_slice(batch_costs, a, b)))

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


def _fused_level(
    env: _Env,
    group: CoalescedGroup,
    lv: int,
    requests: list[tuple],
    params: DeviceParams,
) -> Optional[list[tuple[list, SegmentCosts]]]:
    """Sibling frames' children at level ``lv`` of ``group`` as one
    :func:`_level_children_multi` batch, or ``None`` below the fusion
    gate — fewer than two requests, or fewer than ``_LEVEL_BATCH_MIN``
    candidates in all — where the fusion overhead would dominate and
    each frame generates its own (:func:`_level_children`). A request
    is ``(prefix, cands, rank)``; ``prefix(lv)`` builds the frame's
    prefix assignment and runs only past the gate."""
    if len(requests) < 2 or sum(len(r[1]) for r in requests) < _LEVEL_BATCH_MIN:
        return None
    batch = [(prefix(lv), xp.asarray(c, dtype=xp.int64), rank) for prefix, c, rank in requests]
    return _level_children_multi(env, group, group.full_order, lv, batch, params)
