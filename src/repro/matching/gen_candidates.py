"""Gen-Candidates (paper Algorithm 1, §IV-C) for one partial match: the
scalar oracle (:func:`_gen_candidates`, dict walk
:func:`_candidates_scalar`), its charges (:func:`_charge_gen`), and the
fast path's single-call narrowing :func:`_narrow` with its small-run
and array tails (entry generations past the entry pass and small
frames). Many partial matches at once — the entry pass, large frames
and fused sibling frames — narrow through the one array primitive
:func:`~repro.matching.level_batch._narrow_level` instead; both price
the same modeled warp-cooperative cost.
"""

from __future__ import annotations

from repro import xp
from repro.errors import MatchingError
from repro.graph.labeled_graph import canonical
from repro.gpu.warp import WarpContext
from repro.matching.coalesced import CoalescedGroup
from repro.matching.intersect import intersect_sorted, mask_members
from repro.matching.launch_env import _Env


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

    _charge_gen(ctx, nb, len(others), sum(degs) - nb)
    return out


def _charge_gen(ctx: WarpContext, nb: int, n_others: int, others_deg: int) -> None:
    """The warp-cooperative cost of one Gen-Candidates call whose anchor
    has ``nb`` neighbors and whose ``n_others`` other matched neighbors
    have ``others_deg`` neighbors in all: the anchor's adjacency read,
    one lane pass per matched neighbor, the binary-search rounds into
    the others' adjacencies, and the candidate-table probes."""
    warp = ctx.params.warp_size
    ctx.read_global_consecutive(nb)
    ctx.charge_lanes(nb * (1 + n_others))
    if n_others:
        steps = max(1, (others_deg // n_others).bit_length())
        ctx.read_global_scattered((nb + warp - 1) // warp * steps * n_others)
    # one scattered transaction per probed row group
    ctx.read_global_scattered(max(1, nb // warp))


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


#: candidate runs at or below this length are narrowed in one python
#: pass over per-vertex snapshot rows (anchor adjacencies and first-stage
#: hub slices alike); the array kernels take over above it
_SCALAR_GEN_MAX = 64
