"""Gen-Candidates (paper Algorithm 1, §IV-C) for one partial match: the
scalar oracle (:func:`_gen_candidates`, dict walk
:func:`_candidates_scalar`) and its warp-cooperative charges
(:func:`_charge_gen`). The fast path narrows every generation — the
level pass, inline frames, fused sibling frames and single entries —
through the one array primitive
:func:`~repro.matching.level_batch._narrow_level`, and pays the same
charges.
"""

from __future__ import annotations

from repro.errors import MatchingError
from repro.graph.labeled_graph import canonical
from repro.gpu.warp import WarpContext
from repro.matching.coalesced import CoalescedGroup
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
    """Candidates for ``order[level]`` given the current partial match,
    by the dict walk :func:`_candidates_scalar` (the correctness oracle
    of the ``vectorized=False`` arm), charged by :func:`_charge_gen`.

    Phase A (core levels) filters with the orbit-invariant union of
    candidate columns; phase B uses the exact column. Enforces vertex
    label, adjacency + edge labels to all matched query neighbors,
    injectivity, and the total-order rank rule.
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
    col = env.filter_column(group, level)
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
