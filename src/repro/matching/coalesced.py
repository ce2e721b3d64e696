"""Coalesced search planning (paper §V-B).

A *k-degenerated automorphic subgraph* ``Q^k`` of query ``Q`` is an
induced subgraph on ``V^k = V(Q) − R^k`` (|R^k| = k) that admits a
non-identity automorphism. Ordered query edges falling in one orbit of
``Aut(Q^k)`` are *equivalent* (Definition 3): the kernel searches only
a representative and reconstructs partial matches of the other members
by permuting the core assignment, then extends each through ``R^k``.

Overlaps between candidate groups are resolved with the paper's rules:

* Rule 1 — an edge claimed by groups with different ``k`` goes to the
  smaller ``k`` (larger shared data subgraph);
* Rule 2 — ties on ``k`` go to the larger equivalent-edge set.

Within a group the *prioritized edge* (the member whose endpoints carry
the strongest full-query constraints) becomes the representative so
permutation produces as few doomed partials as possible; surviving
partials are additionally screened against the full-query candidate
table at the phase boundary (§ "Avoid Invalid Matching").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from repro.graph.labeled_graph import LabeledGraph
from repro.matching.automorphism import automorphisms, ordered_pair_orbits
from repro.matching.matching_order import order_with_prefix

OrderedEdge = tuple[int, int]


@dataclass(frozen=True)
class CoalescedGroup:
    """One equivalent-edge group with its search plan."""

    k: int
    core: tuple[int, ...]  # V^k (original query vertex ids, sorted)
    removed: tuple[int, ...]  # R^k
    representative: OrderedEdge  # the prioritized edge
    members: tuple[OrderedEdge, ...]  # every covered ordered edge (incl. rep)
    core_maps: tuple[dict[int, int], ...]  # automorphisms of Q^k (orig ids)
    core_order: tuple[int, ...]  # matching order over V^k, rep first
    full_order: tuple[int, ...]  # core_order then R^k
    # orbit of each core vertex under Aut(Q^k): the phase-A candidate
    # filter must be invariant under the core automorphisms (it unions
    # candidate columns over the orbit), or permuted partials of valid
    # matches would be pruned before the boundary
    vertex_orbits: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def is_singleton(self) -> bool:
        return len(self.members) == 1

    @property
    def gain(self) -> int:
        """Paper's ideal speedup bound |E^k| for this group."""
        return len(self.members)


@dataclass
class CoalescedPlan:
    """Assignment of every ordered query edge to exactly one group."""

    groups: list[CoalescedGroup] = field(default_factory=list)
    by_edge: dict[OrderedEdge, CoalescedGroup] = field(default_factory=dict)
    _label_keys: list | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def label_keys(
        self, query: LabeledGraph
    ) -> list[tuple[CoalescedGroup, tuple[int, int, int]]]:
        """Each group paired with its representative edge's ``(label_a,
        label_b, edge_label)`` in ``query`` — the key of the only edge
        bucket the group can map onto. Built on first use: a plan
        serves one query and is not modified once it launches."""
        if self._label_keys is None:
            keys = []
            for group in self.groups:
                a, b = group.representative
                keys.append(
                    (
                        group,
                        (
                            query.vertex_label(a),
                            query.vertex_label(b),
                            query.edge_label(a, b),
                        ),
                    )
                )
            self._label_keys = keys
        return self._label_keys

    @property
    def coalesced_edge_count(self) -> int:
        return sum(g.gain for g in self.groups if not g.is_singleton)


def _constraint_score(query: LabeledGraph, pair: OrderedEdge) -> tuple:
    """Dominance heuristic: stronger-constrained endpoints first."""
    a, b = pair
    return (
        query.degree(a) + query.degree(b),
        len(query.nlf(a)) + len(query.nlf(b)),
        -a,
        -b,
    )


def _connected(g: LabeledGraph) -> bool:
    if g.n_vertices == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n_vertices


def _all_ordered_edges(query: LabeledGraph) -> list[OrderedEdge]:
    out = []
    for u, v in query.edges():
        out.append((u, v))
        out.append((v, u))
    return out


def build_coalesced_plan(
    query: LabeledGraph,
    max_k: int = 2,
    aut_cap: int = 48,
) -> CoalescedPlan:
    """Build the per-query coalesced search plan (offline step).

    ``max_k`` bounds how many vertices may be removed; ``aut_cap``
    skips cores whose automorphism group explodes (pathological
    symmetric cliques), falling back to plain search there.
    """
    plan = CoalescedPlan()
    n = query.n_vertices
    assigned: set[OrderedEdge] = set()

    # only degree-1 vertices may be removed (the paper's Remark: higher-
    # degree removals strip too many constraints from the core and also
    # wreck the shared matching order by exiling selective hubs)
    removable = [v for v in range(n) if query.degree(v) <= 1]

    # ------- gather candidate groups over all (k, R) ------------------
    candidates: list[tuple[int, int, tuple[int, ...], list[OrderedEdge], list[dict[int, int]]]] = []
    for k in range(0, min(max_k, len(removable), max(0, n - 2)) + 1):
        for removed in combinations(removable, k):
            core = tuple(v for v in range(n) if v not in removed)
            if len(core) < 2:
                continue
            induced, remap = query.induced_subgraph(core)
            if induced.n_edges == 0 or not _connected(induced):
                continue
            auts = automorphisms(induced, cap=aut_cap)
            if len(auts) <= 1 or len(auts) > aut_cap:
                continue
            back = {new: old for old, new in remap.items()}
            orig_maps = [
                {back[u]: back[sigma[u]] for u in range(induced.n_vertices)}
                for sigma in auts
            ]
            for orbit in ordered_pair_orbits(induced, auts):
                if len(orbit) < 2:
                    continue
                orig_orbit = [(back[a], back[b]) for a, b in orbit]
                candidates.append((k, -len(orig_orbit), core, sorted(orig_orbit), orig_maps))

    # ------- resolve overlaps: Rule 1 then Rule 2, deterministic ------
    candidates.sort(key=lambda c: (c[0], c[1], c[2], c[3][0]))
    for k, _neg, core, orbit, orig_maps in candidates:
        free = [e for e in orbit if e not in assigned]
        if len(free) < 2:
            continue
        rep = max(free, key=lambda e: _constraint_score(query, e))
        removed = tuple(v for v in range(n) if v not in core)
        core_order = tuple(order_with_prefix(query, list(rep), restrict_to=core))
        full_order = tuple(order_with_prefix(query, list(core_order)))
        # keep only automorphisms that land the representative on a free
        # member (others would resurrect edges owned by another group)
        maps = tuple(
            m for m in orig_maps if (m[rep[0]], m[rep[1]]) in free
        )
        orbits = {u: tuple(sorted({m[u] for m in orig_maps})) for u in core}
        group = CoalescedGroup(
            k=k,
            core=core,
            removed=removed,
            representative=rep,
            members=tuple(free),
            core_maps=maps,
            core_order=core_order,
            full_order=full_order,
            vertex_orbits=orbits,
        )
        plan.groups.append(group)
        for e in free:
            assigned.add(e)
            plan.by_edge[e] = group

    # ------- singletons for everything left ---------------------------
    for pair in _all_ordered_edges(query):
        if pair in assigned:
            continue
        order = tuple(order_with_prefix(query, list(pair)))
        group = CoalescedGroup(
            k=0,
            core=tuple(range(n)),
            removed=(),
            representative=pair,
            members=(pair,),
            core_maps=({v: v for v in range(n)},),
            core_order=order,
            full_order=order,
            vertex_orbits={v: (v,) for v in range(n)},
        )
        plan.groups.append(group)
        assigned.add(pair)
        plan.by_edge[pair] = group
    return plan


def trivial_plan(query: LabeledGraph) -> CoalescedPlan:
    """Plan with no coalescing: every ordered edge is its own group
    (the WBM-without-cs ablation arm)."""
    plan = CoalescedPlan()
    n = query.n_vertices
    for pair in _all_ordered_edges(query):
        order = tuple(order_with_prefix(query, list(pair)))
        group = CoalescedGroup(
            k=0,
            core=tuple(range(n)),
            removed=(),
            representative=pair,
            members=(pair,),
            core_maps=({v: v for v in range(n)},),
            core_order=order,
            full_order=order,
            vertex_orbits={v: (v,) for v in range(n)},
        )
        plan.groups.append(group)
        plan.by_edge[pair] = group
    return plan
