"""Workload generation for the evaluation (paper §VI-A).

Queries are random connected subgraphs extracted from the data graph
(so they are guaranteed to have at least one match) and classified as
the paper does: **Dense** (davg ≥ 3), **Sparse** (davg < 3), **Tree**
(|E| = |V| − 1, acyclic). Update workloads follow the standard CSM
holdout methodology: a fraction of edges is removed to form the initial
graph and re-inserted as the batch (insertion rate), deleted in place
(deletion rate), or mixed 2:1 (Figure 11); Figure 10's density workload
samples the held-out edges from within a k-core.
"""

from __future__ import annotations

import random

import numpy as np

from repro.errors import BenchmarkError
from repro.graph.kcore import core_numbers
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.updates import UpdateBatch


def classify_query(query: LabeledGraph) -> str:
    """The paper's Dense / Sparse / Tree classes."""
    n, m = query.n_vertices, query.n_edges
    if m == n - 1:
        return "tree"
    if query.avg_degree() >= 3.0:
        return "dense"
    return "sparse"


def _grow_vertex_set(
    graph: LabeledGraph,
    start: int,
    n_vertices: int,
    rng: random.Random,
    prefer_dense: bool,
) -> list[int] | None:
    """Random connected vertex set via degree-biased frontier growth."""
    chosen = [start]
    chosen_set = {start}
    frontier = [w for w in graph.neighbors(start)]
    while len(chosen) < n_vertices:
        frontier = [w for w in frontier if w not in chosen_set]
        if not frontier:
            return None
        if prefer_dense:
            # prefer vertices with many edges back into the chosen set
            weights = [
                1 + sum(1 for x in graph.neighbors(w) if x in chosen_set) ** 2
                for w in frontier
            ]
            nxt = rng.choices(frontier, weights=weights, k=1)[0]
        else:
            nxt = rng.choice(frontier)
        chosen.append(nxt)
        chosen_set.add(nxt)
        frontier.extend(graph.neighbors(nxt))
    return chosen


def _spanning_tree_edges(
    sub: LabeledGraph, rng: random.Random
) -> list[tuple[int, int]]:
    """Random spanning tree via randomized DFS."""
    seen = {0}
    tree: list[tuple[int, int]] = []
    stack = [0]
    while stack:
        u = stack.pop()
        nbrs = list(sub.neighbors(u))
        rng.shuffle(nbrs)
        for w in nbrs:
            if w not in seen:
                seen.add(w)
                tree.append((u, w))
                stack.append(u)
                stack.append(w)
                break
    return tree if len(seen) == sub.n_vertices else []


def extract_query(
    graph: LabeledGraph,
    n_vertices: int,
    kind: str,
    seed: int = 0,
    max_tries: int = 300,
) -> LabeledGraph:
    """Extract one query of the requested class from the data graph.

    Dense queries keep all induced edges of a densely grown region;
    sparse queries keep a spanning tree plus a few extra edges; tree
    queries keep only the spanning tree. Raises
    :class:`BenchmarkError` when the graph cannot yield the class
    (e.g. dense queries from the near-tree NF graph).
    """
    if kind not in ("dense", "sparse", "tree"):
        raise BenchmarkError(f"unknown query kind {kind!r}")
    if n_vertices < 2:
        raise BenchmarkError("queries need >= 2 vertices")
    rng = random.Random(seed)
    cores = core_numbers(graph)
    best: LabeledGraph | None = None
    best_density = -1.0
    starts = [v for v in graph.vertices() if graph.degree(v) > 0]
    if not starts:
        raise BenchmarkError("data graph has no edges")
    if kind == "dense":
        top_core = max(cores)
        rich = [v for v in starts if cores[v] >= max(2, top_core - 1)]
        if rich:
            starts = rich
    for _ in range(max_tries):
        start = rng.choice(starts)
        chosen = _grow_vertex_set(graph, start, n_vertices, rng, kind == "dense")
        if chosen is None:
            continue
        sub, _ = graph.induced_subgraph(chosen)
        if kind == "dense":
            if sub.avg_degree() >= 3.0:
                return sub
            if sub.avg_degree() > best_density:
                best, best_density = sub, sub.avg_degree()
            continue
        tree = _spanning_tree_edges(sub, rng)
        if not tree:
            continue
        if kind == "tree":
            out = LabeledGraph(list(sub.vertex_labels))
            for u, w in tree:
                out.add_edge(u, w, sub.edge_label(u, w))
            return out
        # sparse: tree + a couple of extra induced edges, davg < 3
        out = LabeledGraph(list(sub.vertex_labels))
        for u, w in tree:
            out.add_edge(u, w, sub.edge_label(u, w))
        extras = [e for e in sub.edges() if not out.has_edge(*e)]
        rng.shuffle(extras)
        budget = max(1, (3 * n_vertices - 2) // 2 - (n_vertices - 1) - 1)
        for u, w in extras[:budget]:
            if (2.0 * (out.n_edges + 1)) / n_vertices >= 3.0:
                break
            out.add_edge(u, w, sub.edge_label(u, w))
        if out.n_edges > n_vertices - 1:
            return out
        # fall back to tree-plus-nothing counts as sparse only if cyclic;
        # otherwise retry
    if kind == "dense" and best is not None and best_density >= 2.0:
        return best  # densest available region (NF cannot reach davg 3)
    raise BenchmarkError(f"could not extract a {kind} query of size {n_vertices}")


def make_query_set(
    graph: LabeledGraph,
    n_vertices: int,
    kind: str,
    count: int,
    seed: int = 0,
) -> list[LabeledGraph]:
    """A deterministic set of ``count`` queries of one class/size."""
    out = []
    for i in range(count):
        out.append(extract_query(graph, n_vertices, kind, seed=seed * 1000 + i))
    return out


# ---------------------------------------------------------------------------
# update workloads (holdout methodology)
# ---------------------------------------------------------------------------
def _columnar_batch(rows: list[tuple[int, int, int, int]]) -> UpdateBatch:
    """``(kind, u, v, label)`` rows as a batch with its columnar arrays
    attached at build time — consumers (``effective_delta``) never pay
    the per-op ``fromiter`` rebuild. Shuffling the tuple rows first
    consumes exactly the entropy shuffling an ``UpdateOp`` list would
    (``random.shuffle`` depends only on length), so generated workloads
    are op-for-op identical to the object-based construction."""
    arr = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
    return UpdateBatch.from_columns(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])


def holdout_workload(
    graph: LabeledGraph,
    rate: float,
    mode: str = "insert",
    seed: int = 0,
    core_k: int | None = None,
) -> tuple[LabeledGraph, UpdateBatch]:
    """Build ``(initial graph, batch)`` for an update workload.

    * ``insert``: hold out ``rate·|E|`` edges; the batch re-inserts them.
    * ``delete``: the batch deletes ``rate·|E|`` random edges.
    * ``mixed``: insert:delete = 2:1 (Figure 11's workload).

    ``core_k`` restricts sampled edges to those inside the k-core
    (Figure 10's density knob).
    """
    if not 0.0 < rate <= 0.5:
        raise BenchmarkError(f"update rate {rate} outside (0, 0.5]")
    if mode not in ("insert", "delete", "mixed"):
        raise BenchmarkError(f"unknown workload mode {mode!r}")
    rng = random.Random(seed)
    edges = list(graph.labeled_edges())
    if core_k is not None:
        cores = core_numbers(graph)
        pool = [(u, v, l) for u, v, l in edges if cores[u] >= core_k and cores[v] >= core_k]
        if len(pool) >= 8:
            edges = pool
    rng.shuffle(edges)
    k = max(2, int(round(rate * graph.n_edges)))
    k = min(k, len(edges))

    if mode == "insert":
        held = edges[:k]
        g0 = graph.copy()
        for u, v, _ in held:
            g0.remove_edge(u, v)
        rows = [(1, u, v, l) for u, v, l in held]
        rng.shuffle(rows)
        return g0, _columnar_batch(rows)

    if mode == "delete":
        victims = edges[:k]
        rows = [(0, u, v, 0) for u, v, _ in victims]
        rng.shuffle(rows)
        return graph.copy(), _columnar_batch(rows)

    # mixed 2:1
    k_ins = max(1, (2 * k) // 3)
    k_del = max(1, k - k_ins)
    held = edges[:k_ins]
    g0 = graph.copy()
    for u, v, _ in held:
        g0.remove_edge(u, v)
    remaining = [e for e in edges[k_ins : k_ins + 3 * k_del] if g0.has_edge(e[0], e[1])]
    rows = [(1, u, v, l) for u, v, l in held]
    rows += [(0, u, v, 0) for u, v, _ in remaining[:k_del]]
    rng.shuffle(rows)
    return g0, _columnar_batch(rows)


def holdout_stream(
    graph: LabeledGraph,
    rate: float,
    n_batches: int,
    mode: str = "insert",
    seed: int = 0,
):
    """Consecutive batches for pipeline experiments: the holdout edges
    are split across ``n_batches`` insert batches."""
    g0, batch = holdout_workload(graph, rate, mode=mode, seed=seed)
    from repro.graph.updates import UpdateStream

    n_batches = max(1, min(n_batches, len(batch)))
    base, extra = divmod(len(batch), n_batches)
    batches = []
    pos = 0
    for i in range(n_batches):
        take = base + (1 if i < extra else 0)
        batches.append(batch.subbatch(pos, pos + take))
        pos += take
    return g0, UpdateStream(batches)


# ---------------------------------------------------------------------------
# hub-heavy synthetic schedule (fused Gen-Candidates showcase)
# ---------------------------------------------------------------------------
def hub_schedule(
    n_hubs: int = 6,
    n_leaves: int = 420,
    span: int = 3,
    n_inserts: int = 32,
) -> tuple[LabeledGraph, UpdateBatch, LabeledGraph]:
    """A bipartite hub/leaf graph plus an insert batch engineered so the
    serving launch is dominated by candidate generation over shared hub
    adjacencies: every hub connects to ``span/n_hubs`` of the leaves
    (hub degree ``≈ span·n_leaves/n_hubs``), the batch inserts missing
    hub–leaf edges, and the returned query is the 5-cycle — the host
    graph is bipartite, so the query has **zero** matches and the whole
    launch is Gen-Candidates work plus failed closing intersections.
    Update edges land on the same few hubs, which makes sibling warp
    tasks share anchors (the fused sibling batch's sweet spot).
    """
    edges = []
    for i in range(n_hubs):
        for j in range(n_leaves):
            if (i + j) % n_hubs < span:
                edges.append((i, n_hubs + j))
    g0 = LabeledGraph.from_edges([0] * (n_hubs + n_leaves), edges)
    rows = []
    for j in range(n_leaves):
        for i in range(n_hubs):
            if len(rows) >= n_inserts:
                break
            if not g0.has_edge(i, n_hubs + j):
                rows.append((1, i, n_hubs + j, 0))
    query = LabeledGraph.from_edges(
        [0] * 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    )
    return g0, _columnar_batch(rows), query
