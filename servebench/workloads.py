"""The serving workloads: inputs made from a seed, and the service each
one is served by.

Every workload is a start graph, a set of standing queries and a
*cycle* of update batches: some forward batches, then their inverses in
reverse order. Inverse inserts restore the original edge labels, so a
whole cycle returns the graph to its start state and a run may repeat
the cycle any number of times. Only the update stream depends on the
seed; the graph and the queries are fixed, so seeds vary the input
without changing the workload's character.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.bench import workloads as gen
from repro.bench.harness import BENCH_PARAMS
from repro.errors import BenchmarkError
from repro.graph import CSRGraph, LabeledGraph, load_dataset
from repro.graph.updates import UpdateBatch, apply_batch
from repro.matching import WBMConfig, find_matches
from repro.service import MatchingService, ShardedMatchingService, ShardPolicy

QUERY_SIZE = 6  # the paper's default |V(Q)|
N_QUERIES = 64
#: a query is "selective" when the full graph holds fewer matches
MAX_STATIC_MATCHES = 200
QUERY_SEED = 29
N_FORWARD = 2  # forward batches per cycle (then as many inverses)
N_WORKERS = 2


@dataclass
class Workload:
    name: str
    graph: LabeledGraph  # start state; every whole cycle returns to it
    queries: list[LabeledGraph]
    bootstrap: bool
    cycle: list[UpdateBatch]
    sharded: bool = False
    #: the hub-heavy query has no match in any state of its graph
    expect_no_matches: bool = False

    def make_service(self):
        """Service construction plus registration: what ``setup_s``
        times."""
        if self.sharded:
            service = ShardedMatchingService(
                self.graph,
                params=BENCH_PARAMS,
                shard_policy=ShardPolicy(n_workers=N_WORKERS),
            )
        else:
            service = MatchingService(self.graph, params=BENCH_PARAMS)
        for i, q in enumerate(self.queries):
            service.register_query(q, WBMConfig(), name=f"q{i}", bootstrap=self.bootstrap)
        return service


def inverse_batch(batch: UpdateBatch, before: LabeledGraph) -> UpdateBatch:
    """The batch that undoes ``batch`` applied to ``before``: inserts
    become deletes, and deletes become inserts carrying the label the
    edge had in ``before``. Ops come out in reverse order."""
    kind, u, v, _ = batch.op_arrays()
    rows = []
    for k, a, b in zip(kind.tolist()[::-1], u.tolist()[::-1], v.tolist()[::-1]):
        if k:
            rows.append((0, a, b, 0))
        else:
            rows.append((1, a, b, before.edge_label(a, b)))
    arr = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
    return UpdateBatch.from_columns(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])


def make_cycle(start: LabeledGraph, forward: list[UpdateBatch]) -> list[UpdateBatch]:
    """``forward`` then the inverses in reverse order. Every batch is
    applied to a scratch copy under strict validation, so an invalid
    stream fails here, before any service sees it."""
    state = start.copy()
    inverses = []
    for batch in forward:
        inverses.append(inverse_batch(batch, state))
        apply_batch(state, batch, strict=True)
    for batch in reversed(inverses):
        apply_batch(state, batch, strict=True)
    return list(forward) + inverses[::-1]


def select_queries(graph: LabeledGraph, count: int = N_QUERIES) -> list[LabeledGraph]:
    """``count`` selective 6-vertex queries, cycling dense / sparse /
    tree, from a fixed seed. ``extract_query`` recomputes the graph's
    core numbers on every call; they are computed once here instead,
    which changes no query and saves seconds of input generation."""
    cores = gen.core_numbers(graph)
    real = gen.core_numbers
    gen.core_numbers = lambda g: cores if g is graph else real(g)
    try:
        csr = CSRGraph.from_graph(graph)
        out: list[LabeledGraph] = []
        seed = QUERY_SEED
        while len(out) < count:
            for kind in ("dense", "sparse", "tree"):
                try:
                    q = gen.extract_query(graph, QUERY_SIZE, kind, seed=seed)
                except BenchmarkError:
                    continue
                finally:
                    seed += 1
                n = len(find_matches(q, graph, csr=csr, limit=MAX_STATIC_MATCHES))
                if n < MAX_STATIC_MATCHES and len(out) < count:
                    out.append(q)
        return out
    finally:
        gen.core_numbers = real


def _lj(scale: float, batch_rate: float, seed: int):
    full = load_dataset("LJ", scale=scale)
    start, stream = gen.holdout_stream(
        full, batch_rate * N_FORWARD, n_batches=N_FORWARD, mode="mixed", seed=seed
    )
    return full, start, make_cycle(start, list(stream))


def _hub_batch(start: LabeledGraph, n_hubs: int, n_inserts: int, seed: int) -> UpdateBatch:
    """``hub_schedule``'s batch shape (every missing hub edge of a leaf,
    leaf by leaf, until ``n_inserts``) over a seeded leaf order."""
    leaves = list(range(n_hubs, start.n_vertices))
    random.Random(seed).shuffle(leaves)
    rows = []
    for leaf in leaves:
        for hub in range(n_hubs):
            if len(rows) < n_inserts and not start.has_edge(hub, leaf):
                rows.append((1, hub, leaf, 0))
    arr = np.asarray(rows, dtype=np.int64)
    return UpdateBatch.from_columns(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])


def build(name: str, seed: int) -> Workload:
    if name in ("lj_serving", "lj_sharded"):
        full, start, cycle = _lj(1.0, 0.05, seed)
        return Workload(
            name, start, select_queries(full), bootstrap=True, cycle=cycle,
            sharded=name == "lj_sharded",
        )
    if name == "hub_heavy":
        start, batch, query = gen.hub_schedule()
        n_hubs = 6  # hub_schedule's default
        cycle = make_cycle(start, [_hub_batch(start, n_hubs, len(batch), seed)])
        # a static bootstrap of the 5-cycle here takes ~30 s, so the
        # query registers without one (it has no match to bootstrap)
        return Workload(
            name, start, [query], bootstrap=False, cycle=cycle, expect_no_matches=True
        )
    if name == "lj_ingest":
        _, start, cycle = _lj(4.0, 0.10, seed)
        return Workload(name, start, [], bootstrap=False, cycle=cycle)
    raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


WORKLOADS = ("lj_serving", "hub_heavy", "lj_ingest", "lj_sharded")
