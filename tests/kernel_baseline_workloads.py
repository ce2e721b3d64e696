"""Fixed-seed serving workloads behind the frozen kernel baselines.

Two deterministic multi-batch serving runs whose per-batch
``KernelStats`` / ``GpmaUpdateStats`` (and signed match deltas) are
recorded into ``tests/data/baseline_kernel_<name>.json`` by
``tools/make_kernel_baselines.py`` — the PR-3 pattern applied to the
kernel: future kernel refactors diff against frozen numbers, not just
against the live oracle (which could drift together with the fast
path). ``tests/test_dfs_level_step.py`` replays both execution arms
(level-stepped cursor, full scalar oracle) against the same frozen
record.

This module is imported both by the test suite and by the generator
tool, so the workload definition exists exactly once.
"""

from __future__ import annotations

import dataclasses
import random

from repro.graph.generators import attach_labels, power_law_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.updates import apply_batch, make_batch
from repro.gpu import DeviceParams
from repro.matching import WBMConfig
from repro.service import MatchingService

#: small device so every workload schedules several warps per block and
#: more than one block per launch
PARAMS = DeviceParams(num_sms=2, warps_per_block=4)

#: workload name -> baseline file stem
WORKLOADS = ("mixed_serving", "steal_heavy")


def _mixed_batch(g, rng: random.Random, k: int):
    edges = list(g.edges())
    rng.shuffle(edges)
    non = [
        (u, v)
        for u in range(g.n_vertices)
        for v in range(u + 1, g.n_vertices)
        if not g.has_edge(u, v)
    ]
    rng.shuffle(non)
    return make_batch(
        [("+", u, v, 0) for u, v in non[: k // 2]]
        + [("-", u, v) for u, v in edges[: k // 2]]
    )


def build_workload(name: str):
    """Deterministic (initial graph, batches, [(query name, query, config
    overrides)]) for one named workload."""
    if name == "mixed_serving":
        g0 = attach_labels(power_law_graph(42, 2.6, seed=17), 3, 2, seed=18)
        rng = random.Random(19)
        batches = []
        g = g0.copy()
        for _ in range(3):
            batch = _mixed_batch(g, rng, 12)
            batches.append(batch)
            apply_batch(g, batch)
        queries = [
            (
                "chord",
                LabeledGraph.from_edges([0, 1, 0, 1], [(0, 1), (1, 2), (2, 3), (0, 2)]),
                {},
            ),
            (
                "path",
                LabeledGraph.from_edges([0, 1, 2], [(0, 1), (1, 2)]),
                {"work_stealing": "off"},
            ),
        ]
        return g0, batches, queries
    if name == "steal_heavy":
        g0 = attach_labels(power_law_graph(30, 1.8, seed=2), 1, 1, seed=3)
        rng = random.Random(7)
        non = [
            (u, v)
            for u in range(g0.n_vertices)
            for v in range(u + 1, g0.n_vertices)
            if not g0.has_edge(u, v)
        ]
        rng.shuffle(non)
        batches = [make_batch([("+", u, v, 0) for u, v in non[:24]])]
        g = g0.copy()
        apply_batch(g, batches[0])
        edges = list(g.edges())
        rng.shuffle(edges)
        batches.append(make_batch([("-", u, v) for u, v in edges[:10]]))
        queries = [
            (
                "dense",
                LabeledGraph.from_edges(
                    [0, 0, 0, 0], [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3)]
                ),
                {"work_stealing": "active"},
            ),
        ]
        return g0, batches, queries
    raise ValueError(f"unknown workload {name!r}")


def run_workload(name: str, vectorized: bool = True) -> list[dict]:
    """Run one workload on one execution arm; return the JSON-shaped
    per-batch record the baselines freeze."""
    g0, batches, queries = build_workload(name)
    service = MatchingService(g0, params=PARAMS, vectorized=vectorized)
    for qname, query, overrides in queries:
        config = WBMConfig(vectorized=vectorized, **overrides)
        service.register_query(query, config, name=qname, bootstrap=False)
    record = []
    for batch in batches:
        rep = service.process_batch(batch)
        record.append(
            {
                "gpma_stats": dataclasses.asdict(rep.gpma_stats),
                "queries": {
                    qname: {
                        "positives": sorted(map(list, qr.result.positives)),
                        "negatives": sorted(map(list, qr.result.negatives)),
                        "kernel_stats": dataclasses.asdict(qr.result.kernel_stats),
                    }
                    for qname, qr in rep.queries.items()
                },
            }
        )
    return record
