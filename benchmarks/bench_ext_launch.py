"""Extension: pooled array-native virtual-GPU launch path.

Times the launch machinery ISSUE 4 rewrote against its generator
oracle on the LJ serving workload (the ROADMAP's launch-dominated
profile: 10%-of-|E| mixed batches, selective 6-vertex queries):

* **launch path** — wall-clock spent inside ``VirtualGPU.launch``
  (scheduler construction vs pooled reset, generator stepping vs
  cost-trace segment pricing and all-trace block memoization, idle-
  spin scans vs batched idle-window pricing), summed over every
  registered query's device (``VirtualGPU.launch_wall_seconds``);
* **end-to-end serving** — ``MatchingService.process_batch`` wall for
  the same stream, where the launch machinery was ~60% of wall time
  after PR 3.

Both arms run identical streams with identical ``WBMConfig`` (the
matching stack stays vectorized); only the launch path differs, via
each runtime's ``VirtualGPU(vectorized=...)``. ``KernelStats`` are
asserted byte-identical per batch per query — the pooled path must not
move a single modeled cycle.

Writes the human-readable table to ``benchmarks/out`` and the
machine-readable ``benchmarks/out/BENCH_launch.json`` so the CI smoke
step can assert the harness stays runnable.

Knobs: ``REPRO_BENCH_SCALE`` (default 1.0), ``REPRO_BENCH_LAUNCH_BATCHES``
(default 3), ``REPRO_BENCH_LAUNCH_QUERIES`` (default 4).
"""

import dataclasses
import json
import os
import time

from common import DEFAULT_QUERY_SIZE, queries_for

from repro.bench.harness import BENCH_PARAMS
from repro.bench.reporting import ARTIFACT_DIR, render_table, save_artifact
from repro.bench.workloads import holdout_stream
from repro.graph import load_dataset
from repro.gpu.device import VirtualGPU
from repro.matching import WBMConfig, find_matches
from repro.service import MatchingService

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
N_BATCHES = int(os.environ.get("REPRO_BENCH_LAUNCH_BATCHES", "3"))
N_QUERIES = int(os.environ.get("REPRO_BENCH_LAUNCH_QUERIES", "4"))
BATCH_RATE = 0.10  # the paper's default batch size (10% of |E|) per batch
MAX_STATIC_MATCHES = 200  # serving queries are selective by design


def collect_queries(graph, count):
    out = []
    seed = 29
    for _ in range(count * 12):
        for kind in ("dense", "sparse", "tree"):
            for q in queries_for(graph, DEFAULT_QUERY_SIZE, kind, count=2, seed=seed):
                if len(find_matches(q, graph, limit=MAX_STATIC_MATCHES)) < MAX_STATIC_MATCHES:
                    out.append(q)
                if len(out) >= count:
                    return out
        seed += 97
    return out  # whatever the graph could provide


def run_arm(g0, batches, queries, pooled: bool):
    """One full serving run; returns walls plus per-batch kernel stats."""
    service = MatchingService(g0, params=BENCH_PARAMS)
    for i, q in enumerate(queries):
        service.register_query(q, WBMConfig(), name=f"q{i}", bootstrap=False)
        if not pooled:
            # same matching stack, oracle launch machinery only
            service.runtime(f"q{i}").gpu = VirtualGPU(BENCH_PARAMS, vectorized=False)
    t0 = time.perf_counter()
    reports = [service.process_batch(b) for b in batches]
    wall = time.perf_counter() - t0
    stats = [
        {
            name: dataclasses.asdict(qr.result.kernel_stats)
            for name, qr in rep.queries.items()
        }
        for rep in reports
    ]
    matches = [(rep.total_positives, rep.total_negatives) for rep in reports]
    gpus = [service.runtime(n).gpu for n in service.query_names]
    return {
        "wall": wall,
        "launch_wall": sum(g.launch_wall_seconds for g in gpus),
        "stats": stats,
        "matches": matches,
        "launches": sum(g.launch_count for g in gpus),
        "blocks": sum(g.blocks_run for g in gpus),
        "blocks_pooled": sum(g.blocks_pooled for g in gpus),
        "blocks_memoized": sum(g.blocks_memoized for g in gpus),
    }


def run_experiment():
    graph = load_dataset("LJ", scale=SCALE)
    g0, stream = holdout_stream(
        graph, BATCH_RATE * N_BATCHES, n_batches=N_BATCHES, mode="mixed", seed=11
    )
    batches = list(stream)
    queries = collect_queries(g0, N_QUERIES)

    oracle = run_arm(g0, batches, queries, pooled=False)
    pooled = run_arm(g0, batches, queries, pooled=True)
    assert oracle["stats"] == pooled["stats"], "KernelStats diverged between paths"
    assert oracle["matches"] == pooled["matches"], "matches diverged between paths"

    launch_speedup = oracle["launch_wall"] / max(pooled["launch_wall"], 1e-12)
    e2e_speedup = oracle["wall"] / max(pooled["wall"], 1e-12)
    total_ops = sum(len(b) for b in batches)

    rows = [
        ["launch path (VirtualGPU.launch)", f"{oracle['launch_wall']*1e3:.1f}ms",
         f"{pooled['launch_wall']*1e3:.1f}ms", f"{launch_speedup:.2f}x"],
        ["end-to-end process_batch", f"{oracle['wall']*1e3:.1f}ms",
         f"{pooled['wall']*1e3:.1f}ms", f"{e2e_speedup:.2f}x"],
        ["serving throughput (ops/s)",
         f"{total_ops/max(oracle['wall'],1e-12):,.0f}",
         f"{total_ops/max(pooled['wall'],1e-12):,.0f}", f"{e2e_speedup:.2f}x"],
        ["blocks scheduled", oracle["blocks"], pooled["blocks"], ""],
        ["blocks from pool reset", 0, pooled["blocks_pooled"], ""],
        ["all-trace blocks memoized", 0, pooled["blocks_memoized"], ""],
    ]
    text = render_table(
        f"Extension: pooled array-native launch path "
        f"(LJ scale={SCALE}, {N_BATCHES} batches of {BATCH_RATE:.0%} |E|, "
        f"{len(queries)} queries, stats byte-identical)",
        ["metric", "generator oracle", "pooled array-native", "speedup"],
        rows,
    )

    payload = {
        "workload": {
            "dataset": "LJ",
            "scale": SCALE,
            "n_vertices": g0.n_vertices,
            "n_edges": g0.n_edges,
            "n_batches": N_BATCHES,
            "rate_per_batch": BATCH_RATE,
            "n_queries": len(queries),
            "total_ops": total_ops,
        },
        "launch_path": {
            "oracle_s": oracle["launch_wall"],
            "pooled_s": pooled["launch_wall"],
            "speedup": launch_speedup,
            "launches": pooled["launches"],
            "blocks": pooled["blocks"],
            "blocks_pooled": pooled["blocks_pooled"],
            "blocks_memoized": pooled["blocks_memoized"],
        },
        "end_to_end": {
            "oracle_s": oracle["wall"],
            "pooled_s": pooled["wall"],
            "speedup": e2e_speedup,
        },
        "stats_byte_identical": True,
        "matches_identical": True,
    }
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    json_path = ARTIFACT_DIR / "BENCH_launch.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
    return text, json_path


if __name__ == "__main__":
    text, json_path = run_experiment()
    save_artifact("ext_launch", text)
    print(f"[artifact: {json_path}]")
