"""Extension: launch-wide fused Gen-Candidates (ISSUE 6).

Times the warp-kernel execution path after the fused candidate
generation rewrite — when the scheduler steps a DFS level, pending
frames of sibling ``LevelCursor`` tasks targeting the same query vertex
batch through one ``_level_children_multi`` pass (one concatenated
gather + one segmented ``searchsorted`` over the union of their
children), self-anchored children of one frame batch through one
``_fused_self_anchor`` pass, and large anchors hit the per-launch
hub-slice cache — against the PR-5 level-stepped path and the
generator oracle, on two schedules:

* **LJ serving** — the standing kernel workload (10%-of-|E| mixed
  batches over the scaled LiveJournal sample, selective 6-vertex
  queries). Frames here are small and sibling alignment is rare, so
  fusion is a modest win: most of the launch wall is scheduler/idle
  machinery both arms share.
* **hub-heavy** — ``repro.bench.workloads.hub_schedule``: a bipartite
  hub/leaf graph whose insert batch concentrates sibling warp tasks on
  a few shared hub anchors, with a 5-cycle query (zero matches on a
  bipartite host), so the launch is almost pure Gen-Candidates. This
  is the fused path's target shape and where its acceptance bar
  (≥ 1.5x vs the level-stepped arm) is demonstrated.

Arms (per schedule):

* **oracle** — ``vectorized=False``: the scalar generator stack, the
  correctness oracle every modeled number is pinned to;
* **level** — the PR-5 form: level-stepped array cursors with
  ``fused_gen=False`` (per-frame generation, no cross-task batching,
  no hub-slice cache);
* **fused** — ``fused_gen=True`` (the default): launch-wide fused
  generation + per-launch hub-slice cache.

``KernelStats`` and matches are asserted byte-identical across all
arms per batch per query — fusion must not move a single modeled
cycle. Writes the table to ``benchmarks/out`` and the machine-readable
``benchmarks/out/BENCH_fused_candidates.json`` (CI smoke asserts the
harness stays runnable and emits valid JSON).

Knobs: ``REPRO_BENCH_SCALE`` (default 1.0), ``REPRO_BENCH_FUSED_BATCHES``
(default 2), ``REPRO_BENCH_FUSED_QUERIES`` (default 4).
"""

import dataclasses
import json
import os
import time

from common import DEFAULT_QUERY_SIZE, queries_for

from repro.bench.harness import BENCH_PARAMS
from repro.bench.reporting import ARTIFACT_DIR, render_table, save_artifact
from repro.bench.workloads import holdout_stream, hub_schedule
from repro.graph import load_dataset
from repro.matching import WBMConfig, find_matches
from repro.service import MatchingService

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
N_BATCHES = int(os.environ.get("REPRO_BENCH_FUSED_BATCHES", "2"))
N_QUERIES = int(os.environ.get("REPRO_BENCH_FUSED_QUERIES", "4"))
BATCH_RATE = 0.10  # the paper's default batch size (10% of |E|) per batch
MAX_STATIC_MATCHES = 200  # serving queries are selective by design

ARMS = {
    # arm -> (config.vectorized, config.level_step, config.fused_gen)
    "oracle": (False, False, False),
    "level": (True, True, False),
    "fused": (True, True, True),
}


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


def run_arm(g0, batches, queries, arm: str, repeats: int = 3):
    """One full serving run per repeat; keeps the fastest walls and the
    (identical) per-batch stats."""
    vectorized, level_step, fused_gen = ARMS[arm]
    best = None
    for _ in range(repeats):
        service = MatchingService(g0, params=BENCH_PARAMS, vectorized=vectorized)
        for i, q in enumerate(queries):
            config = WBMConfig(
                vectorized=vectorized, level_step=level_step, fused_gen=fused_gen
            )
            service.register_query(q, config, name=f"q{i}", bootstrap=False)
        t0 = time.perf_counter()
        reports = [service.process_batch(b) for b in batches]
        wall = time.perf_counter() - t0
        run = {
            "wall": wall,
            "launch_wall": sum(
                service.runtime(n).gpu.launch_wall_seconds for n in service.query_names
            ),
            "stats": [
                {
                    name: dataclasses.asdict(qr.result.kernel_stats)
                    for name, qr in rep.queries.items()
                }
                for rep in reports
            ],
            "matches": [(rep.total_positives, rep.total_negatives) for rep in reports],
        }
        if best is None or run["launch_wall"] < best["launch_wall"]:
            best = run
    return best


def run_schedule(name, g0, batches, queries):
    """All three arms over one schedule; identity asserted against the
    oracle, speedups keyed on the fused arm."""
    runs = {
        arm: run_arm(g0, batches, queries, arm, repeats=1 if arm == "oracle" else 5)
        for arm in ARMS
    }
    for arm in ("level", "fused"):
        assert runs[arm]["stats"] == runs["oracle"]["stats"], (
            f"stats diverged: {name}/{arm}"
        )
        assert runs[arm]["matches"] == runs["oracle"]["matches"], (
            f"matches diverged: {name}/{arm}"
        )
    return {
        "runs": runs,
        "speedup_vs_level": runs["level"]["launch_wall"]
        / max(runs["fused"]["launch_wall"], 1e-12),
        "speedup_vs_oracle": runs["oracle"]["launch_wall"]
        / max(runs["fused"]["launch_wall"], 1e-12),
    }


def run_experiment():
    # --- schedule 1: LJ serving --------------------------------------
    graph = load_dataset("LJ", scale=SCALE)
    g0, stream = holdout_stream(
        graph, BATCH_RATE * N_BATCHES, n_batches=N_BATCHES, mode="mixed", seed=11
    )
    lj_batches = list(stream)
    lj_queries = collect_queries(g0, N_QUERIES)
    lj = run_schedule("lj_serving", g0, lj_batches, lj_queries)

    # --- schedule 2: hub-heavy ---------------------------------------
    n_leaves = max(36, int(420 * SCALE))
    hg, hb, hq = hub_schedule(n_leaves=n_leaves)
    hub = run_schedule("hub_heavy", hg, [hb], [hq])

    def ms(sched, arm, key="launch_wall"):
        return f"{sched['runs'][arm][key]*1e3:.1f}ms"

    rows = [
        ["LJ serving: kernel execution", ms(lj, "oracle"), ms(lj, "level"),
         ms(lj, "fused"), f"{lj['speedup_vs_level']:.2f}x"],
        ["LJ serving: end-to-end", ms(lj, "oracle", "wall"), ms(lj, "level", "wall"),
         ms(lj, "fused", "wall"), ""],
        ["hub-heavy: kernel execution", ms(hub, "oracle"), ms(hub, "level"),
         ms(hub, "fused"), f"{hub['speedup_vs_level']:.2f}x"],
        ["hub-heavy: end-to-end", ms(hub, "oracle", "wall"), ms(hub, "level", "wall"),
         ms(hub, "fused", "wall"), ""],
        ["fused vs generator oracle (LJ / hub)",
         "", "", "", f"{lj['speedup_vs_oracle']:.2f}x / {hub['speedup_vs_oracle']:.2f}x"],
    ]
    text = render_table(
        f"Extension: launch-wide fused Gen-Candidates "
        f"(LJ scale={SCALE}, {N_BATCHES} batches of {BATCH_RATE:.0%} |E|, "
        f"{len(lj_queries)} queries; hub schedule {hg.n_vertices}V/{hg.n_edges}E; "
        f"stats byte-identical across all arms)",
        ["metric", "generator oracle", "level-stepped (PR 5)", "fused", "fused vs level"],
        rows,
    )

    payload = {
        "schedules": {
            "lj_serving": {
                "dataset": "LJ",
                "scale": SCALE,
                "n_vertices": g0.n_vertices,
                "n_edges": g0.n_edges,
                "n_batches": N_BATCHES,
                "rate_per_batch": BATCH_RATE,
                "n_queries": len(lj_queries),
                "oracle_s": lj["runs"]["oracle"]["launch_wall"],
                "level_stepped_s": lj["runs"]["level"]["launch_wall"],
                "fused_s": lj["runs"]["fused"]["launch_wall"],
                "speedup_vs_level": lj["speedup_vs_level"],
                "speedup_vs_oracle": lj["speedup_vs_oracle"],
            },
            "hub_heavy": {
                "n_vertices": hg.n_vertices,
                "n_edges": hg.n_edges,
                "n_inserts": len(hb.ops),
                "oracle_s": hub["runs"]["oracle"]["launch_wall"],
                "level_stepped_s": hub["runs"]["level"]["launch_wall"],
                "fused_s": hub["runs"]["fused"]["launch_wall"],
                "speedup_vs_level": hub["speedup_vs_level"],
                "speedup_vs_oracle": hub["speedup_vs_oracle"],
            },
        },
        "stats_byte_identical": True,
        "matches_identical": True,
    }
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    json_path = ARTIFACT_DIR / "BENCH_fused_candidates.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
    return text, json_path


if __name__ == "__main__":
    text, json_path = run_experiment()
    save_artifact("ext_fused_candidates", text)
    print(f"[artifact: {json_path}]")
