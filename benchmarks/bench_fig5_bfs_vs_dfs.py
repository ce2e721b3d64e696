"""Figure 5: BFS vs DFS in a GPU environment.

(a) device-memory usage over the expansion: BFS's frontier
materialization races toward exhaustion while WBM's DFS stacks stay
flat; (b) time breakdown: once BFS spills, host↔device communication
(Comm) dominates computation (Comp) several times over — DFS pays no
Comm at all. Dense queries fit in memory (both kernels compute-bound);
the sparser the query, the harder BFS hits the wall — the reason §IV-C
picks DFS.
"""

from common import bench_dataset, queries_for, DEFAULT_QUERY_SIZE

from repro.bench.harness import BENCH_PARAMS
from repro.bench.reporting import fmt_seconds, render_series, render_table, save_artifact
from repro.bench.workloads import holdout_workload
from repro.matching import BFSEngine
from repro.pipeline import GammaSystem

# a small device exposes the BFS memory wall without gigantic frontiers
SMALL_DEVICE = BENCH_PARAMS.with_overrides(device_memory_words=20_000)

# per-class insertion rates keep the pure-Python BFS frontier tractable
# while still exceeding device memory for sparse/tree
RATES = {"dense": 0.10, "sparse": 0.04, "tree": 0.02}


def run_experiment() -> str:
    graph = bench_dataset("GH")
    parts = []
    breakdown_rows = []
    for kind in ("dense", "sparse", "tree"):
        queries = queries_for(graph, DEFAULT_QUERY_SIZE, kind)
        if not queries:
            continue
        query = queries[0]
        g0, batch = holdout_workload(graph, RATES[kind], mode="insert", seed=5)

        bfs = BFSEngine(query, g0, SMALL_DEVICE)
        bres = bfs.process_batch(batch)

        wbm = GammaSystem(query, g0, SMALL_DEVICE)
        wres = wbm.process_batch(batch).result
        dfs_peak_frac = max(wres.kernel_stats.peak_device_words, 1) / (
            SMALL_DEVICE.device_memory_words
        )
        # DFS stack gauge (per-warp candidate arrays)
        dfs_stack_frac = max(
            dfs_peak_frac,
            getattr(wres, "peak_stack_words", 0) / SMALL_DEVICE.device_memory_words,
        )

        xs = list(range(len(bres.memory_timeline)))
        series = {
            "BFS mem%": [f"{frac * 100:.1f}" for _, _, frac in bres.memory_timeline],
            "DFS mem%": [f"{min(dfs_stack_frac, 1.0) * 100:.2f}"] * len(xs),
        }
        parts.append(
            render_series(
                f"Figure 5a ({kind}, Ir={RATES[kind]:.0%}): device memory over expansion",
                "level",
                xs,
                series,
            )
        )
        clock = SMALL_DEVICE.clock_hz
        breakdown_rows.append(
            [
                kind,
                fmt_seconds(bres.comm_cycles / clock),
                fmt_seconds(bres.comp_cycles / clock),
                bres.spill_events,
                f"{bres.comm_cycles / max(bres.comp_cycles, 1):.1f}x",
                fmt_seconds(0.0),
                fmt_seconds(wres.kernel_stats.kernel_cycles / clock),
            ]
        )
    parts.append(
        render_table(
            "Figure 5b: time breakdown (Comm vs Comp)",
            ["queries", "BFS Comm", "BFS Comp", "spills", "Comm/Comp", "DFS Comm", "DFS Comp"],
            breakdown_rows,
        )
    )
    return "\n".join(parts)


def test_fig5_bfs_vs_dfs(benchmark):
    text = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    save_artifact("fig5_bfs_vs_dfs", text)
    assert "BFS" in text
