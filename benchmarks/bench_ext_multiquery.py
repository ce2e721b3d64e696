"""Extension: multi-query serving via the shared dynamic-graph store.

N registered queries on one MatchingService share a single
DynamicGraphStore — each update batch is net-differenced, applied to
the GPMA, re-encoded and uploaded exactly once — versus N independent
GammaSystems, which each copy the data graph and replay every batch
through a private store. Reports model seconds (the pipeline
makespan) for N ∈ {1, 4, 16} and the shared-store speedup, and asserts
that both arms report the same positives. Host wall clock is measured
only by ``servebench/``.

At N = 1 the service pays a small generality tax (its encoding table
spans the data graph's full label alphabet, not one query's); the
shared store amortizes that within a handful of registrations and wins
multiples at N = 16.
"""

from common import DEFAULT_QUERY_SIZE, queries_for

from repro.bench.harness import BENCH_PARAMS
from repro.bench.reporting import fmt_seconds, render_table, save_artifact
from repro.bench.workloads import holdout_stream
from repro.graph import load_dataset
from repro.pipeline import GammaSystem
from repro.service import MatchingService

N_VALUES = (1, 4, 16)
# a serving-shaped workload: a large resident graph absorbing many
# small batches — the regime where replaying every update through N
# private stores (instead of once) is pure overhead
N_BATCHES = 8
RATE = 0.002
GRAPH_SCALE = 1.0


MAX_STATIC_MATCHES = 300  # serving queries are selective by design


def collect_queries(graph, count):
    from repro.matching import find_matches

    out = []
    for seed in range(29, 29 + 12 * 100, 100):
        for kind in ("dense", "sparse", "tree"):
            for q in queries_for(graph, DEFAULT_QUERY_SIZE, kind, count=4, seed=seed):
                if len(find_matches(q, graph, limit=MAX_STATIC_MATCHES)) < MAX_STATIC_MATCHES:
                    out.append(q)
                if len(out) >= count:
                    return out[:count]
    raise RuntimeError(f"could not extract {count} selective queries")


def run_service(graph, queries, rate, seed):
    g0, stream = holdout_stream(graph, rate, n_batches=N_BATCHES, seed=seed)
    service = MatchingService(g0, params=BENCH_PARAMS)
    for i, q in enumerate(queries):
        service.register_query(q, name=f"q{i}", bootstrap=False)
    reports, pipeline = service.process_stream(stream)
    assert service.store.gpma.update_count == len(stream)  # one apply per batch
    return pipeline.makespan, sum(r.total_positives for r in reports)


def run_independent(graph, queries, rate, seed):
    g0, stream = holdout_stream(graph, rate, n_batches=N_BATCHES, seed=seed)
    model = 0.0
    n_pos = 0
    for q in queries:
        system = GammaSystem(q, g0, BENCH_PARAMS)
        reports, pipeline = system.process_stream(stream)
        model += pipeline.makespan
        n_pos += sum(len(r.result.positives) for r in reports)
    return model, n_pos


def run_experiment() -> str:
    graph = load_dataset("LJ", scale=GRAPH_SCALE)
    queries = collect_queries(graph, max(N_VALUES))
    rows = []
    for n in N_VALUES:
        qs = queries[:n]
        model_s, pos_s = run_service(graph, qs, RATE, seed=211)
        model_i, pos_i = run_independent(graph, qs, RATE, seed=211)
        assert pos_s == pos_i, "service and independent systems disagree"
        rows.append(
            [
                n,
                fmt_seconds(model_i),
                fmt_seconds(model_s),
                f"{model_i / max(model_s, 1e-12):.2f}x",
            ]
        )
    return render_table(
        f"Extension: N queries, shared store vs independent systems "
        f"(LJ x{GRAPH_SCALE:g}, {100 * RATE:g}% over {N_BATCHES} batches)",
        ["N", "model indep", "model shared", "model speedup"],
        rows,
    )


def test_ext_multiquery(benchmark):
    text = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    save_artifact("ext_multiquery", text)
    assert "model speedup" in text and "wall" not in text
