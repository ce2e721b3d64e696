"""Tests for the benchmark infrastructure: workloads, harness, report."""

import pytest

from repro.bench.cost import CostCounter, CostModel, DEFAULT_COST_MODEL
from repro.bench.harness import (
    BENCH_PARAMS,
    DEFAULT_OPS_BUDGET,
    RunResult,
    aggregate,
    gamma_cycle_budget,
    run_baseline,
    run_gamma,
)
from repro.bench.reporting import fmt_seconds, render_series, render_table
from repro.bench.workloads import (
    classify_query,
    extract_query,
    holdout_stream,
    holdout_workload,
    make_query_set,
)
from repro.errors import BenchmarkError, BudgetExceeded
from repro.graph import LabeledGraph, load_dataset
from repro.graph.updates import OpKind
from repro.matching import WBMConfig, find_matches, oracle_delta


@pytest.fixture(scope="module")
def gh():
    return load_dataset("GH", scale=0.25)


class TestClassify:
    def test_tree(self):
        q = LabeledGraph.from_edges([0, 0, 0], [(0, 1), (1, 2)])
        assert classify_query(q) == "tree"

    def test_dense(self):
        q = LabeledGraph.from_edges(
            [0] * 4, [(u, v) for u in range(4) for v in range(u + 1, 4)]
        )
        assert classify_query(q) == "dense"

    def test_sparse(self):
        q = LabeledGraph.from_edges([0] * 4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert classify_query(q) == "sparse"


class TestExtractQuery:
    @pytest.mark.parametrize("kind", ["dense", "sparse", "tree"])
    def test_extracted_class(self, gh, kind):
        q = extract_query(gh, 6, kind, seed=3)
        assert q.n_vertices == 6
        assert classify_query(q) == kind

    def test_queries_have_matches(self, gh):
        """Extraction guarantees at least one embedding in the source."""
        for kind in ("dense", "sparse", "tree"):
            q = extract_query(gh, 5, kind, seed=9)
            assert find_matches(q, gh, limit=1)

    def test_deterministic(self, gh):
        a = extract_query(gh, 6, "tree", seed=5)
        b = extract_query(gh, 6, "tree", seed=5)
        assert a == b

    def test_query_set_count(self, gh):
        qs = make_query_set(gh, 4, "tree", count=3, seed=1)
        assert len(qs) == 3

    def test_bad_kind(self, gh):
        with pytest.raises(BenchmarkError):
            extract_query(gh, 6, "cyclic", seed=0)

    def test_too_small(self, gh):
        with pytest.raises(BenchmarkError):
            extract_query(gh, 1, "tree", seed=0)


class TestHoldoutWorkloads:
    def test_insert_roundtrip(self, gh):
        g0, batch = holdout_workload(gh, 0.05, mode="insert", seed=1)
        assert g0.n_edges == gh.n_edges - len(batch)
        g1 = g0.copy()
        from repro.graph.updates import apply_batch

        apply_batch(g1, batch)
        assert g1 == gh

    def test_insert_preserves_edge_labels(self):
        ls = load_dataset("LS", scale=0.15)
        g0, batch = holdout_workload(ls, 0.05, mode="insert", seed=2)
        for op in batch:
            assert op.kind is OpKind.INSERT
            assert ls.edge_label(*op.edge) == op.label

    def test_delete_mode(self, gh):
        g0, batch = holdout_workload(gh, 0.05, mode="delete", seed=3)
        assert g0 == gh
        assert all(op.kind is OpKind.DELETE for op in batch)
        assert all(g0.has_edge(*op.edge) for op in batch)

    def test_mixed_ratio(self, gh):
        g0, batch = holdout_workload(gh, 0.06, mode="mixed", seed=4)
        ins = len(batch.insertions())
        dels = len(batch.deletions())
        assert ins > dels  # 2:1
        assert dels >= 1

    def test_mixed_batch_applies(self, gh):
        from repro.graph.updates import apply_batch

        g0, batch = holdout_workload(gh, 0.06, mode="mixed", seed=5)
        apply_batch(g0, batch)  # must not raise

    def test_core_restriction(self, gh):
        from repro.graph.kcore import core_numbers

        g0, batch = holdout_workload(gh, 0.05, mode="insert", seed=6, core_k=3)
        cores = core_numbers(gh)
        assert all(min(cores[op.u], cores[op.v]) >= 3 for op in batch)

    def test_rate_bounds(self, gh):
        with pytest.raises(BenchmarkError):
            holdout_workload(gh, 0.0)
        with pytest.raises(BenchmarkError):
            holdout_workload(gh, 0.9)

    def test_stream_split(self, gh):
        g0, stream = holdout_stream(gh, 0.05, n_batches=3, seed=7)
        assert len(stream) >= 3 or stream.total_ops() < 3
        total = stream.total_ops()
        _, single = holdout_workload(gh, 0.05, mode="insert", seed=7)
        assert total == len(single)


class TestHarness:
    def test_run_gamma_correct(self, gh):
        q = extract_query(gh, 4, "tree", seed=2)
        g0, batch = holdout_workload(gh, 0.03, mode="insert", seed=8)
        res = run_gamma(q, g0, batch)
        assert res.engine == "GAMMA"
        if res.solved:
            pos, neg = oracle_delta(q, g0, batch)
            assert res.positives == len(pos)
            assert res.negatives == len(neg)

    def test_run_baseline_correct(self, gh):
        q = extract_query(gh, 4, "tree", seed=2)
        g0, batch = holdout_workload(gh, 0.03, mode="insert", seed=8)
        res = run_baseline("RF", q, g0, batch)
        if res.solved:
            pos, neg = oracle_delta(q, g0, batch)
            assert res.positives == len(pos)

    def test_budget_marks_unsolved(self, gh):
        q = extract_query(gh, 6, "sparse", seed=3)
        g0, batch = holdout_workload(gh, 0.08, mode="insert", seed=9)
        res = run_baseline("TF", q, g0, batch, ops_budget=100.0)
        assert not res.solved

    def test_gamma_budget_marks_unsolved(self, gh):
        q = extract_query(gh, 6, "sparse", seed=3)
        g0, batch = holdout_workload(gh, 0.08, mode="insert", seed=9)
        res = run_gamma(q, g0, batch, ops_budget=10.0)
        assert not res.solved

    @pytest.mark.parametrize(
        "cell, solved",
        [
            (("tree", 4, 2, 0.03, 8, DEFAULT_OPS_BUDGET), True),
            (("sparse", 6, 3, 0.08, 9, 2e4), False),
        ],
        ids=["solved", "budget-exhausting"],
    )
    def test_run_gamma_fast_path_equals_oracle(self, gh, cell, solved):
        """A figure cell reports the same numbers on the fast path as on
        the generator oracle, whether it finishes or hits its budget."""
        kind, size, query_seed, rate, seed, ops_budget = cell
        q = extract_query(gh, size, kind, seed=query_seed)
        g0, batch = holdout_workload(gh, rate, mode="insert", seed=seed)
        runs = [
            run_gamma(q, g0, batch, config=config, ops_budget=ops_budget)
            for config in (None, WBMConfig(vectorized=False))
        ]
        assert runs[0].solved == solved
        fields = (
            "solved",
            "model_seconds",
            "kernel_seconds",
            "positives",
            "negatives",
            "utilization",
            "steals",
        )
        fast, oracle = ([getattr(r, f) for f in fields] for r in runs)
        assert fast == oracle

    def test_cycle_budget_translation(self):
        from repro.bench.cost import CYCLES_PER_CPU_OP

        assert gamma_cycle_budget(1000.0) == pytest.approx(1000.0 * CYCLES_PER_CPU_OP)

    def test_aggregate(self):
        rows = [
            RunResult("X", True, 1.0),
            RunResult("X", True, 3.0),
            RunResult("X", False, 99.0),
        ]
        agg = aggregate(rows)
        assert agg.avg_latency == pytest.approx(2.0)
        assert agg.unsolved == 1
        assert "(1)" in agg.cell()

    def test_aggregate_all_unsolved(self):
        agg = aggregate([RunResult("X", False, 0.0)])
        assert agg.cell().startswith("timeout")

    def test_aggregate_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestReporting:
    def test_render_table(self):
        text = render_table("T", ["a", "bb"], [[1, 2], [33, 4]])
        assert "T" in text
        assert "33" in text
        lines = text.splitlines()
        assert len(lines) >= 5

    def test_render_series(self):
        text = render_series("S", "x", [1, 2], {"y": [10, 20], "z": [3, 4]})
        assert "x" in text and "y" in text and "20" in text

    def test_fmt_seconds(self):
        assert fmt_seconds(2.5) == "2.50s"
        assert fmt_seconds(0.0025) == "2.50ms"
        assert fmt_seconds(2.5e-6) == "2.5us"
        assert fmt_seconds(float("inf")) == "timeout"


class TestCostModel:
    def test_counter_budget(self):
        c = CostCounter(budget=10)
        c.charge(5)
        with pytest.raises(BudgetExceeded):
            c.charge(6)

    def test_counter_categories(self):
        c = CostCounter()
        c.charge(3, "scan")
        c.charge(2, "scan")
        assert c.categories["scan"] == 5

    def test_seconds_conversion(self):
        model = CostModel(cpu_op_seconds=1e-6)
        c = CostCounter()
        c.charge(1000)
        assert c.seconds(model) == pytest.approx(1e-3)

    def test_reset(self):
        c = CostCounter()
        c.charge(5, "x")
        c.reset()
        assert c.ops == 0
        assert not c.categories
