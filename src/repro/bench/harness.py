"""Experiment harness: runs engines on workloads under a shared budget
and aggregates the paper's metrics (average query latency in model
seconds, unsolved counts, GPU utilization)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from statistics import mean

from repro.baselines import BASELINES
from repro.bench.cost import CYCLES_PER_CPU_OP, CostCounter, CostModel, DEFAULT_COST_MODEL
from repro.bench.workloads import classify_query
from repro.errors import BudgetExceeded
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.updates import UpdateBatch
from repro.gpu.params import DeviceParams
from repro.matching.wbm import WBMConfig
from repro.pipeline.gamma import GammaSystem

#: default per-query operation budget — the analogue of the paper's
#: 30-minute timeout, sized so the pure-Python harness stays fast
DEFAULT_OPS_BUDGET = 1_000_000.0

#: device configuration for benchmarks (paper: RTX 3090, 83 SMs; a
#: fraction of that keeps the simulation quick while preserving shape)
BENCH_PARAMS = DeviceParams(num_sms=16, warps_per_block=8)


@dataclass
class RunResult:
    """Outcome of one engine on one (query, batch) pair."""

    engine: str
    solved: bool
    model_seconds: float
    kernel_seconds: float = 0.0  # BDSM-kernel share (ablation benches)
    positives: int = 0
    negatives: int = 0
    utilization: float | None = None
    steals: int = 0
    wall_seconds: float = 0.0
    query_kind: str = ""


def gamma_cycle_budget(ops_budget: float = DEFAULT_OPS_BUDGET) -> float:
    """Translate the CPU op budget into an equal-*work* busy-cycle
    allowance (see :data:`repro.bench.cost.CYCLES_PER_CPU_OP`), so the
    timeout grants every engine the same abstract amount of search."""
    return ops_budget * CYCLES_PER_CPU_OP


def run_gamma(
    query: LabeledGraph,
    g0: LabeledGraph,
    batch: UpdateBatch,
    params: DeviceParams = BENCH_PARAMS,
    config: WBMConfig | None = None,
    model: CostModel = DEFAULT_COST_MODEL,
    ops_budget: float = DEFAULT_OPS_BUDGET,
) -> RunResult:
    """One GAMMA run through the full pipeline."""
    if config is None:
        config = WBMConfig()
    config = replace(config, cycle_budget=gamma_cycle_budget(ops_budget))
    system = GammaSystem(query, g0, params, config, model)
    t0 = time.perf_counter()
    report = system.process_batch(batch)
    wall = time.perf_counter() - t0
    res = report.result
    return RunResult(
        engine="GAMMA",
        solved=not res.aborted,
        model_seconds=report.total_seconds,
        kernel_seconds=report.kernel_seconds,
        positives=len(res.positives),
        negatives=len(res.negatives),
        utilization=res.kernel_stats.utilization,
        steals=res.kernel_stats.steals,
        wall_seconds=wall,
        query_kind=classify_query(query),
    )


def run_baseline(
    name: str,
    query: LabeledGraph,
    g0: LabeledGraph,
    batch: UpdateBatch,
    model: CostModel = DEFAULT_COST_MODEL,
    ops_budget: float = DEFAULT_OPS_BUDGET,
) -> RunResult:
    """One CPU baseline run (sequential CSM over the batch).

    Index construction happens before the measured window, matching the
    paper's methodology of timing query processing, not offline setup.
    """
    cls = BASELINES[name]
    cost = CostCounter()
    engine = cls(query, g0, cost)
    cost.reset()
    cost.budget = ops_budget
    t0 = time.perf_counter()
    solved = True
    positives: set = set()
    negatives: set = set()
    try:
        positives, negatives = engine.process_batch(batch)
    except BudgetExceeded:
        solved = False
    wall = time.perf_counter() - t0
    return RunResult(
        engine=name,
        solved=solved,
        model_seconds=cost.seconds(model),
        positives=len(positives),
        negatives=len(negatives),
        wall_seconds=wall,
        query_kind=classify_query(query),
    )


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------
@dataclass
class Aggregate:
    """Per-(engine, cell) summary mirroring Table III's entries."""

    engine: str
    n_queries: int
    unsolved: int
    avg_latency: float  # over solved queries only (paper's convention)
    avg_utilization: float | None = None
    results: list[RunResult] = field(default_factory=list)

    def cell(self) -> str:
        """Render like the paper: latency with (unsolved) suffix."""
        if self.n_queries == self.unsolved:
            return f"timeout({self.unsolved})"
        text = f"{self.avg_latency:.4g}"
        if self.unsolved:
            text += f"({self.unsolved})"
        return text


def aggregate(results: list[RunResult]) -> Aggregate:
    if not results:
        raise ValueError("no results to aggregate")
    solved = [r for r in results if r.solved]
    utils = [r.utilization for r in solved if r.utilization is not None]
    return Aggregate(
        engine=results[0].engine,
        n_queries=len(results),
        unsolved=sum(1 for r in results if not r.solved),
        avg_latency=mean(r.model_seconds for r in solved) if solved else float("inf"),
        avg_utilization=mean(utils) if utils else None,
        results=list(results),
    )
