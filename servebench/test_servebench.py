"""Tests of the benchmark's own helpers::

    python3 -m pytest servebench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import workloads
from probe import NOMINAL_S, HostProbe, ProbedClock, normalize
from repro import LabeledGraph, MatchingService
from repro.bench.harness import BENCH_PARAMS
from repro.service import ShardedMatchingService, ShardPolicy
from repro.bench.workloads import holdout_stream
from repro.graph import load_dataset
from repro.graph.updates import apply_batch
from spans import SPANS, LayerTracer

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _labeled_graph() -> LabeledGraph:
    """A small graph whose edges carry distinct labels, so a restored
    edge with the wrong label would show."""
    g = load_dataset("LJ", scale=0.05)
    out = LabeledGraph(list(g.vertex_labels))
    for i, (u, v) in enumerate(g.edges()):
        out.add_edge(u, v, 1 + i % 3)
    return out


def test_cycle_restores_start_graph_with_labels_under_strict_apply():
    g = _labeled_graph()
    start, stream = holdout_stream(g, 0.2, n_batches=2, mode="mixed", seed=5)
    cycle = workloads.make_cycle(start, list(stream))
    assert len(cycle) == 4
    state = start.copy()
    for batch in cycle:
        apply_batch(state, batch, strict=True)  # raises on any invalid op
    assert set(state.labeled_edges()) == set(start.labeled_edges())
    # the inverses really re-insert labeled edges
    relabeled = {op.label for batch in cycle[2:] for op in batch.insertions()}
    assert relabeled - {0}


def test_hub_cycle_restores_start_graph():
    w = workloads.build("hub_heavy", seed=3)
    state = w.graph.copy()
    for batch in w.cycle:
        apply_batch(state, batch, strict=True)
    assert set(state.labeled_edges()) == set(w.graph.labeled_edges())
    assert len(w.cycle[0]) == 32 and not w.cycle[0].deletions()


def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(x) for x in range(40, 0, -1)]
    value, pct = run.tail(values)
    assert value == 30.0  # 31..40 lie beyond it
    assert pct == 75.0
    assert sum(v > value for v in values) == 10
    with pytest.raises(ValueError):
        run.tail(values[:19])


def test_constant_speed_host_maps_to_raw_time():
    assert normalize(0.25, NOMINAL_S, NOMINAL_S) == pytest.approx(0.25)
    # twice as slow on both sides halves the interval
    assert normalize(0.5, 2 * NOMINAL_S, 2 * NOMINAL_S) == pytest.approx(0.25)

    class ConstantProbe(HostProbe):
        def measure(self) -> float:
            return NOMINAL_S

    clock = ProbedClock(ConstantProbe())
    out, raw, norm = clock.time(sum, range(1000))
    assert out == sum(range(1000))
    assert norm == pytest.approx(raw)


def test_traced_self_times_sum_to_batch_wall():
    g = load_dataset("LJ", scale=0.1)
    start, stream = holdout_stream(g, 0.1, n_batches=2, mode="mixed", seed=2)
    service = MatchingService(start, params=BENCH_PARAMS)
    for i, q in enumerate(workloads.select_queries(g, count=4)):
        service.register_query(q, name=f"q{i}")
    originals = [getattr(owner, attr) for owner, attr, _ in SPANS]
    tracer = LayerTracer()
    clock = ProbedClock(HostProbe())
    for batch in stream:
        with tracer:
            _, wall, _ = clock.time(service.process_batch, batch)
        layers = tracer.take()
        assert {"service.self_ms", "store.commit_self_ms", "gpu.exec_ms"} <= set(layers)
        assert sum(layers.values()) == pytest.approx(wall, rel=0.02)
    assert [getattr(owner, attr) for owner, attr, _ in SPANS] == originals


def test_stop_children_leaves_no_process_behind():
    g = load_dataset("LJ", scale=0.05)
    service = ShardedMatchingService(g, params=BENCH_PARAMS, shard_policy=ShardPolicy(n_workers=2))
    service.close()
    # publishing the snapshot started the resource tracker, which
    # outlives a plain close
    assert run._child_pids()
    run.stop_children()
    assert run._child_pids() == []


def test_traced_run_reports_every_per_layer_metric():
    result, diag = run.run_workload("hub_heavy", run.DEFAULT_SEED, 1.0, traced=True)
    assert result["correct"], diag
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.coverage_pct"]["value"] == pytest.approx(100.0, abs=2.0)
