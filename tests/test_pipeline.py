"""Tests for the async pipeline model, postprocess sinks, and the
GammaSystem facade."""

import random

import pytest

from repro.errors import MatchingError, QueryQuarantinedError, ServiceError
from repro.graph import LabeledGraph
from repro.graph.generators import attach_labels, power_law_graph
from repro.graph.updates import UpdateStream, make_batch
from repro.gpu import DeviceParams
from repro.matching import oracle_delta
from repro.matching.launch_env import BatchResult
from repro.pipeline import GammaSystem, MatchCollector, PipelineModel
from repro.pipeline.gamma import GAMMA_STAGES
from repro.pipeline.postprocess import ThroughputMeter
from repro.testing import FaultPlan, FaultSpec

PARAMS = DeviceParams(num_sms=2, warps_per_block=4)
PAPER_Q = LabeledGraph.from_edges([0, 1, 1, 2], [(0, 1), (0, 2), (1, 2), (1, 3)])


def small_case(seed=0):
    g = attach_labels(power_law_graph(20, 3.2, seed=seed), 3, 1, seed=seed + 77)
    rng = random.Random(seed)
    non = [(u, v) for u in range(20) for v in range(u + 1, 20) if not g.has_edge(u, v)]
    rng.shuffle(non)
    return g, make_batch([("+", u, v) for u, v in non[:5]])


class TestPipelineModel:
    def test_single_batch_serial(self):
        model = PipelineModel([("a", "cpu"), ("b", "gpu")])
        report = model.schedule([{"a": 2.0, "b": 3.0}])
        assert report.makespan == pytest.approx(5.0)
        assert report.serial_total == pytest.approx(5.0)
        assert report.overlap_speedup == pytest.approx(1.0)

    def test_two_batches_overlap(self):
        """CPU stage of batch 1 overlaps GPU stage of batch 0."""
        model = PipelineModel([("pre", "cpu"), ("kernel", "gpu")])
        report = model.schedule([{"pre": 1.0, "kernel": 4.0}] * 2)
        # serial = 10; pipelined: pre0 [0,1], k0 [1,5], pre1 [1,2], k1 [5,9]
        assert report.makespan == pytest.approx(9.0)
        assert report.overlap_speedup > 1.1

    def test_resource_exclusivity(self):
        """Two stages on one resource never overlap."""
        model = PipelineModel([("a", "cpu"), ("b", "cpu")])
        report = model.schedule([{"a": 1.0, "b": 1.0}] * 3)
        assert report.makespan == pytest.approx(6.0)

    def test_steady_state_gpu_bound(self):
        """With a dominant GPU stage, makespan ≈ sum of GPU times."""
        model = PipelineModel(GAMMA_STAGES)
        durations = [
            {"preprocess": 0.1, "transfer": 0.05, "update": 0.1, "kernel": 1.0, "postprocess": 0.1}
        ] * 5
        report = model.schedule(durations)
        gpu_total = 5 * 1.1
        assert report.makespan < report.serial_total
        assert report.makespan == pytest.approx(gpu_total, rel=0.3)

    def test_schedule_respects_stage_order(self):
        model = PipelineModel([("a", "cpu"), ("b", "gpu"), ("c", "cpu")])
        report = model.schedule([{"a": 1, "b": 1, "c": 1}] * 2)
        times = {(i, s): (st, en) for i, s, st, en in report.schedule}
        for i in range(2):
            assert times[(i, "a")][1] <= times[(i, "b")][0]
            assert times[(i, "b")][1] <= times[(i, "c")][0]

    def test_empty_stream(self):
        report = PipelineModel(GAMMA_STAGES).schedule([])
        assert report.makespan == 0.0


class TestPipelineEdgeCases:
    """Overlap-scheduling corners: empty stage lists, single stage,
    zero-duration stages, per-batch stage overrides."""

    def test_empty_stage_list_model(self):
        report = PipelineModel([]).schedule([{}, {}])
        assert report.makespan == 0.0
        assert report.serial_total == 0.0
        assert report.schedule == []
        assert report.overlap_speedup == 1.0

    def test_empty_per_batch_stage_lists(self):
        model = PipelineModel([("a", "cpu")])
        report = model.schedule(
            [{"a": 5.0}, {"a": 5.0}], batch_stages=[[], []]
        )
        # the override removes every stage: nothing runs, nothing costs
        assert report.makespan == 0.0
        assert report.per_resource_busy == {}

    def test_single_stage_is_fifo_serial(self):
        model = PipelineModel([("k", "gpu")])
        report = model.schedule([{"k": d} for d in (2.0, 1.0, 3.0)])
        assert report.makespan == pytest.approx(6.0)
        starts = [st for _, _, st, _ in sorted(report.schedule)]
        assert starts == [0.0, 2.0, 3.0]  # FIFO per resource, batch order

    def test_zero_duration_stages(self):
        model = PipelineModel([("a", "cpu"), ("b", "gpu"), ("c", "cpu")])
        report = model.schedule([{"a": 0.0, "b": 0.0, "c": 0.0}] * 3)
        assert report.makespan == 0.0
        assert report.overlap_speedup == 1.0  # guarded division
        assert len(report.schedule) == 9  # every instance still scheduled

    def test_zero_duration_stage_does_not_block(self):
        """A zero-cost middle stage must not delay its successor."""
        model = PipelineModel([("a", "cpu"), ("b", "pcie"), ("c", "gpu")])
        report = model.schedule([{"a": 1.0, "b": 0.0, "c": 2.0}] * 2)
        times = {(i, s): (st, en) for i, s, st, en in report.schedule}
        assert times[(0, "b")] == (1.0, 1.0)
        assert times[(0, "c")][0] == 1.0
        assert report.makespan == pytest.approx(5.0)

    def test_missing_stage_durations_count_zero(self):
        model = PipelineModel([("a", "cpu"), ("b", "gpu")])
        report = model.schedule([{"b": 2.0}])  # "a" missing -> 0
        assert report.makespan == pytest.approx(2.0)
        assert report.per_stage_total["a"] == 0.0

    def test_batch_stages_length_mismatch_raises(self):
        model = PipelineModel([("a", "cpu")])
        with pytest.raises(ValueError):
            model.schedule([{"a": 1.0}] * 2, batch_stages=[[("a", "cpu")]])

    def test_heterogeneous_per_batch_stages(self):
        """Batches may carry different stage lists (queries registering
        mid-stream); resources stay exclusive across the mix."""
        model = PipelineModel([("a", "cpu")])
        report = model.schedule(
            [{"a": 1.0}, {"a": 1.0, "k": 2.0}],
            batch_stages=[[("a", "cpu")], [("a", "cpu"), ("k", "gpu")]],
        )
        # ties go to the earlier batch: a0 [0,1], a1 [1,2], k1 [2,4]
        assert report.makespan == pytest.approx(4.0)
        assert report.per_resource_busy == {"cpu": 2.0, "gpu": 2.0}


class TestForkJoinGroups:
    """Parallel stage groups (the sharded tier's per-shard kernels)."""

    def test_group_overlaps_distinct_resources(self):
        model = PipelineModel([("pre", "cpu")])
        report = model.schedule(
            [{"pre": 1.0, "k0": 4.0, "k1": 3.0, "post": 1.0}],
            batch_stages=[
                [("pre", "cpu"), [("k0", "gpu:0"), ("k1", "gpu:1")], ("post", "cpu")]
            ],
        )
        times = {(i, s): (st, en) for i, s, st, en in report.schedule}
        # both kernels start at the barrier, post waits for the slower
        assert times[(0, "k0")] == (1.0, 5.0)
        assert times[(0, "k1")] == (1.0, 4.0)
        assert times[(0, "post")][0] == 5.0
        assert report.makespan == pytest.approx(6.0)

    def test_group_members_on_one_resource_serialize(self):
        """A group never violates resource exclusivity — same-resource
        members are a plain FIFO chain, identical to ungrouped stages."""
        model = PipelineModel([("pre", "cpu")])
        grouped = model.schedule(
            [{"k0": 2.0, "k1": 3.0}],
            batch_stages=[[[("k0", "gpu"), ("k1", "gpu")]]],
        )
        flat = model.schedule(
            [{"k0": 2.0, "k1": 3.0}],
            batch_stages=[[("k0", "gpu"), ("k1", "gpu")]],
        )
        assert grouped.makespan == pytest.approx(flat.makespan) == pytest.approx(5.0)
        assert grouped.per_resource_busy == flat.per_resource_busy

    def test_singleton_groups_match_flat_schedule(self):
        """Wrapping every stage in its own group is a no-op — the flat
        path's chain semantics are the singleton-group special case."""
        durations = [{"a": 1.0, "b": 4.0, "c": 2.0}] * 3
        flat_stages = [("a", "cpu"), ("b", "gpu"), ("c", "cpu")]
        flat = PipelineModel(flat_stages).schedule(durations)
        grouped = PipelineModel(flat_stages).schedule(
            durations, batch_stages=[[[s] for s in flat_stages]] * 3
        )
        assert grouped.schedule == flat.schedule
        assert grouped.makespan == flat.makespan

    def test_groups_pipeline_across_batches(self):
        """Sharded steady state: batch i+1's kernels overlap batch i's
        postprocess, and within a batch the shards overlap each other."""
        stages = [
            ("pre", "cpu"),
            [("k0", "gpu:0"), ("k1", "gpu:1")],
            ("post", "cpu"),
        ]
        report = PipelineModel([("pre", "cpu")]).schedule(
            [{"pre": 0.5, "k0": 2.0, "k1": 2.0, "post": 0.5}] * 4,
            batch_stages=[stages] * 4,
        )
        # each gpu is busy 8.0 in total and they run concurrently:
        # makespan is bounded by one gpu's serial chain plus edges,
        # far below the 20.0 serial total
        assert report.serial_total == pytest.approx(20.0)
        assert report.makespan < 10.0
        assert report.per_resource_busy["gpu:0"] == pytest.approx(8.0)
        assert report.per_resource_busy["gpu:1"] == pytest.approx(8.0)


class TestMatchCollector:
    def test_positive_then_negative_cancels(self):
        c = MatchCollector()
        r1 = BatchResult(positives={(0, 1)})
        r2 = BatchResult(negatives={(0, 1)})
        c.consume(r1)
        assert c.live_matches() == {(0, 1)}
        c.consume(r2)
        assert c.live_matches() == set()
        assert c.net_change() == 0

    def test_detects_inconsistent_stream(self):
        c = MatchCollector()
        c.consume(BatchResult(positives={(0, 1)}))
        with pytest.raises(MatchingError):
            c.consume(BatchResult(positives={(0, 1)}))  # duplicate birth

    def test_history_stays_bounded(self):
        """Matches born and killed again leave no entry behind, so a
        batch never rescans them; a double birth still raises."""
        c = MatchCollector()
        c.consume(BatchResult(positives={(9, 9)}))
        for i in range(500):
            c.consume(BatchResult(positives={(i, i + 1), (i, i + 2)}))
            c.consume(BatchResult(negatives={(i, i + 1), (i, i + 2)}))
            assert len(c._live) + len(c._dead) == 1
        assert c.live_matches() == {(9, 9)} and c.net_change() == 1
        with pytest.raises(MatchingError):
            c.consume(BatchResult(positives={(9, 9)}))

    def test_counters(self):
        c = MatchCollector()
        c.consume(BatchResult(positives={(0, 1), (1, 2)}, negatives={(3, 4)}))
        assert c.total_positives == 2
        assert c.total_negatives == 1
        assert c.batches == 1


class TestPostprocessDedupOrdering:
    """Postprocess sink semantics: signed dedup across batches and the
    deterministic record ordering consumers rely on."""

    def test_death_then_rebirth_nets_to_alive(self):
        c = MatchCollector()
        c.consume(BatchResult(negatives={(2, 3)}))  # initial-state death
        assert c.dead_matches() == {(2, 3)}
        c.consume(BatchResult(positives={(2, 3)}))  # reborn
        assert c.dead_matches() == set()
        assert c.live_matches() == set()  # back to initial state, not new
        assert c.net_change() == 0

    def test_double_death_raises(self):
        c = MatchCollector()
        c.consume(BatchResult(negatives={(0, 1)}))
        with pytest.raises(MatchingError):
            c.consume(BatchResult(negatives={(0, 1)}))

    def test_same_batch_birth_and_death_disjoint_sets(self):
        c = MatchCollector()
        c.consume(BatchResult(positives={(0, 1)}, negatives={(2, 3)}))
        assert c.live_matches() == {(0, 1)}
        assert c.dead_matches() == {(2, 3)}
        assert c.net_change() == 0

    def test_batch_records_sorted_signed_order(self):
        """records lists births (sorted) before deaths (sorted) — the
        deterministic consumer-facing ordering."""
        r = BatchResult(
            positives={(5, 6), (1, 2)}, negatives={(9, 9), (0, 3)}
        )
        recs = r.records
        assert [(m.sign, m.match) for m in recs] == [
            (1, (1, 2)),
            (1, (5, 6)),
            (-1, (0, 3)),
            (-1, (9, 9)),
        ]


class TestThroughputMeter:
    def test_rates(self):
        m = ThroughputMeter()
        m.record(0.5, 100)
        m.record(1.5, 300)
        assert m.total_seconds == pytest.approx(2.0)
        assert m.avg_latency == pytest.approx(1.0)
        assert m.updates_per_second == pytest.approx(200.0)

    def test_empty(self):
        m = ThroughputMeter()
        assert m.avg_latency == 0.0
        assert m.updates_per_second == 0.0


class TestGammaSystem:
    def test_matches_oracle(self):
        g, batch = small_case(1)
        pos, neg = oracle_delta(PAPER_Q, g, batch)
        system = GammaSystem(PAPER_Q, g, PARAMS)
        report = system.process_batch(batch)
        assert report.result.positives == pos
        assert report.result.negatives == neg

    @pytest.mark.parametrize(
        "specs, error",
        [
            ([FaultSpec("runtime.launch", 0)], QueryQuarantinedError),
            # both store attempts fail: the batch is dropped
            ([FaultSpec("store.prepare", 0), FaultSpec("store.prepare", 1)], ServiceError),
        ],
    )
    def test_isolated_fault_raises(self, specs, error):
        """A fault the service would isolate reaches the single-query
        caller instead of an empty result."""
        g, batch = small_case(6)
        system = GammaSystem(PAPER_Q, g, PARAMS)
        system.service.store.attach_faults(FaultPlan(specs))
        with pytest.raises(error, match="injected fault") as excinfo:
            system.process_batch(batch)
        assert excinfo.type is error

    def test_stage_seconds_all_present(self):
        g, batch = small_case(2)
        report = GammaSystem(PAPER_Q, g, PARAMS).process_batch(batch)
        assert set(report.stage_seconds) == {s for s, _ in GAMMA_STAGES}
        assert report.total_seconds > 0
        assert report.kernel_seconds >= 0

    def test_collector_tracks_stream(self):
        g, batch = small_case(3)
        system = GammaSystem(PAPER_Q, g, PARAMS)
        system.process_batch(batch)
        assert system.collector.batches == 1
        assert system.collector is system.service.runtime("q0").collector
        # live matches equal the oracle positives of the single batch
        pos, _ = oracle_delta(PAPER_Q, g, batch)
        assert system.collector.live_matches() == pos

    def test_process_stream_pipeline(self):
        g, _ = small_case(4)
        rng = random.Random(4)
        non = [(u, v) for u in range(20) for v in range(u + 1, 20) if not g.has_edge(u, v)]
        rng.shuffle(non)
        stream = UpdateStream(
            [
                make_batch([("+", u, v) for u, v in non[:3]]),
                make_batch([("+", u, v) for u, v in non[3:6]]),
                make_batch([("-", u, v) for u, v in non[:2]]),
            ]
        )
        system = GammaSystem(PAPER_Q, g, PARAMS)
        reports, pipeline = system.process_stream(stream)
        assert len(reports) == 3
        assert pipeline.makespan <= pipeline.serial_total + 1e-12
        assert system.meter.total_seconds > 0

    def test_graph_property_reflects_updates(self):
        g, batch = small_case(5)
        system = GammaSystem(PAPER_Q, g, PARAMS)
        system.process_batch(batch)
        inserted = batch.ops[0].edge
        assert system.graph.has_edge(*inserted)
