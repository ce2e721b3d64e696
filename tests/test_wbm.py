"""WBM engine tests: the kernel against the oracle, all config arms,
dedup, budgets, and stealing invariants.

Batches run through the single-query service path
(``GammaSystem(...).process_batch(batch).result``), the one batch
protocol every caller shares."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MatchingError
from repro.graph import LabeledGraph
from repro.graph.generators import attach_labels, power_law_graph
from repro.graph.updates import make_batch
from repro.gpu import DeviceParams
from repro.matching import WBMConfig, WBMEngine, oracle_delta
from repro.pipeline import GammaSystem

PARAMS = DeviceParams(num_sms=2, warps_per_block=4)

PAPER_Q = LabeledGraph.from_edges([0, 1, 1, 2], [(0, 1), (0, 2), (1, 2), (1, 3)])
TRI_Q = LabeledGraph.from_edges([0, 1, 1], [(0, 1), (0, 2), (1, 2)])
PATH_Q = LabeledGraph.from_edges([0, 1, 0], [(0, 1), (1, 2)])


def run_batch(query, g, batch, cfg: WBMConfig = WBMConfig()):
    """One batch through a fresh single-query system; its BatchResult."""
    return GammaSystem(query, g, PARAMS, cfg).process_batch(batch).result


def random_case(seed: int, n: int = 20, n_labels: int = 3):
    g = attach_labels(power_law_graph(n, 3.2, seed=seed), n_labels, 1, seed=seed + 77)
    rng = random.Random(seed)
    edges = list(g.edges())
    rng.shuffle(edges)
    non_edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)
    ]
    rng.shuffle(non_edges)
    ops = [("+", u, v) for u, v in non_edges[:4]] + [("-", u, v) for u, v in edges[:3]]
    rng.shuffle(ops)
    return g, make_batch(ops)


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_default_config(self, seed):
        g, batch = random_case(seed)
        pos, neg = oracle_delta(PAPER_Q, g, batch)
        res = run_batch(PAPER_Q, g, batch)
        assert res.positives == pos
        assert res.negatives == neg

    @pytest.mark.parametrize("ws", ["active", "passive", "off"])
    @pytest.mark.parametrize("cs", [True, False])
    def test_all_arms_agree(self, ws, cs):
        g, batch = random_case(99)
        pos, neg = oracle_delta(PAPER_Q, g, batch)
        cfg = WBMConfig(work_stealing=ws, coalesced=cs)
        res = run_batch(PAPER_Q, g, batch, cfg)
        assert res.positives == pos
        assert res.negatives == neg

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetric_triangle_query(self, seed):
        """Whole-query automorphism: boundary==n permutation path."""
        g, batch = random_case(seed + 10)
        pos, neg = oracle_delta(TRI_Q, g, batch)
        res = run_batch(TRI_Q, g, batch)
        assert res.positives == pos
        assert res.negatives == neg

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetric_path_query(self, seed):
        g, batch = random_case(seed + 20)
        pos, neg = oracle_delta(PATH_Q, g, batch)
        res = run_batch(PATH_Q, g, batch)
        assert res.positives == pos
        assert res.negatives == neg

    def test_edge_labeled_graph(self):
        q = LabeledGraph.from_edges([0, 0, 0], [(0, 1, 1), (1, 2, 2)])
        g = attach_labels(power_law_graph(18, 3.0, seed=5), 1, 3, seed=6)
        rng = random.Random(1)
        non = [(u, v) for u in range(18) for v in range(u + 1, 18) if not g.has_edge(u, v)]
        rng.shuffle(non)
        batch = make_batch(
            [("+", u, v, rng.randrange(3)) for u, v in non[:5]]
        )
        pos, neg = oracle_delta(q, g, batch)
        res = run_batch(q, g, batch)
        assert res.positives == pos
        assert res.negatives == neg

    def test_sequential_batches_stay_consistent(self):
        """The engine's internal graph mirror must track batches."""
        g, batch1 = random_case(31)
        system = GammaSystem(PAPER_Q, g, PARAMS)
        pos1, neg1 = oracle_delta(PAPER_Q, g, batch1)
        r1 = system.process_batch(batch1).result
        assert (r1.positives, r1.negatives) == (pos1, neg1)
        # second batch computed against the updated graph
        g2 = system.graph.copy()
        rng = random.Random(5)
        edges = list(g2.edges())
        rng.shuffle(edges)
        batch2 = make_batch([("-", u, v) for u, v in edges[:3]])
        pos2, neg2 = oracle_delta(PAPER_Q, g2, batch2)
        r2 = system.process_batch(batch2).result
        assert (r2.positives, r2.negatives) == (pos2, neg2)

    def test_single_edge_query(self):
        q = LabeledGraph.from_edges([0, 1], [(0, 1)])
        g, batch = random_case(44, n_labels=2)
        pos, neg = oracle_delta(q, g, batch)
        res = run_batch(q, g, batch)
        assert res.positives == pos
        assert res.negatives == neg


class TestDedup:
    def test_no_duplicates_within_batch(self):
        """Two inserted edges completing the same match: the total-order
        rule must attribute it exactly once."""
        q = TRI_Q
        g = LabeledGraph.from_edges([0, 1, 1], [(1, 2)])  # missing two edges
        batch = make_batch([("+", 0, 1), ("+", 0, 2)])
        res = run_batch(q, g, batch)
        pos, neg = oracle_delta(q, g, batch)
        assert res.positives == pos  # set equality
        # engine-internal list must not contain duplicates either
        assert len(res.positives) == len(pos)

    def test_kernel_list_free_of_duplicates(self):
        g, batch = random_case(7)
        system = GammaSystem(PAPER_Q, g, PARAMS)
        runtime = system.engine.runtime
        out = []
        orig_launch = runtime.launch

        def spy(edges, **kwargs):
            k = orig_launch(edges, **kwargs)
            out.append(list(k.matches))
            return k

        runtime.launch = spy
        system.process_batch(batch)
        assert out, "the spy never saw a launch"
        for lst in out:
            assert len(lst) == len(set(lst))


class TestConfigAndErrors:
    def test_bad_ws_mode(self):
        with pytest.raises(MatchingError):
            WBMConfig(work_stealing="turbo")

    def test_query_too_small(self):
        with pytest.raises(MatchingError):
            WBMEngine(LabeledGraph([0]), LabeledGraph([0]), PARAMS)

    def test_budget_aborts(self):
        g, batch = random_case(3, n=26)
        cfg = WBMConfig(cycle_budget=10.0)
        res = run_batch(PAPER_Q, g, batch, cfg)
        assert res.aborted

    def test_engine_copies_graph(self):
        g, batch = random_case(12)
        snapshot = g.copy()
        run_batch(PAPER_Q, g, batch)
        assert g == snapshot


class TestStealingInvariants:
    def test_stealing_changes_nothing_semantically(self):
        """Heavily skewed batch: stealing on/off yields identical ΔM."""
        g = attach_labels(power_law_graph(40, 5.0, seed=8), 3, 1, seed=9)
        rng = random.Random(8)
        non = [(u, v) for u in range(40) for v in range(u + 1, 40) if not g.has_edge(u, v)]
        rng.shuffle(non)
        batch = make_batch([("+", u, v) for u, v in non[:12]])
        results = {}
        for ws in ("off", "active", "passive"):
            cfg = WBMConfig(work_stealing=ws)
            r = run_batch(PAPER_Q, g, batch, cfg)
            results[ws] = (r.positives, r.negatives)
        assert results["off"] == results["active"] == results["passive"]

    def test_active_stealing_improves_utilization_on_skew(self):
        g = attach_labels(power_law_graph(60, 6.0, seed=13), 2, 1, seed=14)
        rng = random.Random(13)
        non = [(u, v) for u in range(60) for v in range(u + 1, 60) if not g.has_edge(u, v)]
        rng.shuffle(non)
        batch = make_batch([("+", u, v) for u, v in non[:24]])
        q = TRI_Q
        r_off = run_batch(q, g, batch, WBMConfig(work_stealing="off"))
        r_on = run_batch(q, g, batch, WBMConfig(work_stealing="active"))
        assert r_on.positives == r_off.positives
        assert r_on.kernel_stats.utilization >= r_off.kernel_stats.utilization


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_wbm_matches_oracle_property(data):
    """Property: for random graphs, random batches, and random engine
    configs, WBM equals the oracle's set difference exactly."""
    seed = data.draw(st.integers(0, 10_000))
    n = data.draw(st.integers(10, 24))
    g = attach_labels(power_law_graph(n, 3.0, seed=seed), 3, 1, seed=seed + 1)
    rng = random.Random(seed)
    edges = list(g.edges())
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    rng.shuffle(edges)
    rng.shuffle(non_edges)
    k_ins = data.draw(st.integers(0, min(5, len(non_edges))))
    k_del = data.draw(st.integers(0, min(4, len(edges))))
    ops = [("+", u, v) for u, v in non_edges[:k_ins]] + [("-", u, v) for u, v in edges[:k_del]]
    rng.shuffle(ops)
    if not ops:
        return
    batch = make_batch(ops)
    query = data.draw(st.sampled_from([PAPER_Q, TRI_Q, PATH_Q]))
    cfg = WBMConfig(
        work_stealing=data.draw(st.sampled_from(["active", "passive", "off"])),
        coalesced=data.draw(st.booleans()),
    )
    pos, neg = oracle_delta(query, g, batch)
    res = run_batch(query, g, batch, cfg)
    assert res.positives == pos
    assert res.negatives == neg
