"""End-to-end integration: every engine on the same multi-batch stream
must agree with the oracle and with each other."""

import random

import pytest

from repro.baselines import BASELINES
from repro.graph import LabeledGraph
from repro.graph.generators import attach_labels, power_law_graph
from repro.graph.updates import UpdateStream, apply_batch, make_batch
from repro.gpu import DeviceParams
from repro.matching import find_matches, oracle_delta
from repro.pipeline import GammaSystem
from repro.service import DynamicGraphStore, MatchingService

PARAMS = DeviceParams(num_sms=2, warps_per_block=4)
PAPER_Q = LabeledGraph.from_edges([0, 1, 1, 2], [(0, 1), (0, 2), (1, 2), (1, 3)])


@pytest.fixture(autouse=True)
def audit_store_transactions(monkeypatch):
    """Run ``check_consistency`` after every store commit and rollback.

    Any test in this module that goes through the serving layer gets the
    transactional invariants (mirror == GPMA == CSR == encodings)
    re-verified at each boundary for free.
    """
    real_commit = DynamicGraphStore.commit
    real_rollback = DynamicGraphStore.rollback

    def audited_commit(self, batch, delta=None):
        commit = real_commit(self, batch, delta)
        self.check_consistency()
        return commit

    def audited_rollback(self, commit):
        real_rollback(self, commit)
        self.check_consistency()

    monkeypatch.setattr(DynamicGraphStore, "commit", audited_commit)
    monkeypatch.setattr(DynamicGraphStore, "rollback", audited_rollback)


def make_stream(seed: int, n: int = 22, n_batches: int = 4):
    g = attach_labels(power_law_graph(n, 3.2, seed=seed), 3, 1, seed=seed + 1)
    rng = random.Random(seed)
    shadow = g.copy()
    batches = []
    for _ in range(n_batches):
        ops = []
        edges = list(shadow.edges())
        non = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not shadow.has_edge(u, v)
        ]
        rng.shuffle(edges)
        rng.shuffle(non)
        for u, v in non[:3]:
            ops.append(("+", u, v))
        for u, v in edges[:2]:
            ops.append(("-", u, v))
        rng.shuffle(ops)
        batch = make_batch(ops)
        apply_batch(shadow, batch)
        batches.append(batch)
    return g, UpdateStream(batches)


class TestStreamEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gamma_tracks_oracle_across_stream(self, seed):
        g, stream = make_stream(seed)
        system = GammaSystem(PAPER_Q, g, PARAMS)
        shadow = g.copy()
        for batch in stream:
            pos, neg = oracle_delta(PAPER_Q, shadow, batch)
            report = system.process_batch(batch)
            assert report.result.positives == pos
            assert report.result.negatives == neg
            apply_batch(shadow, batch)
        # the collector's live view equals the final-vs-initial diff
        initial = find_matches(PAPER_Q, g)
        final = find_matches(PAPER_Q, shadow)
        assert system.collector.live_matches() == final - initial
        assert system.collector.dead_matches() == initial - final

    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_baselines_match_gamma_on_stream(self, name):
        g, stream = make_stream(7)
        system = GammaSystem(PAPER_Q, g, PARAMS)
        engine = BASELINES[name](PAPER_Q, g)
        for batch in stream:
            report = system.process_batch(batch)
            pos, neg = engine.process_batch(batch)
            assert report.result.positives == pos, name
            assert report.result.negatives == neg, name

    def test_gpma_mirror_stays_consistent(self):
        """The engine's device container and host mirror must agree
        after every batch of a long stream."""
        g, stream = make_stream(9, n_batches=6)
        system = GammaSystem(PAPER_Q, g, PARAMS)
        for batch in stream:
            system.process_batch(batch)
            gpma = system.service.store.gpma
            host = system.graph
            gpma.check_invariants()
            for v in host.vertices():
                assert gpma.neighbors(v) == list(host.neighbors(v))

    def test_candidate_table_stays_fresh(self):
        """Incremental encoding/table refresh equals a rebuild after
        every batch."""
        from repro.filtering import CandidateTable

        g, stream = make_stream(11)
        system = GammaSystem(PAPER_Q, g, PARAMS)
        for batch in stream:
            system.process_batch(batch)
            fresh = CandidateTable(PAPER_Q, system.graph)
            assert (system.service.runtime("q0").table.bitmap == fresh.bitmap).all()

    def test_service_stream_is_transactional(self):
        """Serving-layer pass over the stream: the autouse audit fixture
        re-checks store consistency after every commit, and an explicit
        rollback must restore the pre-batch graph exactly."""
        g, stream = make_stream(17, n_batches=4)
        service = MatchingService(g, params=PARAMS)
        service.register_query(PAPER_Q, name="q")
        shadow = g.copy()
        for batch in stream:
            pos, neg = oracle_delta(PAPER_Q, shadow, batch)
            report = service.process_batch(batch)
            assert report.queries["q"].result.positives == pos
            assert report.queries["q"].result.negatives == neg
            apply_batch(shadow, batch)
        assert service.graph == shadow
        # commit one more batch by hand, then undo it
        extra = make_batch([("-", u, v) for u, v in list(shadow.edges())[:2]])
        before = service.graph.copy()
        commit = service.store.commit(extra, service.store.prepare(extra))
        assert service.graph != before
        service.store.rollback(commit)
        assert service.graph == before

    def test_edge_labeled_stream(self):
        q = LabeledGraph.from_edges([0, 0, 0], [(0, 1, 0), (1, 2, 1)])
        g = attach_labels(power_law_graph(20, 3.0, seed=13), 1, 2, seed=14)
        rng = random.Random(13)
        shadow = g.copy()
        system = GammaSystem(q, g, PARAMS)
        for _ in range(3):
            non = [
                (u, v)
                for u in range(20)
                for v in range(u + 1, 20)
                if not shadow.has_edge(u, v)
            ]
            rng.shuffle(non)
            batch = make_batch([("+", u, v, rng.randrange(2)) for u, v in non[:4]])
            pos, neg = oracle_delta(q, shadow, batch)
            report = system.process_batch(batch)
            assert report.result.positives == pos
            assert report.result.negatives == neg
            apply_batch(shadow, batch)
