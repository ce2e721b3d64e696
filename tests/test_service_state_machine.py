"""Stateful differential fuzzing of :class:`MatchingService`.

A hypothesis rule-based state machine registers and unregisters
queries, streams random mixed batches through the service, and commits
and rolls back batches on the store behind the service's back. After
every step each registered query's current match set must equal a
static ``find_matches`` of the current graph, its candidate columns
must equal a freshly built scalar table, and the store must pass its
consistency audit. The example count is kept low so the machine
runs in tier-1; raise ``max_examples`` locally for a deeper search.
"""

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import xp
from repro.filtering import CandidateTable
from repro.graph import LabeledGraph
from repro.graph.generators import attach_labels, power_law_graph
from repro.graph.updates import make_batch
from repro.gpu import DeviceParams
from repro.matching import find_matches
from repro.service import MatchingService

PARAMS = DeviceParams(num_sms=2, warps_per_block=4)
N_VERTICES = 14
MAX_QUERIES = 4
POOL = (
    LabeledGraph.from_edges([0, 1, 1, 2], [(0, 1), (0, 2), (1, 2), (1, 3)]),
    LabeledGraph.from_edges([0, 1, 1], [(0, 1), (0, 2), (1, 2)]),
    LabeledGraph.from_edges([0, 1, 0], [(0, 1), (1, 2)]),
    # a k=1 coalesced group: its core filter is a stack union column
    LabeledGraph.from_edges([0, 0, 0, 1, 2], [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]),
)


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        g = attach_labels(power_law_graph(N_VERTICES, 3.0, seed=3), 3, 1, seed=4)
        self.service = MatchingService(g, params=PARAMS)
        self.queries: dict[str, LabeledGraph] = {}

    def _draw_batch(self, data):
        """Random mixed ops valid against the current graph: deletes of
        existing edges, inserts of absent ones with edge label 0 or 1."""
        graph = self.service.graph
        edges = sorted(graph.edges())
        absent = [
            (u, v)
            for u in range(graph.n_vertices)
            for v in range(u + 1, graph.n_vertices)
            if not graph.has_edge(u, v)
        ]
        dels = data.draw(st.lists(st.sampled_from(edges), max_size=3, unique=True))
        ins = data.draw(st.lists(st.sampled_from(absent), max_size=4, unique=True))
        labels = data.draw(st.lists(st.integers(0, 1), min_size=len(ins), max_size=len(ins)))
        ops = [("-", u, v) for u, v in dels]
        ops += [("+", u, v, lbl) for (u, v), lbl in zip(ins, labels)]
        return make_batch(data.draw(st.permutations(ops)))

    @initialize(indices=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=2))
    def start(self, indices):
        for index in indices:
            self.register(index)

    @precondition(lambda self: len(self.queries) < MAX_QUERIES)
    @rule(index=st.integers(0, len(POOL) - 1))
    def register(self, index):
        name = self.service.register_query(POOL[index])
        self.queries[name] = POOL[index]

    @precondition(lambda self: self.queries)
    @rule(data=st.data())
    def unregister(self, data):
        name = data.draw(st.sampled_from(sorted(self.queries)))
        self.service.unregister_query(name)
        del self.queries[name]

    @rule(data=st.data())
    def process_batch(self, data):
        report = self.service.process_batch(self._draw_batch(data))
        assert not report.rolled_back and report.failure is None
        assert set(report.health.values()) <= {"ok"}

    @rule(data=st.data())
    def rollback(self, data):
        store = self.service.store
        before = store.graph.copy()
        batch = self._draw_batch(data)
        commit = store.commit(batch, store.prepare(batch))
        store.rollback(commit)
        assert store.graph == before

    @invariant()
    def matches_equal_static(self):
        for name, query in self.queries.items():
            assert self.service.matches(name) == find_matches(query, self.service.graph)

    @invariant()
    def candidate_columns_fresh(self):
        for name, query in self.queries.items():
            fresh = CandidateTable(query, self.service.graph, vectorized=False)
            table = self.service.runtime(name).table
            assert (xp.to_numpy(table.bitmap) == xp.to_numpy(fresh.bitmap)).all()

    @invariant()
    def store_consistent(self):
        self.service.store.check_consistency()


TestServiceMachine = ServiceMachine.TestCase
TestServiceMachine.settings = settings(
    max_examples=12,
    stateful_step_count=10,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
