"""Static matcher tests, cross-checked against networkx VF2."""

import networkx as nx
import pytest
from networkx.algorithms import isomorphism

from repro.errors import MatchingError
from repro.graph import CSRGraph, LabeledGraph
from repro.graph.generators import attach_labels, power_law_graph
from repro.graph.updates import make_batch
from repro.matching import count_matches, find_matches, oracle_delta
from repro.matching.static_match import verify_match


def nx_matches(query: LabeledGraph, graph: LabeledGraph) -> set:
    """Reference: all subgraph isomorphisms via networkx GraphMatcher."""
    gm = isomorphism.GraphMatcher(
        graph.to_networkx(),
        query.to_networkx(),
        node_match=lambda d1, d2: d1["label"] == d2["label"],
        edge_match=lambda d1, d2: d1["label"] == d2["label"],
    )
    out = set()
    for mapping in gm.subgraph_monomorphisms_iter():
        inv = {qv: dv for dv, qv in mapping.items()}
        out.add(tuple(inv[u] for u in range(query.n_vertices)))
    return out


@pytest.fixture
def triangle_query():
    return LabeledGraph.from_edges([0, 1, 1], [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def paper_query():
    return LabeledGraph.from_edges([0, 1, 1, 2], [(0, 1), (0, 2), (1, 2), (1, 3)])


class TestFindMatches:
    def test_single_edge_query(self):
        q = LabeledGraph.from_edges([0, 1], [(0, 1)])
        g = LabeledGraph.from_edges([0, 1, 1], [(0, 1), (0, 2)])
        assert find_matches(q, g) == {(0, 1), (0, 2)}

    def test_triangle_in_k4(self, triangle_query):
        labels = [0, 1, 1, 1]
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        g = LabeledGraph.from_edges(labels, edges)
        # vertex 0 is the only A; the two B's are interchangeable: 3 pairs * 2
        assert count_matches(triangle_query, g) == 6

    def test_labels_constrain(self, triangle_query):
        g = LabeledGraph.from_edges([0, 0, 0], [(0, 1), (0, 2), (1, 2)])
        assert find_matches(triangle_query, g) == set()

    def test_edge_labels_constrain(self):
        q = LabeledGraph.from_edges([0, 0], [(0, 1, 5)])
        g = LabeledGraph.from_edges([0, 0, 0], [(0, 1, 5), (1, 2, 7)])
        assert find_matches(q, g) == {(0, 1), (1, 0)}

    def test_no_matches_when_data_smaller(self, paper_query):
        g = LabeledGraph.from_edges([0, 1], [(0, 1)])
        assert find_matches(paper_query, g) == set()

    def test_limit(self):
        q = LabeledGraph.from_edges([0, 0], [(0, 1)])
        g = LabeledGraph.from_edges([0] * 6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        assert len(find_matches(q, g, limit=5)) == 5

    def test_injectivity(self):
        """A path query cannot fold both endpoints onto one data vertex."""
        q = LabeledGraph.from_edges([0, 1, 0], [(0, 1), (1, 2)])
        g = LabeledGraph.from_edges([0, 1], [(0, 1)])
        assert find_matches(q, g) == set()

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx_random(self, seed, paper_query):
        g = attach_labels(power_law_graph(18, 3.0, seed=seed), 3, 1, seed=seed + 50)
        assert_all_arms_match(paper_query, g, nx_matches(paper_query, g))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_networkx_edge_labeled(self, seed):
        q = LabeledGraph.from_edges([0, 0, 0], [(0, 1, 0), (1, 2, 1)])
        g = attach_labels(power_law_graph(16, 3.0, seed=seed), 1, 2, seed=seed + 9)
        assert_all_arms_match(q, g, nx_matches(q, g))


def assert_all_arms_match(query, g, expected):
    """Vectorized (with and without a CSR snapshot, as the service's
    registration bootstrap calls it) and scalar enumeration agree."""
    assert find_matches(query, g) == expected
    assert find_matches(query, g, csr=CSRGraph.from_graph(g)) == expected
    assert find_matches(query, g, vectorized=False) == expected


class TestVerifyMatch:
    def test_valid(self, paper_query):
        g = paper_query.copy()
        assert verify_match(paper_query, g, (0, 1, 2, 3))

    def test_wrong_length(self, paper_query):
        assert not verify_match(paper_query, paper_query, (0, 1))

    def test_non_injective(self, paper_query):
        assert not verify_match(paper_query, paper_query, (0, 1, 1, 3))

    def test_label_mismatch(self, paper_query):
        assert not verify_match(paper_query, paper_query, (3, 1, 2, 0))


class TestOracleDelta:
    def test_insert_creates_positive(self):
        q = LabeledGraph.from_edges([0, 1], [(0, 1)])
        g = LabeledGraph([0, 1])
        pos, neg = oracle_delta(q, g, make_batch([("+", 0, 1)]))
        assert pos == {(0, 1)}
        assert neg == set()

    def test_delete_creates_negative(self):
        q = LabeledGraph.from_edges([0, 1], [(0, 1)])
        g = LabeledGraph.from_edges([0, 1], [(0, 1)])
        pos, neg = oracle_delta(q, g, make_batch([("-", 0, 1)]))
        assert neg == {(0, 1)}

    def test_paper_example1_shape(self, paper_query):
        """Batch semantics net out intra-batch insert/delete pairs."""
        g = LabeledGraph.from_edges([0, 1, 1, 2], [(0, 1), (1, 2), (1, 3)])
        batch = make_batch([("+", 0, 2), ("-", 0, 2)])
        pos, neg = oracle_delta(paper_query, g, batch)
        assert pos == set() and neg == set()

    def test_does_not_mutate(self, paper_query):
        g = LabeledGraph.from_edges([0, 1, 1, 2], [(0, 1), (1, 2), (1, 3)])
        oracle_delta(paper_query, g, make_batch([("+", 0, 2)]))
        assert not g.has_edge(0, 2)

    def test_empty_query_raises(self):
        with pytest.raises(MatchingError):
            oracle_delta(LabeledGraph(), LabeledGraph([0]), make_batch([]))
