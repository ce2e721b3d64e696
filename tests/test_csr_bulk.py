"""Vectorized CSR construction must be indistinguishable from the
original per-vertex loop path (the benchmark-motivated rewrite keeps
the loop version as its equality oracle)."""

import numpy as np
import pytest

from repro.graph import CSRGraph, LabeledGraph
from repro.graph.generators import attach_labels, power_law_graph


def assert_csr_equal(a: CSRGraph, b: CSRGraph) -> None:
    np.testing.assert_array_equal(a.offsets, b.offsets)
    np.testing.assert_array_equal(a.neighbors, b.neighbors)
    np.testing.assert_array_equal(a.edge_labels, b.edge_labels)
    np.testing.assert_array_equal(a.vertex_labels, b.vertex_labels)


class TestBulkConstruction:
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_reference_on_random_graphs(self, seed):
        g = attach_labels(power_law_graph(40, 3.0, seed=seed), 4, 3, seed=seed + 1)
        assert_csr_equal(CSRGraph.from_graph(g), CSRGraph._from_graph_reference(g))

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_edge_index_equals_cold_build(self, seed):
        """``from_graph`` seeds ``edge_index`` with its sorted keys; it
        must equal the index built lazily from the offsets."""
        g = attach_labels(power_law_graph(40, 3.0, seed=seed), 4, 3, seed=seed + 1)
        keys, labels = CSRGraph.from_graph(g).edge_index()
        cold_keys, cold_labels = CSRGraph._from_graph_reference(g).edge_index()
        np.testing.assert_array_equal(keys, cold_keys)
        np.testing.assert_array_equal(labels, cold_labels)
        assert (np.diff(keys) > 0).all()

    def test_empty_graph(self):
        g = LabeledGraph([])
        assert_csr_equal(CSRGraph.from_graph(g), CSRGraph._from_graph_reference(g))

    def test_isolated_vertices(self):
        g = LabeledGraph.from_edges([0, 1, 2, 0, 1], [(1, 3, 7)])
        csr = CSRGraph.from_graph(g)
        assert_csr_equal(csr, CSRGraph._from_graph_reference(g))
        assert csr.degree(0) == 0
        assert csr.degree(4) == 0
        assert list(csr.neighbor_slice(1)) == [3]
        assert list(csr.edge_label_slice(3)) == [7]

    def test_neighbor_slices_sorted(self):
        g = attach_labels(power_law_graph(30, 2.5, seed=9), 2, 1, seed=10)
        csr = CSRGraph.from_graph(g)
        for v in range(csr.n_vertices):
            nbrs = csr.neighbor_slice(v)
            assert (np.diff(nbrs) > 0).all() if len(nbrs) > 1 else True
            assert sorted(nbrs) == list(g.neighbors(v))

    def test_bulk_path_is_not_slower_at_scale(self):
        """Benchmark guard: on a non-trivial graph the vectorized path
        must not lose to the loop path (generous 2x slack against
        timer noise)."""
        import time

        g = attach_labels(power_law_graph(1500, 4.0, seed=3), 5, 2, seed=4)
        t0 = time.perf_counter()
        for _ in range(3):
            CSRGraph.from_graph(g)
        fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(3):
            CSRGraph._from_graph_reference(g)
        slow = time.perf_counter() - t0
        assert fast <= slow * 2.0
