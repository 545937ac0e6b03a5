"""Unit tests for graph builders and NetworkX conversion."""

import numpy as np
import pytest

from repro.graph import from_edges, from_networkx, to_networkx


class TestFromEdges:
    def test_self_loops_become_self_weights(self):
        g = from_edges(np.array([0, 1, 1]), np.array([1, 1, 1]))
        assert g.n_edges == 1
        assert g.self_weights[1] == 2.0

    def test_duplicates_accumulate_across_orientations(self):
        g = from_edges(np.array([0, 1, 0]), np.array([1, 0, 1]))
        assert g.n_edges == 1
        assert g.edges.w[0] == 3.0

    def test_n_vertices_inferred(self):
        g = from_edges(np.array([0]), np.array([7]))
        assert g.n_vertices == 8

    def test_n_vertices_explicit(self):
        g = from_edges(np.array([0]), np.array([1]), n_vertices=10)
        assert g.n_vertices == 10

    def test_empty(self):
        g = from_edges(np.empty(0, int), np.empty(0, int))
        assert g.n_vertices == 0
        assert g.n_edges == 0

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            from_edges(np.array([-1]), np.array([0]))

    def test_negative_second_endpoint_rejected(self):
        # The parity key of (-1, 2) once split into the valid pair (1, 2).
        with pytest.raises(ValueError, match="negative vertex id"):
            from_edges([2], [-1], n_vertices=3)
        with pytest.raises(ValueError, match="negative vertex id"):
            from_edges([0, 1], [-1, 2])

    def test_mismatched_rejected(self):
        with pytest.raises(ValueError):
            from_edges(np.array([0, 1]), np.array([1]))

    def test_weights_preserved(self):
        g = from_edges(np.array([0]), np.array([1]), np.array([2.5]))
        assert g.edges.w[0] == 2.5

    def test_total_weight_conserved(self):
        # Builder must not lose weight: loops + duplicates + edges.
        i = np.array([0, 0, 1, 2, 2])
        j = np.array([1, 1, 1, 0, 2])
        w = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        g = from_edges(i, j, w)
        assert g.total_weight() == pytest.approx(w.sum())


class TestNetworkX:
    def test_roundtrip(self, karate):
        nx_graph = to_networkx(karate)
        back, nodes = from_networkx(nx_graph)
        assert back.n_vertices == karate.n_vertices
        assert back.n_edges == karate.n_edges
        assert back.total_weight() == pytest.approx(karate.total_weight())

    def test_from_networkx_weights(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge("a", "b", weight=2.0)
        g.add_edge("b", "c")
        cg, nodes = from_networkx(g)
        assert cg.n_vertices == 3
        assert cg.total_weight() == pytest.approx(3.0)
        assert set(nodes) == {"a", "b", "c"}

    def test_to_networkx_self_loops(self):
        g = from_edges(np.array([0, 1]), np.array([0, 2]))
        nx_graph = to_networkx(g)
        assert nx_graph.has_edge(0, 0)
        assert nx_graph[0][0]["weight"] == 1.0
