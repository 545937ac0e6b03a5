"""Property-based tests for the graph substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.graph import CSRAdjacency, from_edges
from repro.graph.edgelist import parity_canonical


@st.composite
def edge_arrays(draw, max_n=40, max_m=120, weighted=True):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_m))
    i = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    j = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    if weighted:
        w = draw(
            hnp.arrays(
                np.float64,
                m,
                elements=st.floats(0.25, 100.0, allow_nan=False),
            )
        )
    else:
        w = None
    return n, i, j, w


class TestBuilderProperties:
    @given(edge_arrays())
    @settings(max_examples=60, deadline=None)
    def test_representation_invariants_always_hold(self, args):
        n, i, j, w = args
        g = from_edges(i, j, w, n_vertices=n)
        g.validate()

    @given(edge_arrays())
    @settings(max_examples=60, deadline=None)
    def test_total_weight_conserved(self, args):
        n, i, j, w = args
        g = from_edges(i, j, w, n_vertices=n)
        expected = w.sum() if w is not None else len(i)
        assert abs(g.total_weight() - expected) < 1e-6 * max(1.0, abs(expected))

    @given(edge_arrays(weighted=False))
    @settings(max_examples=60, deadline=None)
    def test_orientation_invariance(self, args):
        n, i, j, _ = args
        a = from_edges(i, j, None, n_vertices=n)
        b = from_edges(j, i, None, n_vertices=n)
        np.testing.assert_array_equal(a.edges.ei, b.edges.ei)
        np.testing.assert_array_equal(a.edges.ej, b.edges.ej)
        np.testing.assert_array_equal(a.edges.w, b.edges.w)

    @given(edge_arrays())
    @settings(max_examples=40, deadline=None)
    def test_strengths_sum_to_twice_total_weight(self, args):
        n, i, j, w = args
        g = from_edges(i, j, w, n_vertices=n)
        assert abs(g.strengths().sum() - 2 * g.total_weight()) < 1e-6 * max(
            1.0, g.total_weight()
        )

    @given(edge_arrays())
    @settings(max_examples=60, deadline=None)
    def test_strengths_equal_bincount_bit_for_bit(self, args):
        n, i, j, w = args
        e = from_edges(i, j, w, n_vertices=n).edges
        expected = np.bincount(e.ei, weights=e.w, minlength=n)
        expected += np.bincount(e.ej, weights=e.w, minlength=n)
        np.testing.assert_array_equal(e.strengths(), expected)

    @given(edge_arrays(weighted=False))
    @settings(max_examples=40, deadline=None)
    def test_csr_degree_sum(self, args):
        n, i, j, _ = args
        g = from_edges(i, j, None, n_vertices=n)
        csr = CSRAdjacency.from_edgelist(g.edges)
        assert csr.degrees().sum() == 2 * g.n_edges


class TestParityProperties:
    @given(
        hnp.arrays(np.int64, 50, elements=st.integers(0, 1000)),
        hnp.arrays(np.int64, 50, elements=st.integers(0, 1000)),
    )
    @settings(max_examples=50, deadline=None)
    def test_parity_rule(self, i, j):
        first, second = parity_canonical(i, j)
        # The endpoint pair of every edge is preserved (possibly swapped).
        np.testing.assert_array_equal(
            np.sort(np.stack([first, second]), axis=0),
            np.sort(np.stack([i, j]), axis=0),
        )
        same = ((i ^ j) & 1) == 0
        non_loop = i != j
        assert np.all(first[same & non_loop] < second[same & non_loop])
        assert np.all(first[~same] > second[~same])
