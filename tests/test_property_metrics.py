"""Property-based tests for the metrics layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.graph import from_edges
from repro.metrics import (
    Partition,
    adjusted_rand_index,
    conductances,
    coverage,
    modularity,
    modularity_and_coverage,
    normalized_mutual_information,
)
from repro.util.arrays import group_reduce_sum


@st.composite
def graph_and_partition(draw):
    n = draw(st.integers(2, 25))
    m = draw(st.integers(1, 60))
    i = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    j = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    g = from_edges(i, j, None, n_vertices=n)
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 5)))
    return g, Partition.from_labels(labels)


@st.composite
def partition_pair(draw):
    n = draw(st.integers(1, 40))
    a = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 6)))
    b = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 6)))
    return Partition.from_labels(a), Partition.from_labels(b)


class TestMetricProperties:
    @given(graph_and_partition())
    @settings(max_examples=60, deadline=None)
    def test_modularity_bounded(self, args):
        g, p = args
        q = modularity(g, p)
        assert -1.0 - 1e-9 <= q <= 1.0 + 1e-9

    @given(graph_and_partition())
    @settings(max_examples=60, deadline=None)
    def test_coverage_in_unit_interval(self, args):
        g, p = args
        assert 0.0 <= coverage(g, p) <= 1.0

    @given(graph_and_partition())
    @settings(max_examples=60, deadline=None)
    def test_conductances_in_unit_interval(self, args):
        g, p = args
        phi = conductances(g, p)
        assert np.all(phi >= 0.0)
        assert np.all(phi <= 1.0 + 1e-9)

    @given(graph_and_partition())
    @settings(max_examples=40, deadline=None)
    def test_all_in_one_extremes(self, args):
        g, _ = args
        one = Partition(np.zeros(g.n_vertices, dtype=np.int64))
        assert coverage(g, one) == 1.0
        assert abs(modularity(g, one)) < 1e-12

    @given(partition_pair())
    @settings(max_examples=60, deadline=None)
    def test_comparison_symmetry_and_self(self, pair):
        a, b = pair
        assert abs(
            normalized_mutual_information(a, b)
            - normalized_mutual_information(b, a)
        ) < 1e-9
        assert abs(
            adjusted_rand_index(a, b) - adjusted_rand_index(b, a)
        ) < 1e-9
        assert normalized_mutual_information(a, a) == pytest.approx(1.0)
        assert adjusted_rand_index(a, a) == pytest.approx(1.0)


# --------------------------------------------- index compaction bit-identity
@st.composite
def weighted_graph_and_partition(draw):
    """Float weights and self weights whose sums depend on their order."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, 150))
    i = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    j = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    weights = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
    w = draw(hnp.arrays(np.float64, m, elements=weights))
    g = from_edges(i, j, w, n_vertices=n)
    g.self_weights[:] = draw(hnp.arrays(np.float64, n, elements=weights | st.just(0.0)))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 7)))
    return g, Partition.from_labels(labels)


def _masked_modularity_and_coverage(graph, partition):
    """The boolean-mask form the index compaction replaced."""
    w_total = graph.total_weight()
    if w_total == 0:
        return 0.0, 1.0
    labels, k, e = partition.labels, partition.n_communities, graph.edges
    li = labels[e.ei]
    internal_mask = li == labels[e.ej]
    w_internal = e.w[internal_mask]
    internal = group_reduce_sum(li[internal_mask], w_internal, k)
    internal += group_reduce_sum(labels, graph.self_weights, k)
    vol = group_reduce_sum(labels, graph.strengths(), k)
    q = float((internal / w_total - (vol / (2.0 * w_total)) ** 2).sum())
    cov = (float(w_internal.sum()) + graph.internal_weight()) / w_total
    return q, cov


def _masked_coverage(graph, partition):
    w_total = graph.total_weight()
    if w_total == 0:
        return 1.0
    labels, e = partition.labels, graph.edges
    internal = float(e.w[labels[e.ei] == labels[e.ej]].sum())
    internal += float(graph.self_weights.sum())
    return internal / w_total


def _masked_conductances(graph, partition):
    labels, k, e = partition.labels, partition.n_communities, graph.edges
    li = labels[e.ei]
    lj = labels[e.ej]
    cross = li != lj
    cut = group_reduce_sum(li[cross], e.w[cross], k)
    cut += group_reduce_sum(lj[cross], e.w[cross], k)
    vol = group_reduce_sum(labels, graph.strengths(), k)
    two_w = 2.0 * graph.total_weight()
    denom = np.minimum(vol, two_w - vol)
    out = np.zeros(k, dtype=np.float64)
    np.divide(cut, denom, out=out, where=denom > 0)
    return out


class TestIndexCompaction:
    @given(weighted_graph_and_partition())
    @settings(max_examples=120, deadline=None)
    def test_modularity_and_coverage_bit_identical(self, args):
        g, p = args
        got = modularity_and_coverage(g, p)
        want = _masked_modularity_and_coverage(g, p)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    @given(weighted_graph_and_partition())
    @settings(max_examples=120, deadline=None)
    def test_coverage_bit_identical(self, args):
        g, p = args
        assert coverage(g, p).hex() == _masked_coverage(g, p).hex()

    @given(weighted_graph_and_partition())
    @settings(max_examples=120, deadline=None)
    def test_conductances_bit_identical(self, args):
        g, p = args
        got = conductances(g, p)
        want = _masked_conductances(g, p)
        assert got.tobytes() == want.tobytes()
