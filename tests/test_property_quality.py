"""Property tests: the fused quality pass equals the separate metrics.

``modularity_and_coverage`` gathers the partition's labels once and builds
one internal-edge mask for both values.  Both must equal the separate
:func:`modularity` and :func:`coverage` bit for bit, and the modularity must
equal the two-gather formulation it replaced, on float weights where a
different summation order would show in the last bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.graph import from_edges
from repro.metrics import (
    Partition,
    coverage,
    modularity,
    modularity_and_coverage,
)
from repro.util.arrays import group_reduce_sum


def _two_gather_modularity(graph, partition):
    """Modularity with its own gather of both endpoint label arrays."""
    w_total = graph.total_weight()
    if w_total == 0:
        return 0.0
    labels = partition.labels
    k = partition.n_communities
    e = graph.edges
    li = labels[e.ei]
    lj = labels[e.ej]
    internal_mask = li == lj
    internal = group_reduce_sum(li[internal_mask], e.w[internal_mask], k)
    internal += group_reduce_sum(labels, graph.self_weights, k)
    vol = group_reduce_sum(labels, graph.strengths(), k)
    return float((internal / w_total - (vol / (2.0 * w_total)) ** 2).sum())


def _graph(draw, weights):
    # Enough internal edges that NumPy's pairwise summation groups them in
    # blocks, so a sum taken in another order differs in the last bit.
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, 400))
    loops = draw(st.integers(0, n))
    ends = st.integers(0, n - 1)
    i = draw(hnp.arrays(np.int64, m, elements=ends))
    j = draw(hnp.arrays(np.int64, m, elements=ends))
    at = draw(hnp.arrays(np.int64, loops, elements=ends))
    w = draw(hnp.arrays(np.float64, m + loops, elements=weights))
    return from_edges(
        np.concatenate([i, at]), np.concatenate([j, at]), w, n_vertices=n
    )


@st.composite
def graph_and_partition(draw):
    g = _graph(draw, st.floats(1e-3, 1e3, allow_nan=False))
    n = g.n_vertices
    kind = draw(st.sampled_from(["singletons", "one", "random"]))
    if kind == "singletons":
        part = Partition.singletons(n)
    elif kind == "one":
        part = Partition(np.zeros(n, dtype=np.int64))
    else:
        k = draw(st.integers(1, n))
        labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
        part = Partition.from_labels(labels)
    return g, part


class TestFusedQuality:
    @given(graph_and_partition())
    @settings(max_examples=150, deadline=None)
    def test_equals_separate_metrics_bit_for_bit(self, args):
        g, part = args
        q, cov = modularity_and_coverage(g, part)
        assert q == modularity(g, part)
        assert q == _two_gather_modularity(g, part)
        assert cov == coverage(g, part)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_zero_weight_graph(self, data):
        g = _graph(data.draw, st.just(0.0))
        part = Partition(np.zeros(g.n_vertices, dtype=np.int64))
        assert modularity_and_coverage(g, part) == (0.0, 1.0)
        assert (modularity(g, part), coverage(g, part)) == (0.0, 1.0)

    def test_size_mismatch_raises(self, karate):
        with pytest.raises(ValueError, match="partition size"):
            modularity_and_coverage(karate, Partition.singletons(3))
