"""Newman–Girvan modularity.

Convention: for total input edge weight ``W`` (every undirected edge
counted once, a self loop contributing its weight once),

.. math::  Q = \\sum_c \\left[ \\frac{in_c}{W}
              - \\left(\\frac{vol_c}{2W}\\right)^2 \\right]

where ``in_c`` is the weight inside community ``c`` and
``vol_c = 2 in_c + cut_c`` its volume.  This matches the community-graph
bookkeeping: after contracting an entire community into one vertex,
``in_c`` is its self weight and ``vol_c`` its strength — so modularity of
a partition of the input graph equals the closed-form modularity of the
contracted community graph, an identity the test suite checks.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import CommunityGraph
from repro.metrics.partition import Partition
from repro.util.arrays import group_reduce_sum

__all__ = [
    "modularity",
    "modularity_and_coverage",
    "community_graph_modularity",
]


def modularity(graph: CommunityGraph, partition: Partition) -> float:
    """Modularity of ``partition`` on ``graph``.

    ``graph`` is typically the *input* graph (all self weights zero), but
    any community graph works: its self weights count as internal to
    whatever community the vertex belongs to.
    """
    return modularity_and_coverage(graph, partition)[0]


def modularity_and_coverage(
    graph: CommunityGraph, partition: Partition
) -> tuple[float, float]:
    """``(modularity, coverage)`` of ``partition`` from one pass over the edges.

    One label gather per endpoint array and one index of the internal
    edges serve both values, which equal :func:`modularity` and
    :func:`~repro.metrics.coverage.coverage` bit for bit.  A zero-weight
    graph gives ``(0.0, 1.0)``.
    """
    if partition.n_vertices != graph.n_vertices:
        raise ValueError("partition size does not match graph")
    w_total = graph.total_weight()
    if w_total == 0:
        return 0.0, 1.0
    labels = partition.labels
    k = partition.n_communities
    e = graph.edges

    li = labels[e.ei]
    inside = (li == labels[e.ej]).nonzero()[0]
    w_internal = e.w[inside]
    internal = group_reduce_sum(li[inside], w_internal, k)
    internal += group_reduce_sum(labels, graph.self_weights, k)

    vol = group_reduce_sum(labels, graph.strengths(), k)
    q = float((internal / w_total - (vol / (2.0 * w_total)) ** 2).sum())
    cov = (float(w_internal.sum()) + graph.internal_weight()) / w_total
    return q, cov


def community_graph_modularity(graph: CommunityGraph) -> float:
    """Closed-form modularity when each vertex *is* a community.

    For the agglomerative driver this evaluates the current clustering in
    O(|V|) from the self-weight and strength arrays alone.
    """
    w_total = graph.total_weight()
    if w_total == 0:
        return 0.0
    vol = graph.strengths()
    return float(
        (graph.self_weights / w_total - (vol / (2.0 * w_total)) ** 2).sum()
    )
