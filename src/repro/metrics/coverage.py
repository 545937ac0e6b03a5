"""Coverage: the DIMACS-challenge measure driving the paper's termination.

Coverage of a partition is the fraction of total edge weight falling inside
communities.  The paper's performance experiments stop agglomerating once
coverage reaches 0.5 ("at least half the initial graph's edges are
contained within the communities").
"""

from __future__ import annotations

from repro.graph.graph import CommunityGraph
from repro.metrics.partition import Partition

__all__ = ["coverage", "mirror_coverage"]


def coverage(graph: CommunityGraph, partition: Partition) -> float:
    """Intra-community edge weight over total weight, in ``[0, 1]``.

    Zero-weight graphs have coverage 1 by convention (nothing is cut).
    """
    if partition.n_vertices != graph.n_vertices:
        raise ValueError("partition size does not match graph")
    w_total = graph.total_weight()
    if w_total == 0:
        return 1.0
    labels = partition.labels
    e = graph.edges
    internal = float(e.w[(labels[e.ei] == labels[e.ej]).nonzero()[0]].sum())
    internal += float(graph.self_weights.sum())
    return internal / w_total


def mirror_coverage(graph: CommunityGraph, partition: Partition) -> float:
    """1 - coverage: the fraction of weight cut by the partition."""
    return 1.0 - coverage(graph, partition)
