"""The 10th DIMACS Implementation Challenge's clustering objectives.

The paper's termination rule follows the challenge rules [27]; the
challenge judged clusterings on several objectives beyond modularity and
coverage.  Implemented here:

* **performance** — the fraction of vertex pairs classified correctly
  (same-cluster pairs that are edges plus different-cluster pairs that
  are non-edges), computed in O(|E| + |C|) via complement counting;
* **expansion** — max over clusters of cut / min(|C|, n - |C|);
* **inter-cluster conductance** — ``1 - max_c φ(c)`` (higher is better);
* **minimum intra-cluster density**.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import CommunityGraph
from repro.metrics.conductance import conductances
from repro.metrics.partition import Partition
from repro.util.arrays import group_reduce_sum

__all__ = [
    "performance",
    "expansion",
    "intercluster_conductance",
    "min_intracluster_density",
]


def _check(graph: CommunityGraph, partition: Partition) -> None:
    if partition.n_vertices != graph.n_vertices:
        raise ValueError("partition size does not match graph")


def performance(graph: CommunityGraph, partition: Partition) -> float:
    """Correctly classified vertex pairs over all pairs (unweighted).

    A pair is correct if it is an intra-cluster edge or an inter-cluster
    non-edge.  Self loops and edge weights are ignored (the challenge
    definition is combinatorial).
    """
    _check(graph, partition)
    n = graph.n_vertices
    total_pairs = n * (n - 1) / 2.0
    if total_pairs == 0:
        return 1.0
    labels = partition.labels
    e = graph.edges
    intra_edges = int(np.count_nonzero(labels[e.ei] == labels[e.ej]))
    inter_edges = e.n_edges - intra_edges
    sizes = partition.sizes().astype(np.float64)
    intra_pairs = float((sizes * (sizes - 1) / 2.0).sum())
    inter_pairs = total_pairs - intra_pairs
    correct = intra_edges + (inter_pairs - inter_edges)
    return float(correct / total_pairs)


def expansion(graph: CommunityGraph, partition: Partition) -> float:
    """Max over clusters of cut weight / min(|C|, n - |C|) (lower better)."""
    _check(graph, partition)
    labels = partition.labels
    k = partition.n_communities
    if k == 0:
        return 0.0
    e = graph.edges
    li, lj = labels[e.ei], labels[e.ej]
    cross = (li != lj).nonzero()[0]
    w_cross = e.w[cross]
    cut = group_reduce_sum(li[cross], w_cross, k)
    cut += group_reduce_sum(lj[cross], w_cross, k)
    sizes = partition.sizes().astype(np.float64)
    denom = np.minimum(sizes, graph.n_vertices - sizes)
    vals = np.zeros(k)
    np.divide(cut, denom, out=vals, where=denom > 0)
    return float(vals.max()) if k else 0.0


def intercluster_conductance(
    graph: CommunityGraph, partition: Partition
) -> float:
    """``1 - max_c φ(c)``, in [0, 1]; higher is better."""
    _check(graph, partition)
    phi = conductances(graph, partition)
    return float(1.0 - phi.max()) if len(phi) else 1.0


def min_intracluster_density(
    graph: CommunityGraph, partition: Partition
) -> float:
    """Min over non-singleton clusters of internal weight / possible pairs."""
    _check(graph, partition)
    labels = partition.labels
    k = partition.n_communities
    e = graph.edges
    li = labels[e.ei]
    inside = (li == labels[e.ej]).nonzero()[0]
    internal = group_reduce_sum(li[inside], e.w[inside], k)
    internal += group_reduce_sum(labels, graph.self_weights, k)
    sizes = partition.sizes().astype(np.float64)
    possible = sizes * (sizes - 1) / 2.0
    mask = possible > 0
    if not mask.any():
        return 0.0
    return float((internal[mask] / possible[mask]).min())
