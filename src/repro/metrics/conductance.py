"""Community conductance (normalized cut).

For community ``c`` with volume ``vol_c`` and boundary weight ``cut_c``,

.. math::  \\phi(c) = \\frac{cut_c}{\\min(vol_c,\\ 2W - vol_c)}

The paper's second optimization criterion minimizes conductance; its edge
scorer negates the change so the same maximizing machinery applies.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import CommunityGraph
from repro.metrics.partition import Partition
from repro.util.arrays import group_reduce_sum

__all__ = ["conductances", "average_conductance"]


def conductances(graph: CommunityGraph, partition: Partition) -> np.ndarray:
    """Per-community conductance array.

    Communities spanning the whole graph (``cut = 0`` and the complement
    empty) get conductance 0 — they cut nothing.
    """
    if partition.n_vertices != graph.n_vertices:
        raise ValueError("partition size does not match graph")
    labels = partition.labels
    k = partition.n_communities
    e = graph.edges

    li = labels[e.ei]
    lj = labels[e.ej]
    cross = (li != lj).nonzero()[0]
    w_cross = e.w[cross]
    cut = group_reduce_sum(li[cross], w_cross, k)
    cut += group_reduce_sum(lj[cross], w_cross, k)

    vol = group_reduce_sum(labels, graph.strengths(), k)
    two_w = 2.0 * graph.total_weight()
    denom = np.minimum(vol, two_w - vol)
    out = np.zeros(k, dtype=np.float64)
    np.divide(cut, denom, out=out, where=denom > 0)
    return out


def average_conductance(graph: CommunityGraph, partition: Partition) -> float:
    """Mean conductance over communities (lower is better)."""
    phi = conductances(graph, partition)
    return float(phi.mean()) if len(phi) else 0.0
