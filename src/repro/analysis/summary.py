"""Per-community statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import CommunityGraph
from repro.metrics.conductance import conductances
from repro.metrics.partition import Partition
from repro.util.arrays import group_reduce_sum

__all__ = ["CommunityStats", "community_summary"]


@dataclass(frozen=True)
class CommunityStats:
    """Vectorized per-community statistics (arrays indexed by community).

    Attributes
    ----------
    sizes:
        Vertex count per community.
    internal_weight:
        Edge weight inside each community (self weights included).
    cut_weight:
        Edge weight crossing each community's boundary.
    volume:
        ``2 * internal + cut`` — the modularity volume.
    internal_density:
        ``internal / (size choose 2)``; 0 for singletons.
    conductance:
        Normalized cut per community.
    """

    sizes: np.ndarray
    internal_weight: np.ndarray
    cut_weight: np.ndarray
    volume: np.ndarray
    internal_density: np.ndarray
    conductance: np.ndarray

    @property
    def n_communities(self) -> int:
        return len(self.sizes)

    def as_rows(self, top: int | None = None) -> list[list]:
        """Rows (community id, size, internal, cut, density, conductance)
        sorted by size descending — ready for table formatting."""
        order = np.argsort(-self.sizes, kind="stable")
        if top is not None:
            order = order[:top]
        return [
            [
                int(c),
                int(self.sizes[c]),
                float(self.internal_weight[c]),
                float(self.cut_weight[c]),
                round(float(self.internal_density[c]), 4),
                round(float(self.conductance[c]), 4),
            ]
            for c in order
        ]


def community_summary(
    graph: CommunityGraph, partition: Partition
) -> CommunityStats:
    """Compute all per-community statistics in a few vectorized passes."""
    if partition.n_vertices != graph.n_vertices:
        raise ValueError("partition size does not match graph")
    labels = partition.labels
    k = partition.n_communities
    e = graph.edges

    sizes = partition.sizes()

    li = labels[e.ei]
    lj = labels[e.ej]
    internal_mask = li == lj
    inside = internal_mask.nonzero()[0]
    internal = group_reduce_sum(li[inside], e.w[inside], k)
    internal += group_reduce_sum(labels, graph.self_weights, k)

    cross = (~internal_mask).nonzero()[0]
    w_cross = e.w[cross]
    cut = group_reduce_sum(li[cross], w_cross, k)
    cut += group_reduce_sum(lj[cross], w_cross, k)

    volume = 2.0 * internal + cut

    possible = sizes * (sizes - 1) / 2.0
    density = np.zeros(k)
    np.divide(internal, possible, out=density, where=possible > 0)

    return CommunityStats(
        sizes=sizes,
        internal_weight=internal,
        cut_weight=cut,
        volume=volume,
        internal_density=density,
        conductance=conductances(graph, partition),
    )
