"""Triangle counting and clustering coefficients.

Implements the forward/compact algorithm: orient each edge from lower to
higher *degree* (ties by id), then intersect out-neighborhoods per edge.
Each triangle is counted exactly once at its smallest-rank vertex pair.

Clustering coefficients quantify community structure; [36] (cited by the
paper) shows R-MAT graphs have vanishing clustering, which is why the
paper calls them "known not to possess significant community structure".
The quality benchmarks verify exactly that contrast against the planted
graphs.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRAdjacency
from repro.graph.graph import CommunityGraph
from repro.types import VERTEX_DTYPE
from repro.util.arrays import pair_order

__all__ = [
    "triangle_counts",
    "local_clustering_coefficients",
    "global_clustering_coefficient",
]


def _oriented_adjacency(graph: CommunityGraph) -> tuple[np.ndarray, np.ndarray]:
    """Each edge once, oriented by (degree, id) rank: src -> dst."""
    e = graph.edges
    deg = e.degrees()
    rank = deg.astype(np.int64) * np.int64(graph.n_vertices + 1) + np.arange(
        graph.n_vertices
    )
    forward = rank[e.ei] < rank[e.ej]
    src = np.where(forward, e.ei, e.ej)
    dst = np.where(forward, e.ej, e.ei)
    return src.astype(VERTEX_DTYPE), dst.astype(VERTEX_DTYPE)


def triangle_counts(graph: CommunityGraph) -> np.ndarray:
    """Number of triangles through each vertex.

    The sum over vertices is three times the triangle count of the graph.
    """
    n = graph.n_vertices
    counts = np.zeros(n, dtype=np.int64)
    if graph.n_edges == 0:
        return counts
    src, dst = _oriented_adjacency(graph)

    # Build oriented CSR: out-neighbors sorted per vertex.
    order = pair_order(src, dst, n)
    src, dst = src[order], dst[order]
    out_deg = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_deg, out=indptr[1:])

    # For each oriented edge (u, v): |out(u) ∩ out(v)| closes triangles.
    for k in range(len(src)):
        u, v = src[k], dst[k]
        a = dst[indptr[u] : indptr[u + 1]]
        b = dst[indptr[v] : indptr[v + 1]]
        common = np.intersect1d(a, b, assume_unique=True)
        if len(common):
            counts[u] += len(common)
            counts[v] += len(common)
            np.add.at(counts, common, 1)
    return counts


def local_clustering_coefficients(graph: CommunityGraph) -> np.ndarray:
    """Per-vertex clustering: triangles / possible neighbor pairs."""
    tri = triangle_counts(graph)
    deg = graph.edges.degrees().astype(np.float64)
    possible = deg * (deg - 1) / 2.0
    out = np.zeros(graph.n_vertices)
    np.divide(tri, possible, out=out, where=possible > 0)
    return out


def global_clustering_coefficient(graph: CommunityGraph) -> float:
    """Transitivity: 3 · triangles / open wedges."""
    tri_total = int(triangle_counts(graph).sum()) // 3
    deg = graph.edges.degrees().astype(np.float64)
    wedges = float((deg * (deg - 1) / 2.0).sum())
    if wedges == 0:
        return 0.0
    return 3.0 * tri_total / wedges
