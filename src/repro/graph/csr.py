"""Compressed sparse row adjacency view.

The bucketed edge list stores each edge once; traversal algorithms
(components, refinement, the sequential baselines) want the full adjacency
of each vertex.  ``CSRAdjacency`` materializes the symmetric expansion — the
classic xadj/adjncy/weight layout of METIS and the paper's SNAP baseline —
in three vectorized passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE

__all__ = ["CSRAdjacency"]


@dataclass
class CSRAdjacency:
    """Symmetric CSR adjacency: ``adj[xadj[v]:xadj[v+1]]`` are v's neighbors."""

    xadj: np.ndarray
    adj: np.ndarray
    weight: np.ndarray
    n_vertices: int

    @classmethod
    def from_edgelist(cls, edges: EdgeList) -> "CSRAdjacency":
        """Expand a once-stored edge list to full symmetric adjacency."""
        n = edges.n_vertices
        m = edges.n_edges
        # Each edge contributes two directed arcs.
        src = np.concatenate([edges.ei, edges.ej])
        dst = np.concatenate([edges.ej, edges.ei])
        wgt = np.concatenate([edges.w, edges.w])
        order = np.argsort(src, kind="stable")
        src = src[order]
        dst = dst[order]
        wgt = wgt[order]
        counts = np.bincount(src, minlength=n)
        xadj = np.zeros(n + 1, dtype=VERTEX_DTYPE)
        np.cumsum(counts, out=xadj[1:])
        assert xadj[-1] == 2 * m
        return cls(
            xadj=xadj,
            adj=dst.astype(VERTEX_DTYPE, copy=False),
            weight=wgt.astype(WEIGHT_DTYPE, copy=False),
            n_vertices=n,
        )

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor ids of vertex ``v`` (no self loops; each once)."""
        return self.adj[self.xadj[v] : self.xadj[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors`."""
        return self.weight[self.xadj[v] : self.xadj[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.xadj[v + 1] - self.xadj[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.xadj)
