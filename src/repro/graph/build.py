"""Builders converting raw edge data and NetworkX graphs into
:class:`~repro.graph.graph.CommunityGraph`."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.graph.graph import CommunityGraph
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE
from repro.util.arrays import group_reduce_sum

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx

__all__ = ["from_edges", "from_networkx", "to_networkx"]


def from_edges(
    i: np.ndarray,
    j: np.ndarray,
    w: np.ndarray | None = None,
    n_vertices: int | None = None,
) -> CommunityGraph:
    """Build a community graph from endpoint arrays.

    Handles everything a raw generator or file may produce: self loops are
    folded into the self-weight array, repeated edges (in either orientation)
    are accumulated into a single weighted triple.  Unweighted input gets
    unit weights.
    """
    i = np.asarray(i, dtype=VERTEX_DTYPE).ravel()
    j = np.asarray(j, dtype=VERTEX_DTYPE).ravel()
    if i.shape != j.shape:
        raise ValueError("endpoint arrays must have the same length")
    if w is None:
        w = np.ones(len(i), dtype=WEIGHT_DTYPE)
    else:
        w = np.asarray(w, dtype=WEIGHT_DTYPE).ravel()
        if w.shape != i.shape:
            raise ValueError("weight array must match endpoint arrays")
    if n_vertices is None:
        n_vertices = int(max(i.max(), j.max())) + 1 if len(i) else 0
    if len(i) and min(i.min(), j.min()) < 0:
        raise ValueError("negative vertex id")

    loops = i == j
    self_weights = group_reduce_sum(i[loops], w[loops], n_vertices)
    keep = ~loops
    edges = EdgeList.from_raw(i[keep], j[keep], w[keep], n_vertices)
    return CommunityGraph(edges, self_weights)


def from_networkx(g: "networkx.Graph") -> tuple[CommunityGraph, list]:
    """Convert an undirected NetworkX graph (``weight`` attribute honoured).

    Returns the community graph plus the node list mapping dense ids back to
    the original node labels (``nodes[dense_id] -> label``).
    """
    nodes = list(g.nodes())
    index = {node: k for k, node in enumerate(nodes)}
    m = g.number_of_edges()
    i = np.empty(m, dtype=VERTEX_DTYPE)
    j = np.empty(m, dtype=VERTEX_DTYPE)
    w = np.empty(m, dtype=WEIGHT_DTYPE)
    for k, (u, v, data) in enumerate(g.edges(data=True)):
        i[k] = index[u]
        j[k] = index[v]
        w[k] = data.get("weight", 1.0)
    return from_edges(i, j, w, n_vertices=len(nodes)), nodes


def to_networkx(graph: CommunityGraph) -> "networkx.Graph":
    """Convert back to NetworkX (self weights become self-loop edges)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.n_vertices))
    e = graph.edges
    for i, j, w in zip(e.ei.tolist(), e.ej.tolist(), e.w.tolist()):
        g.add_edge(i, j, weight=w)
    for v in np.flatnonzero(graph.self_weights).tolist():
        g.add_edge(v, v, weight=float(graph.self_weights[v]))
    return g
