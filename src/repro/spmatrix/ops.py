"""Graph algorithms as sparse-matrix expressions (§VI).

* ``adjacency_matrix`` — the community graph as a symmetric CSR matrix
  whose diagonal carries twice the self weights (the modularity volume
  convention).
* ``selector_matrix`` — the ``|V| × k`` 0/1 matrix ``S`` with
  ``S[v, mapping[v]] = 1``.
* ``contract_via_spgemm`` — contraction as the triple product
  ``Sᵀ A S`` followed by splitting the diagonal back into self weights.
  Produces *identical* results to the bucket-sort contraction (tested).
* ``matrix_modularity`` — modularity as
  ``sum(diag(C))/(2W) - ||C·1||² / (2W)²`` over the contracted matrix.
"""

from __future__ import annotations

import numpy as np

from repro.graph.edgelist import EdgeList, parity_canonical
from repro.graph.graph import CommunityGraph
from repro.spmatrix.csr import CSRMatrix, spgemm
from repro.types import VERTEX_DTYPE
from repro.util.arrays import pair_order, segment_starts

__all__ = [
    "adjacency_matrix",
    "selector_matrix",
    "contract_via_spgemm",
    "matrix_modularity",
]


def adjacency_matrix(graph: CommunityGraph) -> CSRMatrix:
    """Symmetric weighted adjacency with ``diag = 2 * self_weights``.

    With this convention the row sums equal the community volumes
    (strengths) and the total matrix sum is ``2W``.
    """
    e = graph.edges
    n = graph.n_vertices
    rows = np.concatenate([e.ei, e.ej, np.arange(n, dtype=VERTEX_DTYPE)])
    cols = np.concatenate([e.ej, e.ei, np.arange(n, dtype=VERTEX_DTYPE)])
    vals = np.concatenate([e.w, e.w, 2.0 * graph.self_weights])
    mat = CSRMatrix.from_triplets(rows, cols, vals, (n, n))
    # Drop explicit zeros introduced by zero self weights.
    return _drop_zeros(mat)


def _drop_zeros(mat: CSRMatrix) -> CSRMatrix:
    keep = mat.data != 0.0
    if keep.all():
        return mat
    rows, cols, vals = mat.to_triplets()
    return CSRMatrix.from_triplets(
        rows[keep], cols[keep], vals[keep], mat.shape
    )


def selector_matrix(mapping: np.ndarray, k: int) -> CSRMatrix:
    """The 0/1 community-selector ``S`` with ``S[v, mapping[v]] = 1``."""
    mapping = np.asarray(mapping, dtype=np.int64)
    n = len(mapping)
    if len(mapping) and (mapping.min() < 0 or mapping.max() >= k):
        raise ValueError("mapping entry out of range")
    return CSRMatrix(
        n,
        k,
        np.arange(n + 1, dtype=np.int64),
        mapping.copy(),
        np.ones(n),
    )


def contract_via_spgemm(
    graph: CommunityGraph, mapping: np.ndarray, k: int
) -> CommunityGraph:
    """Contraction as ``Sᵀ A S`` — the Combinatorial-BLAS formulation.

    The result is representation-identical to
    :func:`repro.core.contraction.contract`'s output for the same map:
    off-diagonal entries become parity-hashed bucketed edges, half the
    diagonal becomes the self-weight array.
    """
    a = adjacency_matrix(graph)
    s = selector_matrix(mapping, k)
    coarse = spgemm(spgemm(s.transpose(), a), s)

    rows, cols, vals = coarse.to_triplets()
    diag_mask = rows == cols
    new_self = np.zeros(k)
    new_self[rows[diag_mask]] = vals[diag_mask] / 2.0

    # Each off-diagonal edge appears twice (symmetric); keep one copy.
    off = ~diag_mask & (rows < cols)
    first, second = parity_canonical(
        rows[off].astype(VERTEX_DTYPE), cols[off].astype(VERTEX_DTYPE)
    )
    w = vals[off]
    order = pair_order(first, second, k)
    first, second, w = first[order], second[order], w[order]
    if len(first):
        starts = segment_starts(first * np.int64(k) + second)
        w = np.add.reduceat(w, starts)
        first = first[starts]
        second = second[starts]
    edges = EdgeList._from_grouped(first, second, w, k)
    return CommunityGraph(edges, new_self)


def matrix_modularity(graph: CommunityGraph, mapping: np.ndarray, k: int) -> float:
    """Modularity of the partition ``mapping`` as a matrix expression.

    ``Q = tr(Sᵀ A S)/(2W) − ‖(Sᵀ A S)·1‖² / (2W)²`` with ``A`` including
    the doubled self-loop diagonal.
    """
    a = adjacency_matrix(graph)
    s = selector_matrix(mapping, k)
    coarse = spgemm(spgemm(s.transpose(), a), s)
    two_w = float(a.data.sum())
    if two_w == 0:
        return 0.0
    internal = float(coarse.diagonal().sum())
    volumes = coarse.matvec(np.ones(k))
    return internal / two_w - float((volumes**2).sum()) / two_w**2
