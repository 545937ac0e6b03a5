"""Sparse-matrix formulation of the algorithm's primitives (§VI).

The paper closes: "Much of the algorithm can be expressed through sparse
matrix operations, which may lead to explicitly distributed memory
implementations through the Combinatorial BLAS."  This subpackage makes
that concrete: a small CSR matrix kernel library (built from scratch, no
scipy), the contraction expressed as the triple product ``Sᵀ A S`` with a
selector matrix ``S``, and modularity as a matrix expression.  The
equivalence with the bucket-sort contraction is property-tested.
"""

from repro.spmatrix.csr import CSRMatrix, spgemm
from repro.spmatrix.ops import (
    adjacency_matrix,
    selector_matrix,
    contract_via_spgemm,
    matrix_modularity,
)

__all__ = [
    "CSRMatrix",
    "spgemm",
    "adjacency_matrix",
    "selector_matrix",
    "contract_via_spgemm",
    "matrix_modularity",
]
