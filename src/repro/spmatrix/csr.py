"""A from-scratch CSR sparse-matrix kernel library.

Implements exactly the operations the §VI sparse formulation needs —
construction from triplets, transpose, diagonal extraction, SpGEMM —
with fully vectorized NumPy (the expand/sort/accumulate SpGEMM is the
classic ESC formulation used by GPU and CombBLAS back ends).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.arrays import pair_order, segment_starts

__all__ = ["CSRMatrix", "spgemm"]


@dataclass
class CSRMatrix:
    """Compressed sparse row matrix with float64 values.

    Invariants: ``indptr`` has length ``n_rows + 1``; column indices are
    strictly increasing within each row (entries coalesced).
    """

    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    # ------------------------------------------------------------- build
    @classmethod
    def from_triplets(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
    ) -> "CSRMatrix":
        """Build from COO triplets, accumulating duplicates."""
        n_rows, n_cols = shape
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (len(rows) == len(cols) == len(vals)):
            raise ValueError("triplet arrays must have equal length")
        if len(rows) and (
            rows.min() < 0
            or cols.min() < 0
            or rows.max() >= n_rows
            or cols.max() >= n_cols
        ):
            raise ValueError("triplet index out of range")

        order = pair_order(rows, cols, max(n_rows, n_cols))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if len(rows):
            starts = segment_starts(rows * np.int64(n_cols) + cols)
            vals = np.add.reduceat(vals, starts)
            rows = rows[starts]
            cols = cols[starts]
        counts = np.bincount(rows, minlength=n_rows)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(n_rows, n_cols, indptr, cols, vals)

    @classmethod
    def identity(cls, n: int) -> "CSRMatrix":
        return cls(
            n,
            n,
            np.arange(n + 1, dtype=np.int64),
            np.arange(n, dtype=np.int64),
            np.ones(n),
        )

    # ----------------------------------------------------------- queries
    @property
    def nnz(self) -> int:
        return len(self.indices)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(column indices, values) of row ``i``."""
        sl = slice(self.indptr[i], self.indptr[i + 1])
        return self.indices[sl], self.data[sl]

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def diagonal(self) -> np.ndarray:
        """Dense main diagonal."""
        diag = np.zeros(min(self.n_rows, self.n_cols))
        rows = np.repeat(np.arange(self.n_rows), self.row_lengths())
        hits = rows == self.indices
        diag_rows = rows[hits]
        keep = diag_rows < len(diag)
        diag[diag_rows[keep]] = self.data[hits][keep]
        return diag

    def to_dense(self) -> np.ndarray:
        """Dense ndarray (testing / tiny matrices only)."""
        out = np.zeros(self.shape)
        rows = np.repeat(np.arange(self.n_rows), self.row_lengths())
        out[rows, self.indices] = self.data
        return out

    def to_triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = np.repeat(np.arange(self.n_rows), self.row_lengths())
        return rows, self.indices.copy(), self.data.copy()

    # -------------------------------------------------------- operations
    def transpose(self) -> "CSRMatrix":
        rows, cols, vals = self.to_triplets()
        return CSRMatrix.from_triplets(
            cols, rows, vals, (self.n_cols, self.n_rows)
        )

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix–dense vector product."""
        x = np.asarray(x, dtype=np.float64)
        if len(x) != self.n_cols:
            raise ValueError("dimension mismatch")
        rows = np.repeat(np.arange(self.n_rows), self.row_lengths())
        return np.bincount(
            rows, weights=self.data * x[self.indices], minlength=self.n_rows
        )

    def scale_rows(self, s: np.ndarray) -> "CSRMatrix":
        """Return diag(s) @ A."""
        if len(s) != self.n_rows:
            raise ValueError("dimension mismatch")
        rows = np.repeat(np.arange(self.n_rows), self.row_lengths())
        return CSRMatrix(
            self.n_rows,
            self.n_cols,
            self.indptr.copy(),
            self.indices.copy(),
            self.data * np.asarray(s, dtype=np.float64)[rows],
        )


def spgemm(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Sparse general matrix–matrix multiply, ``C = A @ B``.

    Expand–sort–compress (ESC) formulation: every nonzero ``A[i, k]``
    pairs with every nonzero of row ``k`` of ``B``; the expanded triplets
    are coalesced by the CSR builder.  Fully vectorized — the expansion
    index arithmetic is the standard segmented-gather trick.
    """
    if a.n_cols != b.n_rows:
        raise ValueError(
            f"dimension mismatch: {a.shape} @ {b.shape}"
        )
    if a.nnz == 0 or b.nnz == 0:
        return CSRMatrix.from_triplets(
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0),
            (a.n_rows, b.n_cols),
        )

    a_rows = np.repeat(np.arange(a.n_rows), a.row_lengths())
    k = a.indices  # middle index per A-nonzero
    seg_len = (b.indptr[k + 1] - b.indptr[k]).astype(np.int64)
    total = int(seg_len.sum())
    if total == 0:
        return CSRMatrix.from_triplets(
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0),
            (a.n_rows, b.n_cols),
        )
    seg_id = np.repeat(np.arange(len(seg_len)), seg_len)
    seg_base = np.cumsum(seg_len) - seg_len
    within = np.arange(total) - seg_base[seg_id]
    b_pos = b.indptr[k[seg_id]] + within

    rows = a_rows[seg_id]
    cols = b.indices[b_pos]
    vals = a.data[seg_id] * b.data[b_pos]
    return CSRMatrix.from_triplets(rows, cols, vals, (a.n_rows, b.n_cols))
