"""The paper's core graph representation (§IV-A).

A weighted undirected graph is an array of triples ``(i, j, w)`` with each
edge stored exactly once.  Instead of keeping the strictly lower triangle,
the *order* of the two endpoints is hashed by parity:

* if ``i`` and ``j`` are both even or both odd, store ``i < j``;
* otherwise store ``i > j``.

This scatters the edges of high-degree vertices across different source
buckets — with a strict lower-triangle layout, a hub vertex ``0`` would own
every one of its edges in a single giant bucket, serializing the per-bucket
loops of the matching and contraction kernels.

Edges are grouped into *buckets* by the first stored endpoint; per-vertex
``bucket_start``/``bucket_end`` index arrays locate each bucket.  The paper
notes the buckets need not be contiguous (which removes a prefix-sum
synchronization from contraction); this implementation keeps them contiguous
in memory but preserves the two-array indexing so the accounting matches.

Space: ``3|E|`` words for the triples plus ``2|V|`` words of bucket offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvariantViolation
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE
from repro.util.arrays import (
    INT64_MAX,
    segment_starts,
    sort_keys,
    strictly_increasing,
)

__all__ = [
    "EdgeList",
    "parity_canonical",
    "parity_min_first",
    "parity_key",
    "lexsorted_parity_keys",
    "lower_triangle_canonical",
    "bucket_sizes",
]


def parity_min_first(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Where the parity hash stores an edge's smaller endpoint first.

    True for same-parity endpoints; mixed-parity edges store the larger
    endpoint first.
    """
    return ((i ^ j) & 1) == 0


def parity_key(lo: np.ndarray, hi: np.ndarray, k: int) -> np.ndarray:
    """The fused key ``first * k + second`` of each parity-ordered edge.

    ``lo`` and ``hi`` are each edge's smaller and larger endpoint, below
    ``k``, and ``k * k`` must fit in int64.  As ``first + second`` is
    ``lo + hi``, the key is ``first * (k - 1) + lo + hi``; keys sort by
    ``first`` and then by ``second``.  A loop (``lo == hi``) gets
    ``lo * (k + 1)``.
    """
    key = np.where(parity_min_first(lo, hi), lo, hi)
    key *= k - 1
    key += lo
    key += hi
    return key


def lexsorted_parity_keys(
    lo: np.ndarray, hi: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`parity_key` for a ``k`` whose ``k * k`` overflows int64.

    Returns the keys as Python ints, sorted, and the order that sorts
    them: ``np.lexsort`` of the parity-ordered pairs.
    """
    first = np.where(parity_min_first(lo, hi), lo, hi)
    second = lo + hi - first
    order = np.lexsort((second, first))
    return (first.astype(object) * k + second)[order], order


def parity_canonical(
    i: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the paper's parity hash to choose each edge's stored order.

    Returns ``(first, second)`` arrays: same-parity endpoints are returned as
    ``(min, max)``, mixed-parity as ``(max, min)``.  Self loops (``i == j``)
    are returned unchanged; callers are expected to have split them out.
    """
    i = np.asarray(i, dtype=VERTEX_DTYPE)
    j = np.asarray(j, dtype=VERTEX_DTYPE)
    min_first = parity_min_first(i, j)
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    first = np.where(min_first, lo, hi)
    second = np.where(min_first, hi, lo)
    return first, second


def lower_triangle_canonical(
    i: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The naive alternative to the parity hash: always store ``min, max``.

    Provided for the §IV-A ablation: under this ordering a low-id hub owns
    *all* of its edges in one bucket, serializing per-bucket loops; the
    parity hash scatters roughly half of them to the neighbors' buckets.
    """
    i = np.asarray(i, dtype=VERTEX_DTYPE)
    j = np.asarray(j, dtype=VERTEX_DTYPE)
    return np.minimum(i, j), np.maximum(i, j)


def bucket_sizes(first: np.ndarray, n_vertices: int) -> np.ndarray:
    """Edges per bucket for a given stored-first-endpoint assignment."""
    return np.bincount(
        np.asarray(first, dtype=VERTEX_DTYPE), minlength=n_vertices
    ).astype(VERTEX_DTYPE)


@dataclass
class EdgeList:
    """Bucketed array-of-triples edge store.

    Invariants (checked by :meth:`validate`):

    * every edge satisfies the parity-hash ordering and ``ei != ej``;
    * edges are grouped by ``ei`` in non-decreasing order;
    * ``bucket_start``/``bucket_end`` delimit each vertex's bucket;
    * no duplicate ``{i, j}`` pairs (duplicates must be accumulated into
      weights at build time).
    """

    ei: np.ndarray
    ej: np.ndarray
    w: np.ndarray
    n_vertices: int
    bucket_start: np.ndarray
    bucket_end: np.ndarray

    # ------------------------------------------------------------------ build
    @classmethod
    def from_raw(
        cls,
        i: np.ndarray,
        j: np.ndarray,
        w: np.ndarray | None,
        n_vertices: int,
        *,
        accumulate: bool = True,
    ) -> "EdgeList":
        """Build from arbitrary endpoint arrays (no self loops allowed).

        Duplicate edges — in either orientation — are accumulated into a
        single triple when ``accumulate`` is true, mirroring the paper's
        "accumulate repeated edges by adding their weights".
        """
        i = np.asarray(i, dtype=VERTEX_DTYPE)
        j = np.asarray(j, dtype=VERTEX_DTYPE)
        if i.shape != j.shape or i.ndim != 1:
            raise ValueError("endpoint arrays must be equal-length 1-D")
        if w is None:
            w = np.ones(len(i), dtype=WEIGHT_DTYPE)
        else:
            w = np.asarray(w, dtype=WEIGHT_DTYPE)
            if w.shape != i.shape:
                raise ValueError("weight array must match endpoint arrays")
        if len(i) and (
            min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n_vertices
        ):
            raise ValueError("endpoint out of range for n_vertices")
        if np.any(i == j):
            raise ValueError(
                "self loops are not stored in EdgeList; split them into the "
                "CommunityGraph self-weight array first"
            )

        # Sorting by the fused key groups the edges by first endpoint and
        # makes duplicates adjacent.  Only the weights are permuted; the
        # endpoints are split back out of the summed keys.
        n = int(n_vertices)
        lo = np.minimum(i, j)
        hi = np.maximum(i, j)
        if n * n <= INT64_MAX:
            key = parity_key(lo, hi, n)
            # Each array dropped before the sort lowers the peak.
            del lo, hi
            if strictly_increasing(key):
                # Grouped already and free of duplicates, as every list
                # ``write_edgelist`` wrote reads back.  The copy keeps the
                # built list off the caller's weights.
                return cls._from_keys(key, w.copy(), n)
            key, order = sort_keys(key, n * n)
        else:
            key, order = lexsorted_parity_keys(lo, hi, n)
        w = w[order]
        del order

        if accumulate and len(key):
            starts = segment_starts(key)
            w = np.add.reduceat(w, starts)
            key = key[starts]
        return cls._from_keys(key, w, n)

    @classmethod
    def _from_keys(cls, key: np.ndarray, w: np.ndarray, n: int) -> "EdgeList":
        """Assemble from sorted, distinct keys ``first * n + second``;
        ``key`` is overwritten."""
        first = key // n
        key %= n  # now the second endpoints
        return cls._from_grouped(
            first.astype(VERTEX_DTYPE, copy=False), key, w, n
        )

    @classmethod
    def _from_grouped(
        cls,
        first: np.ndarray,
        second: np.ndarray,
        w: np.ndarray,
        n_vertices: int,
    ) -> "EdgeList":
        """Assemble from already canonical, ``first``-sorted, deduped arrays."""
        counts = np.bincount(first, minlength=n_vertices) if len(first) else np.zeros(
            n_vertices, dtype=np.int64
        )
        bucket_end = np.cumsum(counts).astype(VERTEX_DTYPE)
        bucket_start = np.empty_like(bucket_end)
        if n_vertices:
            bucket_start[0] = 0
            bucket_start[1:] = bucket_end[:-1]
        return cls(
            ei=np.ascontiguousarray(first, dtype=VERTEX_DTYPE),
            ej=np.ascontiguousarray(second, dtype=VERTEX_DTYPE),
            w=np.ascontiguousarray(w, dtype=WEIGHT_DTYPE),
            n_vertices=int(n_vertices),
            bucket_start=bucket_start,
            bucket_end=bucket_end,
        )

    # ------------------------------------------------------------- properties
    @property
    def n_edges(self) -> int:
        """Number of unique non-self edges (each stored once)."""
        return len(self.ei)

    def memory_words(self) -> int:
        """64-bit words used: 3|E| triples + 2|V| bucket offsets."""
        return 3 * self.n_edges + 2 * self.n_vertices

    # -------------------------------------------------------------- accessors
    def bucket(self, v: int) -> slice:
        """Slice of the edge arrays holding vertex ``v``'s bucket.

        The bucket contains only edges whose *stored first* endpoint is
        ``v`` — an edge ``{i, j}`` lives in exactly one of the two endpoint
        buckets, per the parity hash.
        """
        if not 0 <= v < self.n_vertices:
            raise IndexError(f"vertex {v} out of range")
        return slice(int(self.bucket_start[v]), int(self.bucket_end[v]))

    def degrees(self) -> np.ndarray:
        """Unweighted degree of every vertex (self loops excluded)."""
        deg = np.bincount(self.ei, minlength=self.n_vertices)
        deg += np.bincount(self.ej, minlength=self.n_vertices)
        return deg.astype(VERTEX_DTYPE)

    def strengths(self) -> np.ndarray:
        """Sum of incident edge weights per vertex (self loops excluded)."""
        # ``np.add.at`` reads a measured graph's read-only arrays in place,
        # where ``np.bincount`` would copy them.  Both add in edge order, so
        # each side's sums are bit-identical to ``bincount(ei, weights=w)``.
        s = np.zeros(self.n_vertices, dtype=WEIGHT_DTYPE)
        np.add.at(s, self.ei, self.w)
        t = np.zeros(self.n_vertices, dtype=WEIGHT_DTYPE)
        np.add.at(t, self.ej, self.w)
        s += t
        return s

    def total_weight(self) -> float:
        """Sum of all stored edge weights."""
        return float(self.w.sum())

    def copy(self) -> "EdgeList":
        """Deep copy (used by algorithms that mutate weights in place)."""
        return EdgeList(
            ei=self.ei.copy(),
            ej=self.ej.copy(),
            w=self.w.copy(),
            n_vertices=self.n_vertices,
            bucket_start=self.bucket_start.copy(),
            bucket_end=self.bucket_end.copy(),
        )

    # ------------------------------------------------------------- validation
    def validate(self) -> None:
        """Check all representation invariants; raise InvariantViolation."""
        ei, ej = self.ei, self.ej
        if not (len(ei) == len(ej) == len(self.w)):
            raise InvariantViolation("edge arrays have mismatched lengths")
        if len(self.bucket_start) != self.n_vertices or len(
            self.bucket_end
        ) != self.n_vertices:
            raise InvariantViolation("bucket offset arrays have wrong length")
        if len(ei) == 0:
            if np.any(self.bucket_start != 0) or np.any(self.bucket_end != 0):
                raise InvariantViolation("bucket offsets do not tile the edge array")
            return
        if ei.min() < 0 or max(ei.max(), ej.max()) >= self.n_vertices:
            raise InvariantViolation("endpoint out of range")
        if np.any(ei == ej):
            raise InvariantViolation("self loop stored in edge list")
        # With no self loops, an edge is stored smaller endpoint first
        # exactly where the parity rule says so.
        if np.any((ei < ej) != parity_min_first(ei, ej)):
            raise InvariantViolation("parity-hash ordering violated")
        if np.any(np.diff(ei) < 0):
            raise InvariantViolation("edges not grouped by first endpoint")
        # Bucket offsets must tile the edge array: bucket v is exactly the
        # run of edges whose first endpoint is v.
        counts = np.bincount(ei, minlength=self.n_vertices)
        ends = np.cumsum(counts)
        if not np.array_equal(self.bucket_end, ends) or not np.array_equal(
            self.bucket_start, ends - counts
        ):
            raise InvariantViolation("bucket offsets do not tile the edge array")
        # Duplicates: within a bucket, second endpoints must be unique.  Keys
        # of a canonical list are strictly increasing; a list shuffled within
        # its buckets is sorted before adjacent keys are compared.
        key = ei * np.int64(self.n_vertices) + ej
        if not strictly_increasing(key):
            key = np.sort(key)
            if np.any(key[1:] == key[:-1]):
                raise InvariantViolation("duplicate edge pair present")
