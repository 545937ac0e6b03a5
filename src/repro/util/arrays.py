"""Vectorized array primitives used by the graph kernels.

These are the NumPy equivalents of the flat data-parallel loops the paper
writes in C: segmented reductions over bucketed edge arrays and stable
key-grouping.  Keeping them here lets the core algorithm read like the
paper's pseudocode while every hot path stays vectorized.

Sorted keys come from one place.  :func:`radix_order` is the paper's
bucket sort of §IV-C: a stable LSD radix over the 16-bit digits
(:func:`radix_digits`) of a fused pair key ``first * k + second``, each
digit one NumPy counting sort.  Contraction builds that key itself;
:func:`pair_order` builds it from two arrays.  Both return an *order*,
never sums: callers keep their own ``reduceat``/``bincount``
accumulation, so float sums are taken in the same order as with
``np.lexsort``.  :func:`strictly_increasing` proves uniqueness of an
already sorted key without sorting, and :func:`renumber_dense` ranks dense
labels through a presence bitmap.  None of them calls NumPy's hash-based
``np.unique``, which is super-linear on large key arrays.

Compaction is written inline.  Boolean indexing branches on every
element, so on NumPy 2.4 a mask that keeps a random half of 415k
elements indexes 4-5x slower than the gather ``a[mask.nonzero()[0]]``,
while one that keeps 97% indexes faster.  Each site uses the idiom that
cost less in total on the masks of the benchmark's detect inputs, and
the boolean mask, which allocates no index, where neither won on both
(ROADMAP records the shares and times).  The matching pass, the quality
recomputes and contraction's self-loop edges gather through one index
shared by every array they select from; contraction's surviving edges,
95% or more of them, keep the boolean mask.  ``np.flatnonzero`` wraps
``nonzero()[0]`` in a Python call that per-pass code should not pay.
"""

from __future__ import annotations

import numpy as np

from repro.types import VERTEX_DTYPE

__all__ = [
    "group_reduce_sum",
    "segment_starts",
    "renumber_dense",
    "pair_order",
    "radix_digits",
    "radix_order",
    "strictly_increasing",
]

#: Fused pair keys ``first * k + second`` fit int64 while ``k * k`` is
#: at most this.
INT64_MAX = int(np.iinfo(np.int64).max)


def group_reduce_sum(
    keys: np.ndarray, values: np.ndarray, n_keys: int
) -> np.ndarray:
    """Sum ``values`` grouped by integer ``keys`` into a dense ``n_keys`` array.

    Equivalent to the paper's atomic fetch-and-add accumulation loop; here it
    is a single ``np.bincount`` (one pass over the data, no locks needed).
    """
    if len(keys) != len(values):
        raise ValueError("keys and values must have the same length")
    return np.bincount(keys, weights=values, minlength=n_keys).astype(
        values.dtype, copy=False
    )


def segment_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Indices where each run of equal values begins in a sorted key array.

    ``sorted_keys`` must be non-decreasing.  Returns an index array suitable
    for ``np.add.reduceat``-style segmented reductions.  Empty input yields an
    empty index array.
    """
    if len(sorted_keys) == 0:
        return np.empty(0, dtype=np.intp)
    mask = np.empty(len(sorted_keys), dtype=bool)
    mask[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=mask[1:])
    return mask.nonzero()[0]


def renumber_dense(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Map arbitrary integer labels onto ``0..k-1`` preserving order of first
    sorted appearance.

    Returns ``(new_labels, k)``.  This is the compaction step at the end of a
    contraction: surviving community representatives get consecutive ids.

    Equal to ``np.unique(labels, return_inverse=True)``'s inverse.  Dense
    non-negative integer labels (the maximum below twice the length) are
    ranked in ``O(n)`` by a presence bitmap and its prefix sum; negative,
    non-integer or sparse labels take ``np.unique`` itself.
    """
    labels = np.asarray(labels)
    if labels.ndim == 1 and len(labels) and labels.dtype.kind in "iu":
        lo, hi = int(labels.min()), int(labels.max())
        if lo >= 0 and hi < 2 * len(labels):
            present = np.zeros(hi + 1, dtype=bool)
            present[labels] = True
            rank = np.cumsum(present, dtype=VERTEX_DTYPE)
            return rank[labels] - 1, int(rank[-1])
    uniq, inv = np.unique(labels, return_inverse=True)
    return inv.astype(VERTEX_DTYPE, copy=False), int(len(uniq))


def radix_digits(key: np.ndarray, k: int) -> np.ndarray:
    """The 16-bit digit rows that sort the fused pair keys ``key``.

    ``key`` holds int64 values ``first * k + second`` below ``k * k``.
    Row ``d`` holds digit ``d`` of every key, least significant first:
    one row per 16 bits of ``k * k``, two for any ``k`` up to 65,536.
    """
    passes = max(1, -(-(k * k - 1).bit_length() // 16))
    digits = key.astype("<i8", copy=False).view("<u2").reshape(-1, 4)
    return digits.T[:passes].copy()


def radix_order(digits: np.ndarray) -> np.ndarray:
    """The stable order of the keys whose :func:`radix_digits` are ``digits``.

    An LSD radix sort: each row is sorted with NumPy's stable ``argsort``
    on ``uint16``, a counting sort, least significant row first.
    """
    order = np.argsort(digits[0], kind="stable")
    for digit in digits[1:]:
        order = order[np.argsort(digit[order], kind="stable")]
    return order


def pair_order(first: np.ndarray, second: np.ndarray, k: int) -> np.ndarray:
    """The permutation ``np.lexsort((second, first))`` returns.

    That is, indices sorting by ``first`` then ``second``, equal pairs kept
    in input order.  Requires ``0 <= first, second < k``.  The pairs fuse
    into the int64 key ``first * k + second``, which :func:`radix_order`
    sorts.  When ``k * k`` overflows int64 it falls back to ``np.lexsort``.
    """
    k = int(k)
    if k * k > INT64_MAX:
        return np.lexsort((second, first))
    key = np.asarray(first, dtype=np.int64) * np.int64(k) + np.asarray(
        second, dtype=np.int64
    )
    digits = radix_digits(key, k)
    # The key is not needed while sorting; freeing it lowers the peak.
    del key
    return radix_order(digits)


def strictly_increasing(key: np.ndarray) -> bool:
    """True when every element is greater than the one before it.

    On a sorted key this proves there are no duplicates in one linear
    pass, without the sort that ``np.unique`` would make.
    """
    return bool(np.all(key[1:] > key[:-1]))
