"""Vectorized array primitives used by the graph kernels.

These are the NumPy equivalents of the flat data-parallel loops the paper
writes in C: segmented reductions over bucketed edge arrays and stable
key-grouping.  Keeping them here lets the core algorithm read like the
paper's pseudocode while every hot path stays vectorized.

Sorted keys come from one place.  :func:`sort_keys` is the paper's
bucket sort of §IV-C: it packs each int64 key with its row index,
``key << b | row``, and sorts the packed values with ``ndarray.sort``,
which NumPy dispatches to an AVX-512 or AVX2 sort where the CPU has one.
The packed values are distinct, so the unstable sort returns the stable
order, and the sorted keys and the order both unpack from the sorted
values without a gather.  Callers fuse integer pairs into one key
``first * k + second`` and keep their own ``reduceat``/``np.add.at``
accumulation over the order, so float sums are taken in the same order
as with ``np.lexsort``.  :func:`strictly_increasing` proves uniqueness
of an already sorted key without sorting, and :func:`renumber_dense`
ranks dense labels through a presence bitmap.  None of them calls
NumPy's hash-based ``np.unique``, which is super-linear on large key
arrays.

Compaction is written inline.  Boolean indexing branches on every
element, so on NumPy 2.4 a mask that keeps a random half of 415k
elements indexes 4-5x slower than the gather ``a[mask.nonzero()[0]]``,
while one that keeps 97% indexes faster.  Each site uses the idiom that
cost less in total on the masks of the benchmark's detect inputs, and
the boolean mask, which allocates no index, where neither won on both
(ROADMAP records the shares and times).  The matching pass, the quality
recomputes and contraction's self-loop edges gather through one index
shared by every array they select from.  Contraction compacts no
surviving edges: its sort puts the loops last and cuts them off.
``np.flatnonzero`` wraps ``nonzero()[0]`` in a Python call that
per-pass code should not pay.
"""

from __future__ import annotations

import numpy as np

from repro.types import VERTEX_DTYPE

__all__ = [
    "group_reduce_sum",
    "segment_starts",
    "renumber_dense",
    "sort_keys",
    "strictly_increasing",
]

#: Fused pair keys ``first * k + second`` fit int64 while ``k * k`` is
#: at most this.
INT64_MAX = int(np.iinfo(np.int64).max)
#: Bits of a packed sort value (:func:`sort_keys`): all of an int64 but
#: its sign bit.
_PACK_BITS = 63


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


def sort_keys(key: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``key`` and return ``(sorted_key, order)``.

    ``key`` holds int64 values in ``[0, bound)`` and is overwritten.
    ``order`` is the permutation ``np.argsort(key, kind="stable")``
    returns, and ``sorted_key`` equals ``key[order]``.

    Each key is packed with its row index, ``key << b | row``, where
    ``b`` bits hold any row.  Packed values are distinct, so NumPy's
    unstable ``ndarray.sort`` orders them exactly as a stable sort
    orders the keys, and both results unpack from the sorted values
    without a gather.  Keys wider than the ``_PACK_BITS - b`` bits left
    are sorted least significant digit first, one packed sort per digit
    of that width.
    """
    key = np.asarray(key, dtype=np.int64)
    n = len(key)
    b = max(n - 1, 0).bit_length()
    width = _PACK_BITS - b
    rows = np.arange(n, dtype=np.int64)
    row_mask = np.int64((1 << b) - 1)
    key_bits = (int(bound) - 1).bit_length()
    if key_bits <= width:
        key <<= b
        key |= rows
        key.sort()
        order = key & row_mask
        key >>= b
        return key, order
    digit_mask = np.int64((1 << width) - 1)
    order = rows
    for shift in range(0, key_bits, width):
        digit = key[order] >> shift
        digit &= digit_mask
        digit <<= b
        digit |= rows
        digit.sort()
        digit &= row_mask
        order = order[digit]
    return key[order], order


def strictly_increasing(key: np.ndarray) -> bool:
    """True when every element is greater than the one before it.

    On a sorted key this proves there are no duplicates in one linear
    pass, without the sort that ``np.unique`` would make.
    """
    return bool(np.all(key[1:] > key[:-1]))
