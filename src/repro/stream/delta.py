"""Edge-delta batches and the canonical dynamic edge store.

A streaming update is an :class:`EdgeBatch`: parallel arrays of
endpoints, positive weights, and an op sign (+1 insert, -1 delete).
Batches serialize to a self-describing ``.npz`` payload
(:func:`encode_batch` / :func:`decode_batch`) — the bytes the
write-ahead log journals — and apply to an :class:`EdgeStore`, the
canonical weighted multiset of undirected edges the service's graph is
built from.

The store is *canonical* in the strict sense the crash-equivalence
contract needs: edges are kept as ``(lo, hi, w)`` with ``lo <= hi``
(loops included), sorted by key, one row per endpoint pair.  Applying
the same batch sequence to the same starting store therefore produces
bit-identical arrays no matter how the sequence was split across
process lifetimes — the property WAL replay leans on.

Delete semantics are *weighted*: a delete row subtracts its weight from
the pair's accumulated weight; the pair disappears when its weight
reaches zero.  Deleting more weight than exists clamps at zero and is
counted (``n_unmatched_deletes``) rather than raised — a stream
replayed against a snapshot may legitimately re-delete edges the
snapshot already dropped is *not* the case here (replay is exactly-once),
but upstream producers do emit stale deletes and a robust service
absorbs them visibly instead of dying.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import WalError
from repro.graph.build import from_edges
from repro.graph.graph import CommunityGraph
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE
from repro.util.arrays import segment_starts, sort_keys, strictly_increasing

__all__ = [
    "BATCH_SCHEMA_VERSION",
    "OP_INSERT",
    "OP_DELETE",
    "WEIGHT_EPS",
    "MAX_VERTICES",
    "EdgeBatch",
    "ApplyStats",
    "EdgeStore",
    "encode_batch",
    "decode_batch",
]

#: Version of the serialized batch payload schema.
BATCH_SCHEMA_VERSION = 1

OP_INSERT = 1
OP_DELETE = -1

#: Accumulated weights at or below this are treated as "edge gone".
WEIGHT_EPS = 1e-9

#: Vertex ids must be below this: the largest vertex count ``n`` whose
#: pair key ``lo * n + hi`` fits in int64 (3,037,000,499).
MAX_VERTICES = math.isqrt(2**63 - 1)

#: :meth:`EdgeStore.apply` splices batches of up to this many distinct
#: keys from slices of the store (:func:`_splice`), and assembles wider
#: ones, the bootstrap batch among them, through shared masks
#: (:func:`_scatter`).  On a 105,870-row store, batches of random
#: inserts cost the two the same at 256–320 keys.
_SPLICE_MAX_KEYS = 256


def _vertex_ids(values) -> np.ndarray:
    """``values`` as a flat :data:`~repro.types.VERTEX_DTYPE` array.

    Raises ``ValueError`` on an id that is fractional, not finite,
    negative, or not below :data:`MAX_VERTICES`, rather than truncating
    or wrapping it into another vertex.
    """
    ids = np.asarray(values).ravel()
    if ids.dtype.kind not in "iu":
        ids = ids.astype(np.float64)
        if not np.all(np.isfinite(ids)):
            raise ValueError("vertex ids must be finite")
        if np.any(ids != np.trunc(ids)):
            raise ValueError("vertex ids must be integers")
    if len(ids):
        if ids.min() < 0:
            raise ValueError("negative vertex id in batch")
        if ids.max() >= MAX_VERTICES:
            raise ValueError(
                f"vertex id {int(ids.max())} is not below {MAX_VERTICES}"
            )
    return ids.astype(VERTEX_DTYPE, copy=False)


@dataclass(frozen=True)
class EdgeBatch:
    """One atomic unit of graph change.

    ``seq`` is the batch's position in the stream (1-based, contiguous);
    it is the exactly-once key — a service that has applied batch ``k``
    skips any re-delivery of batches ``<= k``.  ``w`` carries positive
    weights for inserts *and* deletes; the sign lives in ``op``.  Vertex
    ids are integers in ``[0, MAX_VERTICES)``: a fractional, non-finite,
    negative or larger id raises ``ValueError``, so the service rejects
    it before anything is journaled.
    """

    seq: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    op: np.ndarray

    def __post_init__(self) -> None:
        i = _vertex_ids(self.i)
        j = _vertex_ids(self.j)
        w = np.asarray(self.w, dtype=WEIGHT_DTYPE).ravel()
        op = np.asarray(self.op, dtype=np.int8).ravel()
        if not (len(i) == len(j) == len(w) == len(op)):
            raise ValueError("batch arrays must have equal length")
        if self.seq < 1:
            raise ValueError("batch seq must be >= 1")
        if len(i):
            if not np.all(np.isfinite(w)) or float(w.min()) <= 0:
                raise ValueError("batch weights must be positive and finite")
            if not np.all((op == OP_INSERT) | (op == OP_DELETE)):
                raise ValueError("batch ops must be +1 (insert) or -1 (delete)")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "op", op)

    @classmethod
    def inserts(
        cls,
        seq: int,
        i: np.ndarray,
        j: np.ndarray,
        w: np.ndarray | None = None,
    ) -> "EdgeBatch":
        """A pure-insert batch (unit weights when ``w`` is omitted)."""
        i = np.asarray(i).ravel()
        if w is None:
            w = np.ones(len(i), dtype=WEIGHT_DTYPE)
        return cls(
            seq=seq, i=i, j=j, w=w, op=np.full(len(i), OP_INSERT, np.int8)
        )

    @property
    def n_edges(self) -> int:
        return len(self.i)

    def touched_vertices(self) -> np.ndarray:
        """Sorted unique vertex ids this batch mentions."""
        v = np.sort(np.concatenate([self.i, self.j]))
        return v[segment_starts(v)]


def encode_batch(batch: EdgeBatch) -> bytes:
    """Serialize a batch to the bytes the WAL journals.

    Members are stored, not deflated: deflating a 106k-row bootstrap
    batch cost ~60 ms for a ~10x smaller record, and the WAL is
    truncated at every snapshot.  :func:`decode_batch` still reads the
    deflated payloads older versions journaled.
    """
    buf = io.BytesIO()
    np.savez(
        buf,
        schema=np.int64(BATCH_SCHEMA_VERSION),
        seq=np.int64(batch.seq),
        i=batch.i,
        j=batch.j,
        w=batch.w,
        op=batch.op,
    )
    return buf.getvalue()


def decode_batch(data: bytes) -> EdgeBatch:
    """Inverse of :func:`encode_batch`.

    Raises :class:`~repro.errors.WalError` on a malformed payload: the
    WAL frame's CRC already vouched for the bytes, so a decode failure
    here means a schema mismatch or writer bug, not disk corruption —
    the log as recorded cannot be applied.
    """
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as z:
            schema = int(z["schema"])
            if schema != BATCH_SCHEMA_VERSION:
                raise WalError(
                    f"batch payload schema {schema} unsupported "
                    f"(expected {BATCH_SCHEMA_VERSION})"
                )
            return EdgeBatch(
                seq=int(z["seq"]), i=z["i"], j=z["j"], w=z["w"], op=z["op"]
            )
    except WalError:
        raise
    except Exception as exc:
        raise WalError(f"undecodable batch payload: {exc}") from exc


@dataclass(frozen=True)
class ApplyStats:
    """What one batch did to the store."""

    n_insert_rows: int
    n_delete_rows: int
    #: Endpoint pairs whose accumulated weight a delete pushed below
    #: zero (clamped; the over-deleted weight is dropped).
    n_unmatched_deletes: int
    #: Sorted unique vertex ids the batch mentioned — the dirty frontier
    #: the service repairs.
    touched_vertices: np.ndarray = field(repr=False)


def _splice(
    old: tuple[np.ndarray, ...],
    added: tuple[np.ndarray, ...],
    cuts: list[int],
    drops: list[bool],
) -> list[np.ndarray]:
    """One copy of each array in ``old``, changed at ``cuts`` in order.

    At each cut the old row is left out (``drops``) or the next row of
    the matching ``added`` array goes before it.  The old rows between
    cuts are copied slice by slice into a new array, and the added rows
    are written in one scatter.
    """
    segments, new_rows = [], []
    start = out = 0
    for cut, drop in zip(cuts, drops):
        segments.append((start, cut, out))
        out += cut - start
        if drop:
            start = cut + 1
        else:
            new_rows.append(out)
            out += 1
            start = cut
    n = len(old[0])
    segments.append((start, n, out))
    out += n - start
    result = []
    for arr, extra in zip(old, added):
        a = np.empty(out, dtype=arr.dtype)
        for first, end, at in segments:
            a[at : at + end - first] = arr[first:end]
        a[new_rows] = extra
        result.append(a)
    return result


def _scatter(
    old: tuple[np.ndarray, ...],
    added: tuple[np.ndarray, ...],
    before: np.ndarray,
    gone: np.ndarray,
) -> list[np.ndarray]:
    """One copy of each array in ``old``, through masks shared by all.

    The added rows go before the sorted old rows ``before``, and the
    sorted old rows ``gone`` are left out.  Each added row lands at its
    old row's position, shifted left by the rows dropped ahead of it and
    right by the rows added ahead of it; the old rows that stay fill the
    other slots in order.  The masks cost a pass each, so this pays for
    a batch too wide to splice.
    """
    at = before - np.searchsorted(gone, before) + np.arange(len(before))
    n = len(old[0])
    stays = np.ones(n, dtype=bool)
    stays[gone] = False
    slots = np.ones(n - len(gone) + len(at), dtype=bool)
    slots[at] = False
    result = []
    for arr, extra in zip(old, added):
        a = np.empty(len(slots), dtype=arr.dtype)
        a[at] = extra
        a[slots] = arr[stays]
        result.append(a)
    return result


class EdgeStore:
    """Canonical weighted multiset of undirected edges (loops included).

    Invariants (checked by :meth:`validate`): ``0 <= lo <= hi <
    n_vertices``, keys ``(lo, hi)`` strictly increasing, weights
    positive and finite.  ``n_vertices`` grows monotonically — a vertex
    id, once seen, keeps its meaning forever, which is what lets labels
    survive across batches.
    """

    def __init__(
        self,
        n_vertices: int,
        lo: np.ndarray,
        hi: np.ndarray,
        w: np.ndarray,
    ) -> None:
        self.n_vertices = int(n_vertices)
        self.lo = np.asarray(lo, dtype=VERTEX_DTYPE).ravel()
        self.hi = np.asarray(hi, dtype=VERTEX_DTYPE).ravel()
        self.w = np.asarray(w, dtype=WEIGHT_DTYPE).ravel()

    @classmethod
    def empty(cls) -> "EdgeStore":
        return cls(
            0,
            np.empty(0, VERTEX_DTYPE),
            np.empty(0, VERTEX_DTYPE),
            np.empty(0, WEIGHT_DTYPE),
        )

    # ------------------------------------------------------------ queries
    @property
    def n_edges(self) -> int:
        return len(self.lo)

    def total_weight(self) -> float:
        return float(self.w.sum()) if len(self.w) else 0.0

    def validate(self) -> None:
        """Raise ``ValueError`` when a canonical-form invariant breaks."""
        if not (len(self.lo) == len(self.hi) == len(self.w)):
            raise ValueError("edge arrays must have equal length")
        if self.n_vertices < 0:
            raise ValueError("negative vertex count")
        if not len(self.lo):
            return
        if int(self.lo.min()) < 0:
            raise ValueError("negative vertex id")
        if np.any(self.lo > self.hi):
            raise ValueError("edges must satisfy lo <= hi")
        if int(self.hi.max()) >= self.n_vertices:
            raise ValueError("endpoint beyond n_vertices")
        if not np.all(np.isfinite(self.w)) or float(self.w.min()) <= 0:
            raise ValueError("edge weights must be positive and finite")
        key = self.lo.astype(np.int64) * self.n_vertices + self.hi
        if not strictly_increasing(key):
            raise ValueError("edge keys must be strictly increasing")

    # -------------------------------------------------------------- apply
    def apply(self, batch: EdgeBatch) -> ApplyStats:
        """Fold one batch in; returns the apply statistics.

        Deterministic: the resulting arrays are a pure function of the
        prior canonical arrays and the batch.  The batch's ``K`` distinct
        keys are sorted and found in the store by binary search
        (:meth:`_find`), ``O(B log B + K log E)``.  Each key's weight is
        the store weight plus the key's batch rows, added in batch order.
        The new ``lo``, ``hi`` and ``w`` are new arrays; the old ones,
        which callers may still hold, are never written.  Each array is
        copied once: up to ``_SPLICE_MAX_KEYS`` keys as the slices of the
        store between the change points plus the inserted rows
        (:func:`_splice`), and above that through masks computed once for
        the three arrays (:func:`_scatter`).  Updated weights are written
        into the new ``w``.
        """
        touched = batch.touched_vertices()
        n_ins = int(np.count_nonzero(batch.op == OP_INSERT))
        n_del = batch.n_edges - n_ins
        if not batch.n_edges:
            return ApplyStats(0, 0, 0, touched)

        n_new = max(
            self.n_vertices,
            int(max(int(batch.i.max()), int(batch.j.max()))) + 1,
        )
        signed = batch.w * batch.op.astype(WEIGHT_DTYPE)

        # The batch's distinct keys, and each row's key index in them.
        key = np.minimum(batch.i, batch.j) * n_new
        key += np.maximum(batch.i, batch.j)
        key, order = sort_keys(key, n_new * n_new)
        starts = segment_starts(key)
        key = key[starts]
        lo_k = key // n_new
        hi_k = key % n_new
        row_key = np.repeat(
            np.arange(len(starts)), np.diff(starts, append=len(order))
        )

        pos, found = self._find(lo_k, hi_k)
        # Store weight first, then the batch rows in batch order (the
        # key order is stable): np.add.at adds one row at a time.
        acc = np.zeros(len(starts), dtype=WEIGHT_DTYPE)
        acc[found] = self.w[pos[found]]
        np.add.at(acc, row_key, signed[order])
        n_unmatched = int(np.count_nonzero(acc < -WEIGHT_EPS))

        keep = acc > WEIGHT_EPS
        new = ~found & keep
        dropped = found & ~keep
        gone = pos[dropped]
        # The store row each new key goes before.
        before = pos[new]
        old = (self.lo, self.hi, self.w)
        added = (lo_k[new], hi_k[new], acc[new])
        if len(starts) <= _SPLICE_MAX_KEYS:
            cut = np.flatnonzero(new | dropped)
            lo, hi, w = _splice(
                old, added, pos[cut].tolist(), dropped[cut].tolist()
            )
        else:
            lo, hi, w = _scatter(old, added, before, gone)
        # An updated key's row moves by the new keys and dropped rows
        # ahead of it.  A new key at the same store row sorts first.
        updated = found & keep
        rows = pos[updated]
        ahead = np.searchsorted(before, rows, side="right")
        w[rows + ahead - np.searchsorted(gone, rows)] = acc[updated]
        self.lo, self.hi, self.w = lo, hi, w
        self.n_vertices = n_new
        return ApplyStats(n_ins, n_del, n_unmatched, touched)

    def _find(
        self, lo_k: np.ndarray, hi_k: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Where the sorted keys ``(lo_k, hi_k)`` are in the store.

        Returns each key's row, or the row it would go before, and
        whether the store holds it.  ``searchsorted`` on ``lo`` gives
        each key's run of rows, and a vectorised bisection of ``hi``
        inside that run the position: ``O(K log E)``, no pass over the
        store.
        """
        lo, hi = self.lo, self.hi
        pos = np.searchsorted(lo, lo_k)
        end = np.searchsorted(lo, lo_k, side="right")
        span = end - pos
        last = len(hi) - 1
        while span.any():
            half = span // 2
            mid = pos + half
            right = (span > 0) & (hi[np.minimum(mid, last)] < hi_k)
            pos = np.where(right, mid + 1, pos)
            span = np.where(right, span - half - 1, half)
        found = pos < end
        found[found] = hi[pos[found]] == hi_k[found]
        return pos, found

    # -------------------------------------------------------- conversions
    def as_graph(self) -> CommunityGraph:
        """Materialize the current graph (loops become self weights)."""
        return from_edges(self.lo, self.hi, self.w, n_vertices=self.n_vertices)

    def community_graph(self, labels: np.ndarray) -> CommunityGraph:
        """The store contracted by dense ``labels``: one vertex per
        community, rows inside a community in its self weight."""
        k = int(labels.max()) + 1 if len(labels) else 0
        return from_edges(labels[self.lo], labels[self.hi], self.w, n_vertices=k)

    def copy(self) -> "EdgeStore":
        return EdgeStore(
            self.n_vertices, self.lo.copy(), self.hi.copy(), self.w.copy()
        )

    def equals(self, other: "EdgeStore") -> bool:
        """Bit-level equality of the canonical representation."""
        return (
            self.n_vertices == other.n_vertices
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
            and np.array_equal(self.w, other.w)
        )
