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
from dataclasses import dataclass, field

import numpy as np

from repro.errors import WalError
from repro.graph.build import from_edges
from repro.graph.graph import CommunityGraph
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE
from repro.util.arrays import pair_order, segment_starts, strictly_increasing

__all__ = [
    "BATCH_SCHEMA_VERSION",
    "OP_INSERT",
    "OP_DELETE",
    "WEIGHT_EPS",
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


@dataclass(frozen=True)
class EdgeBatch:
    """One atomic unit of graph change.

    ``seq`` is the batch's position in the stream (1-based, contiguous);
    it is the exactly-once key — a service that has applied batch ``k``
    skips any re-delivery of batches ``<= k``.  ``w`` carries positive
    weights for inserts *and* deletes; the sign lives in ``op``.
    """

    seq: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    op: np.ndarray

    def __post_init__(self) -> None:
        i = np.asarray(self.i, dtype=VERTEX_DTYPE).ravel()
        j = np.asarray(self.j, dtype=VERTEX_DTYPE).ravel()
        w = np.asarray(self.w, dtype=WEIGHT_DTYPE).ravel()
        op = np.asarray(self.op, dtype=np.int8).ravel()
        if not (len(i) == len(j) == len(w) == len(op)):
            raise ValueError("batch arrays must have equal length")
        if self.seq < 1:
            raise ValueError("batch seq must be >= 1")
        if len(i):
            if int(i.min()) < 0 or int(j.min()) < 0:
                raise ValueError("negative vertex id in batch")
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
        i = np.asarray(i, dtype=VERTEX_DTYPE).ravel()
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
        prior canonical arrays and the batch.  The batch's distinct keys
        are sorted and merged into the sorted store with ``searchsorted``:
        ``O(B log B)`` for the batch plus one ``O(E)`` copy of the store.
        Each key's weight is the store weight plus the key's batch rows,
        added in batch order.
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
        lo_b = np.minimum(batch.i, batch.j).astype(np.int64)
        hi_b = np.maximum(batch.i, batch.j).astype(np.int64)
        signed = batch.w * batch.op.astype(WEIGHT_DTYPE)

        # The batch's distinct keys, and each row's key index in them.
        order = pair_order(lo_b, hi_b, n_new)
        sorted_keys = lo_b[order] * n_new + hi_b[order]
        starts = segment_starts(sorted_keys)
        keys = sorted_keys[starts]
        row_key = np.repeat(np.arange(len(keys)), np.diff(starts, append=len(order)))

        store_keys = self.lo.astype(np.int64) * n_new + self.hi
        pos = np.searchsorted(store_keys, keys)
        found = pos < len(store_keys)
        found[found] = store_keys[pos[found]] == keys[found]
        # Store weight first, then the batch rows in batch order (the
        # pair order is stable): np.add.at adds one row at a time.
        acc = np.zeros(len(keys), dtype=WEIGHT_DTYPE)
        acc[found] = self.w[pos[found]]
        np.add.at(acc, row_key, signed[order])
        n_unmatched = int(np.count_nonzero(acc < -WEIGHT_EPS))

        keep = acc > WEIGHT_EPS
        w = self.w.copy()
        w[pos[found & keep]] = acc[found & keep]
        dropped = pos[found & ~keep]
        new = ~found & keep
        # A new key goes before store row pos; rows dropped ahead of it
        # shift that point left.
        at = pos[new] - np.searchsorted(dropped, pos[new])
        self.lo = np.insert(np.delete(self.lo, dropped), at, keys[new] // n_new)
        self.hi = np.insert(np.delete(self.hi, dropped), at, keys[new] % n_new)
        self.w = np.insert(np.delete(w, dropped), at, acc[new])
        self.n_vertices = n_new
        return ApplyStats(n_ins, n_del, n_unmatched, touched)

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
