"""Tests for the streaming edge-delta layer (stream/delta.py)."""

import io
import zipfile

import numpy as np
import pytest

from repro.errors import WalError
from repro.stream.delta import (
    BATCH_SCHEMA_VERSION,
    MAX_VERTICES,
    EdgeBatch,
    EdgeStore,
    decode_batch,
    encode_batch,
)
from repro.types import VERTEX_DTYPE


def _batch(seq, events, default_w=1.0):
    """events: list of (i, j [, w [, op]]) tuples."""
    i = np.array([e[0] for e in events], dtype=VERTEX_DTYPE)
    j = np.array([e[1] for e in events], dtype=VERTEX_DTYPE)
    w = np.array([e[2] if len(e) > 2 else default_w for e in events])
    op = np.array([e[3] if len(e) > 3 else 1 for e in events], dtype=np.int8)
    return EdgeBatch(seq=seq, i=i, j=j, w=w, op=op)


class TestEdgeBatch:
    def test_validation(self):
        with pytest.raises(ValueError, match="op"):
            _batch(1, [(0, 1, 1.0, 2)])
        with pytest.raises(ValueError):
            _batch(1, [(0, 1, -1.0)])  # non-positive weight
        with pytest.raises(ValueError):
            _batch(0, [(0, 1)])  # sequences are 1-based
        with pytest.raises(ValueError, match="length"):
            EdgeBatch(
                seq=1,
                i=np.array([0], dtype=VERTEX_DTYPE),
                j=np.array([1, 2], dtype=VERTEX_DTYPE),
                w=np.array([1.0]),
                op=np.array([1], dtype=np.int8),
            )

    @pytest.mark.parametrize(
        "bad, match",
        [
            ([1.5], "integers"),
            ([np.nan], "finite"),
            ([np.inf], "finite"),
            ([-1], "negative"),
            ([-1.0], "negative"),
            ([MAX_VERTICES], "not below"),
            ([float(MAX_VERTICES)], "not below"),
            (np.array([2**63], dtype=np.uint64), "not below"),
            ([2**64], "not below"),
        ],
    )
    def test_rejects_ids_the_store_cannot_hold(self, bad, match):
        for i, j in [(bad, [0]), ([0], bad)]:
            with pytest.raises(ValueError, match=match):
                EdgeBatch(
                    seq=1, i=i, j=j, w=[1.0], op=np.array([1], np.int8)
                )
        with pytest.raises(ValueError, match=match):
            EdgeBatch.inserts(1, bad, [0])

    def test_accepts_integral_ids_up_to_the_bound(self):
        b = EdgeBatch.inserts(1, [0.0, 2.0, MAX_VERTICES - 1], [1, 2, 0])
        assert b.i.dtype == VERTEX_DTYPE
        np.testing.assert_array_equal(b.i, [0, 2, MAX_VERTICES - 1])
        # The largest id folds into the store without overflowing a key.
        store = EdgeStore.empty()
        store.apply(b)
        assert store.n_vertices == MAX_VERTICES
        np.testing.assert_array_equal(store.lo, [0, 0, 2])
        np.testing.assert_array_equal(store.hi, [1, MAX_VERTICES - 1, 2])
        store.validate()

    def test_decode_reports_a_journaled_bad_id_as_wal_error(self):
        buf = io.BytesIO()
        np.savez(
            buf,
            schema=np.int64(BATCH_SCHEMA_VERSION),
            seq=np.int64(1),
            i=np.array([3], dtype=np.int64),
            j=np.array([2**40], dtype=np.int64),
            w=np.ones(1),
            op=np.ones(1, np.int8),
        )
        with pytest.raises(WalError, match="vertex id"):
            decode_batch(buf.getvalue())

    def test_touched_vertices(self):
        b = _batch(1, [(0, 5), (5, 2)])
        assert sorted(b.touched_vertices().tolist()) == [0, 2, 5]

    def test_codec_round_trip(self):
        b = _batch(3, [(0, 1, 2.5), (4, 2, 1.0, -1)])
        out = decode_batch(encode_batch(b))
        assert out.seq == 3
        np.testing.assert_array_equal(out.i, b.i)
        np.testing.assert_array_equal(out.j, b.j)
        np.testing.assert_array_equal(out.w, b.w)
        np.testing.assert_array_equal(out.op, b.op)

    def test_payload_members_are_stored(self):
        data = encode_batch(_batch(2, [(0, 1, 2.5), (4, 2, 1.0, -1)]))
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            infos = zf.infolist()
        assert sorted(info.filename for info in infos) == [
            "i.npy", "j.npy", "op.npy", "schema.npy", "seq.npy", "w.npy"
        ]
        assert {info.compress_type for info in infos} == {zipfile.ZIP_STORED}

    def test_deflated_payload_still_decodes(self):
        # WAL records journaled before payloads went uncompressed must
        # keep replaying.
        b = _batch(5, [(0, 1, 2.5), (4, 2, 1.0, -1), (3, 3, 0.5)])
        buf = io.BytesIO()
        np.savez_compressed(
            buf,
            schema=np.int64(BATCH_SCHEMA_VERSION),
            seq=np.int64(b.seq),
            i=b.i,
            j=b.j,
            w=b.w,
            op=b.op,
        )
        out = decode_batch(buf.getvalue())
        assert out.seq == b.seq
        for name in ("i", "j", "w", "op"):
            np.testing.assert_array_equal(getattr(out, name), getattr(b, name))
            assert getattr(out, name).dtype == getattr(b, name).dtype

    def test_decode_garbage_raises_wal_error(self):
        with pytest.raises(WalError):
            decode_batch(b"definitely not an npz payload")

    def test_decode_truncated_raises_wal_error(self):
        data = encode_batch(_batch(1, [(0, 1)]))
        with pytest.raises(WalError):
            decode_batch(data[: len(data) // 2])


class TestEdgeStore:
    def test_insert_merges_duplicates_canonically(self):
        store = EdgeStore.empty()
        store.apply(_batch(1, [(0, 1), (1, 0), (2, 0)]))
        assert store.n_vertices == 3
        assert store.n_edges == 2  # (0,1) folded with (1,0)
        np.testing.assert_array_equal(store.lo, [0, 0])
        np.testing.assert_array_equal(store.hi, [1, 2])
        np.testing.assert_allclose(store.w, [2.0, 1.0])
        store.validate()

    def test_delete_decrements_and_drops(self):
        store = EdgeStore.empty()
        store.apply(_batch(1, [(0, 1, 2.0), (1, 2, 1.0)]))
        stats = store.apply(_batch(2, [(1, 0, 1.0, -1), (2, 1, 1.0, -1)]))
        assert stats.n_unmatched_deletes == 0
        assert store.n_edges == 1
        np.testing.assert_allclose(store.w, [1.0])

    def test_unmatched_delete_clamps_and_counts(self):
        store = EdgeStore.empty()
        store.apply(_batch(1, [(0, 1, 1.0)]))
        stats = store.apply(_batch(2, [(0, 1, 5.0, -1), (2, 3, 1.0, -1)]))
        assert stats.n_unmatched_deletes == 2
        assert store.n_edges == 0
        store.validate()

    def test_vertex_universe_grows_monotonically(self):
        store = EdgeStore.empty()
        store.apply(_batch(1, [(0, 9)]))
        assert store.n_vertices == 10
        store.apply(_batch(2, [(0, 9, 1.0, -1)]))
        assert store.n_vertices == 10  # never shrinks

    def test_self_loops_kept(self):
        store = EdgeStore.empty()
        store.apply(_batch(1, [(2, 2, 3.0)]))
        assert store.n_edges == 1
        graph = store.as_graph()
        assert graph.internal_weight() > 0

    def test_as_graph_and_equals(self):
        a = EdgeStore.empty()
        a.apply(_batch(1, [(0, 1), (1, 2), (0, 2)]))
        b = a.copy()
        assert a.equals(b)
        b.apply(_batch(2, [(0, 3)]))
        assert not a.equals(b)
        g = a.as_graph()
        assert g.n_vertices == 3 and g.n_edges == 3

    def test_validate_rejects_broken_invariants(self):
        store = EdgeStore(
            2,
            np.array([1], dtype=VERTEX_DTYPE),
            np.array([0], dtype=VERTEX_DTYPE),  # lo > hi
            np.array([1.0]),
        )
        with pytest.raises(ValueError):
            store.validate()

    def test_apply_is_deterministic(self):
        events = [(0, 5), (3, 1), (5, 0), (2, 2), (3, 1, 1.0, -1)]
        a, b = EdgeStore.empty(), EdgeStore.empty()
        a.apply(_batch(1, events))
        b.apply(_batch(1, events))
        assert a.equals(b)
