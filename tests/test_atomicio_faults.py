"""At-rest corruption sweep across every ``atomic_write`` consumer.

The ``atomic_write_faults`` fixture (conftest) corrupts files *after*
they commit — a torn truncation or a flipped byte — modeling the bit
rot and partial-sector loss the rename protocol cannot prevent.  Every
durable artifact in the tree must then fail *loudly and recoverably*
on reload: a typed error, a quarantine, or a discarded merge — never a
crash, a hang, or silently-wrong data.
"""

import json

import numpy as np
import pytest

from repro.errors import CheckpointError, ReproError
from repro.metrics import Partition
from repro.obs import Tracer, read_trace, write_trace
from repro.obs.telemetry import TelemetrySampler, read_status
from repro.resilience import CheckpointManager, CheckpointState
from repro.stream.delta import EdgeStore
from repro.stream.store import ServiceState, SnapshotStore
from repro.types import VERTEX_DTYPE


# --------------------------------------------------------------- fixture
class TestFixtureSemantics:
    def test_torn_truncates_once(self, tmp_path, atomic_write_faults):
        from repro.util.atomicio import atomic_write_text

        atomic_write_faults.torn("victim", keep=0.5)
        p = atomic_write_text(tmp_path / "victim.json", "x" * 100)
        assert len(p.read_bytes()) == 50
        # One-shot: a rewrite commits clean.
        atomic_write_text(tmp_path / "victim.json", "y" * 100)
        assert len(p.read_bytes()) == 100

    def test_bitflip_changes_one_byte(self, tmp_path, atomic_write_faults):
        from repro.util.atomicio import atomic_write_bytes

        atomic_write_faults.bitflip("blob", offset=3)
        p = atomic_write_bytes(tmp_path / "blob.bin", bytes(range(10)))
        data = p.read_bytes()
        assert data[3] == 3 ^ 0xFF
        assert bytes(data[:3]) == bytes(range(3))

    def test_unmatched_paths_untouched(self, tmp_path, atomic_write_faults):
        from repro.util.atomicio import atomic_write_text

        atomic_write_faults.torn("nomatch")
        p = atomic_write_text(tmp_path / "clean.txt", "intact")
        assert p.read_text() == "intact"
        assert atomic_write_faults.corrupted == []


# ------------------------------------------------------------ checkpoints
def _ckpt_state(graph, level=0):
    # Identity maps keep the composed community count equal to the graph
    # size, so the state passes semantic validation and any load failure
    # below is attributable to the injected corruption alone.
    return CheckpointState(
        level=level,
        graph=graph,
        maps=[
            np.arange(graph.n_vertices, dtype=VERTEX_DTYPE)
            for _ in range(level)
        ],
        member_counts=np.ones(graph.n_vertices, dtype=VERTEX_DTYPE),
        level_stats=[{"level": k} for k in range(level)],
        scorer_name="modularity",
    )


class TestCheckpointCorruption:
    def test_control_both_levels_load_clean(self, karate, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(_ckpt_state(karate, level=0))
        manager.save(_ckpt_state(karate, level=1))
        state, n_invalid = manager.load_latest()
        assert n_invalid == 0
        assert state is not None and state.level == 1

    # A flip at offset 0 breaks the first local-header magic of the zip
    # container, which every ``np.load`` checks — unlike a mid-file flip,
    # which can land in inter-member slack the reader never touches.
    @pytest.mark.parametrize(
        "mode,kwargs", [("torn", {}), ("bitflip", {"offset": 0})]
    )
    def test_quarantined_and_older_survives(
        self, karate, tmp_path, atomic_write_faults, mode, kwargs
    ):
        manager = CheckpointManager(tmp_path)
        manager.save(_ckpt_state(karate, level=0))
        getattr(atomic_write_faults, mode)("level_00001", **kwargs)
        manager.save(_ckpt_state(karate, level=1))
        assert atomic_write_faults.corrupted  # the fault must have fired
        state, n_invalid = manager.load_latest()
        assert n_invalid == 1
        assert state is not None and state.level == 0
        assert list(tmp_path.glob("*.corrupt"))

    def test_payload_bitflip_caught_by_member_crc(
        self, karate, tmp_path, atomic_write_faults
    ):
        # A flip *inside* an array's compressed payload must be caught by
        # the container's per-member CRC-32, not silently resumed from.
        manager = CheckpointManager(tmp_path)
        path = manager.save(_ckpt_state(karate, level=1))
        import zipfile

        import struct

        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo("ei.npy")
        data = bytearray(path.read_bytes())
        # Local file header: name/extra lengths live at offsets 26 and 28.
        fn_len, extra_len = struct.unpack_from(
            "<HH", data, info.header_offset + 26
        )
        payload_start = info.header_offset + 30 + fn_len + extra_len
        data[payload_start + info.compress_size // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        state, n_invalid = manager.load_latest()
        assert n_invalid == 1 and state is None
        assert list(tmp_path.glob("*.corrupt"))


# --------------------------------------------------------- stream snapshots
def _path_state(n=200):
    """A snapshot state over a weighted path of ``n`` vertices."""
    edges = EdgeStore(
        n,
        np.arange(n - 1, dtype=VERTEX_DTYPE),
        np.arange(1, n, dtype=VERTEX_DTYPE),
        np.linspace(0.5, 2.0, n - 1),
    )
    labels = Partition.from_labels(np.arange(n) // 10).labels
    return ServiceState(
        wal_seq=9,
        batch_seq=7,
        store=edges,
        labels=labels,
        community_graph=edges.community_graph(labels),
        ref_modularity=0.625,
    )


class TestSnapshotCorruption:
    @pytest.mark.parametrize(
        "mode,kwargs", [("torn", {}), ("bitflip", {"offset": 0})]
    )
    def test_quarantined_on_load(
        self, tmp_path, atomic_write_faults, mode, kwargs
    ):
        store = SnapshotStore(tmp_path)
        edges = EdgeStore(
            3,
            np.array([0, 1], dtype=VERTEX_DTYPE),
            np.array([1, 2], dtype=VERTEX_DTYPE),
            np.array([1.0, 1.0]),
        )
        labels = Partition.from_labels(np.array([0, 0, 1])).labels
        getattr(atomic_write_faults, mode)("snap_", **kwargs)
        store.save(
            ServiceState(
                wal_seq=4,
                batch_seq=4,
                store=edges,
                labels=labels,
                community_graph=edges.community_graph(labels),
            )
        )
        assert atomic_write_faults.corrupted  # the fault must have fired
        state, n_invalid = store.load_latest()
        assert state is None and n_invalid == 1
        assert list(tmp_path.glob("*.corrupt"))

    def test_payload_bitflip_caught_by_member_crc(self, tmp_path):
        # Members are stored, not deflated, so a flip inside the weight
        # array leaves a well-formed, valid-looking store: only the
        # member's CRC-32 can catch it.
        import struct
        import zipfile

        store = SnapshotStore(tmp_path)
        path = store.save(_path_state())
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo("w.npy")
        assert info.compress_type == zipfile.ZIP_STORED
        data = bytearray(path.read_bytes())
        fn_len, extra_len = struct.unpack_from(
            "<HH", data, info.header_offset + 26
        )
        payload_start = info.header_offset + 30 + fn_len + extra_len
        data[payload_start + info.compress_size // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="CRC"):
            store.load_seq(9)
        state, n_invalid = store.load_latest()
        assert state is None and n_invalid == 1
        assert list(tmp_path.glob("*.corrupt"))

    def test_compressed_snapshot_still_loads(self, tmp_path):
        # Data directories written before snapshots went uncompressed
        # must keep recovering.
        from repro.stream.store import SNAPSHOT_SCHEMA_VERSION

        store = SnapshotStore(tmp_path)
        saved = _path_state()
        with open(store.path_for(saved.wal_seq), "wb") as fh:
            np.savez_compressed(
                fh,
                schema=np.int64(SNAPSHOT_SCHEMA_VERSION),
                wal_seq=np.int64(saved.wal_seq),
                batch_seq=np.int64(saved.batch_seq),
                n_vertices=np.int64(saved.store.n_vertices),
                lo=saved.store.lo,
                hi=saved.store.hi,
                w=saved.store.w,
                labels=saved.labels,
                ref_modularity=np.float64(saved.ref_modularity),
            )
        loaded = store.load_seq(saved.wal_seq)
        assert (loaded.wal_seq, loaded.batch_seq, loaded.ref_modularity) == (
            saved.wal_seq,
            saved.batch_seq,
            saved.ref_modularity,
        )
        assert loaded.store.equals(saved.store)
        np.testing.assert_array_equal(loaded.labels, saved.labels)
        assert loaded.labels.dtype == saved.labels.dtype


# -------------------------------------------------------------- WAL manifest
class TestWalManifestCorruption:
    def test_recovery_ignores_corrupt_manifest(
        self, tmp_path, atomic_write_faults
    ):
        from repro.stream.wal import WriteAheadLog

        wal = WriteAheadLog(tmp_path)
        wal.recover()
        atomic_write_faults.bitflip("manifest.json")
        wal.append(b"payload")  # rewrites the (now corrupted) manifest
        wal.close()
        # The manifest is advisory; recovery trusts only segment CRCs.
        wal2 = WriteAheadLog(tmp_path)
        rec = wal2.recover()
        assert rec.clean and rec.n_records == 1
        assert [r.payload for r in wal2.records()] == [b"payload"]
        wal2.close()


# ------------------------------------------------------------- bench ledgers
class TestLedgerCorruption:
    @pytest.mark.parametrize("mode", ["torn", "bitflip"])
    def test_run_ledger_read_raises(self, tmp_path, atomic_write_faults, mode):
        from repro.bench.ledger import RunRecord, read_ledger, write_ledger

        getattr(atomic_write_faults, mode)("BENCH_")
        path = write_ledger(RunRecord(name="t"), directory=tmp_path)
        with pytest.raises(ReproError):
            read_ledger(path)

    def test_stream_ledger_discarded_not_merged(
        self, tmp_path, atomic_write_faults
    ):
        from repro.stream.replay import (
            ReplayHarness,
            read_stream_bench,
        )
        from repro.stream.service import DetectionService

        bench = tmp_path / "BENCH_stream.json"
        atomic_write_faults.torn("BENCH_stream")
        svc = DetectionService(tmp_path / "svc")
        harness = ReplayHarness(svc, bench_path=bench)
        harness._write_bench({1: {"seq": 1}})
        with pytest.raises(ReproError):
            read_stream_bench(bench)
        assert harness._load_entries() == {}


# ------------------------------------------------------------------- traces
class TestTraceCorruption:
    @pytest.mark.parametrize("mode", ["torn", "bitflip"])
    def test_corrupt_trace_reads_incomplete_or_raises(
        self, tmp_path, atomic_write_faults, mode
    ):
        tr = Tracer()
        with tr.span("root"):
            pass
        getattr(atomic_write_faults, mode)("trace.jsonl")
        path = tmp_path / "trace.jsonl"
        write_trace(tr, path, meta={})
        try:
            data = read_trace(path)
        except ReproError:
            return  # typed rejection is fine
        assert not data.complete  # ...as is a flagged partial read


# -------------------------------------------------------------- status.json
class TestStatusCorruption:
    @pytest.mark.parametrize("mode", ["torn", "bitflip"])
    def test_corrupt_status_raises_typed_error(
        self, tmp_path, atomic_write_faults, mode
    ):
        status = tmp_path / "status.json"
        getattr(atomic_write_faults, mode)("status.json")
        sampler = TelemetrySampler(
            Tracer(), interval_s=0.01, status_path=status
        )
        sampler.sample_once()
        with pytest.raises(ReproError):
            read_status(status)
