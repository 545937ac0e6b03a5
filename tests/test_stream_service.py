"""Tests for the streaming detection service (stream/service.py)."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StreamStateError, WalError
from repro.metrics import Partition, coverage, modularity
from repro.stream.delta import OP_DELETE, OP_INSERT
from repro.stream.service import (
    CRASH_POINTS,
    DetectionService,
    StreamConfig,
)
from repro.stream.wal import KIND_RERUN
from repro.types import VERTEX_DTYPE


def _cfg(**kw):
    kw.setdefault("snapshot_every", 4)
    return StreamConfig(**kw)


def _two_blocks(rng, n=12, m=20):
    """Random intra-block edges over two planted blocks of n//2."""
    half = n // 2
    i = rng.integers(0, half, size=m)
    j = rng.integers(0, half, size=m)
    block = rng.integers(0, 2, size=m) * half
    return i + block, j + block


def _feed(svc, n_batches=6, seed=0, n=12):
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(n_batches):
        i, j = _two_blocks(rng, n=n)
        results.append(svc.ingest(i, j))
    return results


def _float_stream(seed, n_batches=8):
    """Batches of ``(i, j, w, op)`` that make quality sums order-sensitive.

    Non-integer weights, a self loop in every non-empty batch, random
    deletes plus one over-delete of an earlier pair per batch, vertex
    ids whose range grows each batch, and one empty batch.
    """
    rng = np.random.default_rng(seed)
    empty = int(rng.integers(1, n_batches))
    batches = []
    for b in range(n_batches):
        if b == empty:
            none = np.empty(0, VERTEX_DTYPE)
            batches.append((none, none, np.empty(0), np.empty(0, np.int8)))
            continue
        n = 8 + 3 * b
        m = int(rng.integers(2, 24))
        i = rng.integers(0, n, size=m)
        j = rng.integers(0, n, size=m)
        j[0] = i[0]
        w = rng.uniform(0.05, 3.0, size=m)
        op = np.where(rng.random(m) < 0.3, OP_DELETE, OP_INSERT).astype(np.int8)
        op[0] = OP_INSERT
        if batches and len(batches[-1][0]):
            i[-1], j[-1] = batches[-1][0][0], batches[-1][1][0]
            w[-1], op[-1] = 1e3, OP_DELETE
        batches.append((i, j, w, op))
    return batches


#: Drift this low makes the float streams trip full reruns.
_FLOAT_CFG = dict(snapshot_every=3, drift_threshold=0.02)


class TestIngest:
    def test_bootstrap_builds_partition(self, tmp_path):
        with DetectionService(tmp_path, _cfg()) as svc:
            svc.open()
            res = _feed(svc, n_batches=1)[0]
            assert res.applied and res.seq == 1
            assert svc.labels is not None
            assert len(svc.labels) == svc.n_vertices
            Partition(svc.labels)  # dense

    def test_exactly_once_redelivery_is_noop(self, tmp_path):
        with DetectionService(tmp_path, _cfg()) as svc:
            svc.open()
            _feed(svc, n_batches=2)
            before = svc.labels.copy()
            res = svc.ingest(
                np.array([0]), np.array([1]), seq=1  # already applied
            )
            assert not res.applied
            np.testing.assert_array_equal(svc.labels, before)

    def test_sequence_gap_rejected(self, tmp_path):
        with DetectionService(tmp_path, _cfg()) as svc:
            svc.open()
            _feed(svc, n_batches=1)
            with pytest.raises(ValueError, match="gap"):
                svc.ingest(np.array([0]), np.array([1]), seq=5)

    def test_ingest_requires_open(self, tmp_path):
        svc = DetectionService(tmp_path, _cfg())
        with pytest.raises(StreamStateError, match="open"):
            svc.ingest(np.array([0]), np.array([1]))

    def test_timeline_records_every_batch(self, tmp_path):
        with DetectionService(tmp_path, _cfg()) as svc:
            svc.open()
            _feed(svc, n_batches=3)
            assert svc.timeline.n_batches == 3
            assert [s.seq for s in svc.timeline.batches] == [1, 2, 3]
            assert all(np.isfinite(s.modularity) for s in svc.timeline.batches)


class TestRejectedIds:
    """A batch with an id the store cannot hold is refused before the
    WAL append, so it can neither change the state nor brick recovery."""

    @pytest.mark.parametrize(
        "i, j",
        [([1.5], [0]), ([3], [2**40])],
        ids=["fractional", "beyond-key-range"],
    )
    def test_bad_id_raises_before_journaling(self, tmp_path, i, j):
        svc = DetectionService(tmp_path, _cfg())
        svc.open()
        _feed(svc, n_batches=2)
        records = [r.seq for r in svc.wal.records()]
        wal_seq, store, labels = svc.wal_seq, svc.store.copy(), svc.labels.copy()
        with pytest.raises(ValueError, match="vertex id"):
            svc.ingest(i, j)
        assert [r.seq for r in svc.wal.records()] == records
        assert svc.wal_seq == wal_seq and svc.batch_seq == 2
        assert svc.store.equals(store)
        np.testing.assert_array_equal(svc.labels, labels)
        svc.close()
        with DetectionService(tmp_path, _cfg()) as again:
            again.open()
            assert again.batch_seq == 2
            assert again.store.equals(store)
            np.testing.assert_array_equal(again.labels, labels)


class TestClose:
    def test_failed_final_snapshot_still_releases_the_wal(
        self, tmp_path, monkeypatch
    ):
        svc = DetectionService(tmp_path, _cfg())
        svc.open()
        _feed(svc, n_batches=3)  # snapshot_every=4: close() must write one
        labels = svc.labels.copy()

        def disk_full():
            raise OSError("disk full")

        monkeypatch.setattr(svc, "_snapshot", disk_full)
        with pytest.raises(OSError, match="disk full"):
            svc.close()
        with pytest.raises(WalError, match="closed"):
            svc.wal.append(b"late")
        with pytest.raises(StreamStateError, match="open"):
            svc.ingest(np.array([0]), np.array([1]))
        # The unsnapshotted batches are still in the WAL.
        with DetectionService(tmp_path, _cfg()) as again:
            again.open()
            assert again.report.wal_replayed == 3 and again.batch_seq == 3
            np.testing.assert_array_equal(again.labels, labels)


class TestRecovery:
    def test_clean_reopen_restores_identical_state(self, tmp_path):
        with DetectionService(tmp_path, _cfg()) as svc:
            svc.open()
            _feed(svc, n_batches=5)
            labels = svc.labels.copy()
            store = svc.store.copy()
        with DetectionService(tmp_path, _cfg()) as svc2:
            svc2.open()
            np.testing.assert_array_equal(svc2.labels, labels)
            assert svc2.store.equals(store)
            assert svc2.batch_seq == 5

    def test_crash_replay_is_bit_identical(self, tmp_path):
        # Reference: uninterrupted run.
        ref = DetectionService(tmp_path / "ref", _cfg())
        ref.open()
        _feed(ref, n_batches=6)
        ref_labels = ref.labels.copy()
        ref.close()

        # Crashed run: same batches, but the process "dies" before any
        # close()-time snapshot — recovery must replay the WAL tail.
        svc = DetectionService(tmp_path / "crash", _cfg())
        svc.open()
        _feed(svc, n_batches=6)
        svc.wal.close()  # simulate losing the process, not the disk

        svc2 = DetectionService(tmp_path / "crash", _cfg())
        svc2.open()
        assert svc2.report.wal_replayed > 0
        np.testing.assert_array_equal(svc2.labels, ref_labels)
        assert svc2.batch_seq == 6
        svc2.close()

    def test_recovery_gap_is_typed_error(self, tmp_path):
        # Snapshots at batch 2 and 4 truncate the journal's prefix; if
        # the snapshots are then lost, the surviving tail starts past
        # sequence one and no consistent state can be rebuilt.
        svc = DetectionService(tmp_path, _cfg(snapshot_every=2))
        svc.open()
        _feed(svc, n_batches=5)
        svc.wal.close()
        for p in (tmp_path / "snapshots").glob("snap_*.npz"):
            p.unlink()
        svc2 = DetectionService(tmp_path, _cfg(snapshot_every=2))
        with pytest.raises(StreamStateError, match="gap"):
            svc2.open()


class TestDegradation:
    def test_drift_triggers_journaled_rerun(self, tmp_path):
        cfg = _cfg(drift_threshold=0.02, snapshot_every=100)
        with DetectionService(tmp_path, cfg) as svc:
            svc.open()
            rng = np.random.default_rng(0)
            i, j = _two_blocks(rng, n=12, m=40)
            svc.ingest(i, j)
            # Destroy the planted structure: dense random cross edges.
            i2 = rng.integers(0, 12, size=80)
            j2 = rng.integers(0, 12, size=80)
            res = svc.ingest(i2, j2)
            assert res.rerun == "drift"
            assert svc.report.stream_reruns >= 1
            assert any("drift" in rung for rung in svc.report.ladder)
            kinds = [r.kind for r in svc.wal.records()]
            assert KIND_RERUN in kinds  # the decision was journaled

    def test_deadline_triggers_rerun(self, tmp_path):
        cfg = _cfg(repair_deadline_s=1e-9, snapshot_every=100)
        with DetectionService(tmp_path, cfg) as svc:
            svc.open()
            _feed(svc, n_batches=1)  # bootstrap never drifts
            res = _feed(svc, n_batches=1, seed=1)[0]
            assert res.rerun == "deadline"
            assert any("deadline" in rung for rung in svc.report.ladder)

    def test_rerun_decisions_replay_identically(self, tmp_path):
        # The deadline trigger is wall-clock — the control record, not
        # the clock, must drive replay.
        cfg = _cfg(repair_deadline_s=1e-9, snapshot_every=100)
        svc = DetectionService(tmp_path / "a", cfg)
        svc.open()
        _feed(svc, n_batches=4)
        labels = svc.labels.copy()
        svc.wal.close()

        # Recover with the deadline *disabled*: only journaled control
        # records can reproduce the reruns.
        svc2 = DetectionService(tmp_path / "a", _cfg(snapshot_every=100))
        svc2.open()
        np.testing.assert_array_equal(svc2.labels, labels)
        assert svc2.report.stream_reruns > 0
        svc2.close()


class TestVerifyAndFaults:
    def test_verify_passes_on_healthy_state(self, tmp_path):
        with DetectionService(tmp_path, _cfg()) as svc:
            svc.open()
            _feed(svc, n_batches=3)
            outcome = svc.verify()
            assert outcome["ok"], outcome["checks"]

    def test_verify_checks_the_reported_quality(self, tmp_path):
        with DetectionService(tmp_path, _cfg()) as svc:
            svc.open()
            _feed(svc, n_batches=3)
            assert svc.verify()["checks"]["quality_matches"]
            q, cov = svc.quality
            for perturbed in [(q + 1e-6, cov), (q, cov - 1e-6)]:
                svc.quality = perturbed
                outcome = svc.verify()
                assert not outcome["ok"]
                assert not outcome["checks"]["quality_matches"]
            svc.quality = (q, cov)

    def test_quality_check_skipped_after_open_replays_nothing(self, tmp_path):
        with DetectionService(tmp_path, _cfg()) as svc:
            svc.open()
            _feed(svc, n_batches=4)
        with DetectionService(tmp_path, _cfg()) as svc2:
            svc2.open()
            assert svc2.report.wal_replayed == 0 and svc2.quality is None
            outcome = svc2.verify()
            assert outcome["ok"], outcome["checks"]
            assert "quality_matches" not in outcome["checks"]

    def test_crash_points_are_registered_fault_points(self):
        from repro.resilience.faults import FaultPlan

        for point in CRASH_POINTS:
            plan = FaultPlan.sigkill_at(point, [0])
            assert plan.decide_service(point, 0) is not None
            assert plan.decide_service(point, 1) is None


class TestReportedQuality:
    """Each batch's quality comes from its repair's community graph.

    It must equal a from-scratch recompute over the store, and, being a
    pure function of the repair's inputs, repeat bit for bit after a
    crash and restart.
    """

    def test_float_streams_exercise_reruns_and_over_deletes(self, tmp_path):
        reruns = unmatched = 0
        for seed in range(6):
            with DetectionService(tmp_path / str(seed), _cfg(**_FLOAT_CFG)) as svc:
                svc.open()
                for batch in _float_stream(seed):
                    res = svc.ingest(*batch)
                    reruns += bool(res.rerun)
                    unmatched += res.n_unmatched_deletes
        assert reruns and unmatched

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_batch_matches_from_scratch(self, seed):
        with tempfile.TemporaryDirectory() as d:
            with DetectionService(d, _cfg(**_FLOAT_CFG)) as svc:
                svc.open()
                for batch in _float_stream(seed):
                    res = svc.ingest(*batch)
                    graph, part = svc.store.as_graph(), svc.partition
                    assert res.modularity == pytest.approx(
                        modularity(graph, part), rel=0, abs=1e-9
                    )
                    assert res.coverage == pytest.approx(
                        coverage(graph, part), rel=0, abs=1e-9
                    )
                    assert svc.quality == (res.modularity, res.coverage)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 7))
    def test_restart_reports_bit_identical_quality(self, seed, k):
        batches = _float_stream(seed)
        with tempfile.TemporaryDirectory() as d:
            ref = DetectionService(os.path.join(d, "ref"), _cfg(**_FLOAT_CFG))
            ref.open()
            expected = [
                (r.modularity, r.coverage, r.rerun)
                for r in (ref.ingest(*b) for b in batches)
            ]
            ref.close()

            svc = DetectionService(os.path.join(d, "crash"), _cfg(**_FLOAT_CFG))
            svc.open()
            for b in batches[:k]:
                svc.ingest(*b)
            svc.wal.close()  # lose the process, keep the disk

            svc2 = DetectionService(os.path.join(d, "crash"), _cfg(**_FLOAT_CFG))
            svc2.open()
            got = [
                (r.modularity, r.coverage, r.rerun)
                for r in (svc2.ingest(*b) for b in batches[k:])
            ]
            assert got == expected[k:]
            np.testing.assert_array_equal(svc2.labels, ref.labels)
            svc2.close()
