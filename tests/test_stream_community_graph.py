"""The stream's kept community graph (stream/service.py, stream/store.py).

Each repair builds its reduced graph from the community graph the last
repair or rerun ended with, plus the store rows incident to the batch's
frontier.  These tests pin that build to the full one it replaces, and
check that the graph, whose sums are carried from batch to batch, is
durable: persisted in every snapshot, validated on load and by
``verify()``, and reproduced bit for bit across a crash or a restart.
"""

import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.stream.service as service
from repro.errors import CheckpointError
from repro.generators import planted_partition_graph
from repro.graph.build import from_edges
from repro.stream.delta import OP_DELETE, OP_INSERT
from repro.stream.service import DetectionService, StreamConfig
from repro.stream.store import SnapshotStore
from repro.types import VERTEX_DTYPE


def _local_stream(seed, *, n=2000, n_batches=40, per_batch=8, integer=False):
    """A planted base graph, then ``n_batches`` community-local batches.

    Batch 1 is the base graph; each later batch inserts and deletes
    ``per_batch`` pairs inside one planted community.  Weights are drawn
    from ``uniform(0.1, 3.0)``, or from 1..3 when ``integer``.
    """
    g, planted = planted_partition_graph(n, seed=seed, return_labels=True)
    rng = np.random.default_rng(seed)

    def weights(m):
        if integer:
            return rng.integers(1, 4, size=m).astype(np.float64)
        return rng.uniform(0.1, 3.0, size=m)

    e = g.edges
    batches = [(e.ei, e.ej, weights(e.n_edges), np.ones(e.n_edges, np.int8))]
    for _ in range(n_batches):
        members = np.flatnonzero(planted == planted[rng.integers(n)])
        i = rng.choice(members, per_batch)
        j = rng.choice(members, per_batch)
        op = np.where(rng.random(per_batch) < 0.25, OP_DELETE, OP_INSERT)
        batches.append((i, j, weights(per_batch), op.astype(np.int8)))
    return batches


def _outcome(svc, batch):
    res = svc.ingest(*batch)
    return res.modularity, res.coverage, res.rerun, svc.labels.tobytes()


def _assert_same_bits(got, want):
    for a, b in [
        (got.edges.ei, want.edges.ei),
        (got.edges.ej, want.edges.ej),
        (got.edges.w, want.edges.w),
        (got.self_weights, want.self_weights),
    ]:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _uninterrupted(path, batches, cfg):
    with DetectionService(path, cfg) as svc:
        svc.open()
        return [_outcome(svc, b) for b in batches]


_SNAPSHOT_CFG = dict(snapshot_every=8)


class TestRestartEquivalence:
    """A float-weighted, community-local stream restarted mid-way.

    Nearly every repair leaves untouched communities whose carried sums
    no longer follow store order, so recovery must load the persisted
    graph: re-summing the store at open rounds differently.
    """

    @pytest.fixture(scope="class")
    def stream(self, tmp_path_factory):
        batches = _local_stream(5)
        cfg = StreamConfig(**_SNAPSHOT_CFG)
        ref = _uninterrupted(tmp_path_factory.mktemp("ref"), batches, cfg)
        return batches, ref

    @pytest.mark.parametrize("stop", [13, 21])
    def test_crash_recovers_bit_identically(self, tmp_path, stream, stop):
        batches, ref = stream
        cfg = StreamConfig(**_SNAPSHOT_CFG)
        svc = DetectionService(tmp_path, cfg)
        svc.open()
        for b in batches[:stop]:
            svc.ingest(*b)
        svc.wal.close()  # lose the process, keep the disk

        with DetectionService(tmp_path, cfg) as svc2:
            svc2.open()
            assert svc2.report.wal_replayed == stop % 8
            assert svc2.labels.tobytes() == ref[stop - 1][3]
            got = [_outcome(svc2, b) for b in batches[stop:]]
        assert got == ref[stop:]

    def test_close_and_reopen_off_the_snapshot_grid(self, tmp_path, stream):
        batches, ref = stream
        cfg = StreamConfig(**_SNAPSHOT_CFG)
        stop = 19
        with DetectionService(tmp_path, cfg) as svc:
            svc.open()
            for b in batches[:stop]:
                svc.ingest(*b)
        with DetectionService(tmp_path, cfg) as svc2:
            svc2.open()
            assert svc2.report.wal_replayed == 0
            got = [_outcome(svc2, b) for b in batches[stop:]]
        assert got == ref[stop:]


def _reference_reduced(labels, touched, n):
    """The reduced ids the repair assigns, computed from scratch."""
    k_old = int(labels.max()) + 1 if len(labels) else 0
    labels = np.concatenate([labels, k_old + np.arange(n - len(labels))])
    k = int(labels.max()) + 1 if n else 0
    touched_comm = np.zeros(k, dtype=bool)
    touched_comm[labels[touched]] = True
    in_frontier = touched_comm[labels]
    untouched = np.flatnonzero(~touched_comm)
    comm_to_reduced = np.full(k, -1)
    comm_to_reduced[untouched] = np.arange(len(untouched))
    reduced = comm_to_reduced[labels]
    reduced[in_frontier] = len(untouched) + np.arange(in_frontier.sum())
    return reduced, len(untouched) + int(in_frontier.sum())


def _integer_batches(rng, n_batches):
    """Batches that exercise every part of the reduced-graph build.

    Each batch carries a self loop, random inserts over a vertex range
    that grows, and deletes of pairs it inserted earlier with more than
    their weight, which drop rows.  One batch names a vertex well past
    the store, so the vertices it skips join as isolated singletons.
    """
    inserted = []
    grow_at = int(rng.integers(1, n_batches))
    for b in range(n_batches):
        n = 10 + 4 * b
        m = int(rng.integers(2, 14))
        i = rng.integers(0, n, size=m)
        j = rng.integers(0, n, size=m)
        j[0] = i[0]
        op = np.full(m, OP_INSERT, np.int8)
        if b and inserted:
            pick = rng.integers(0, len(inserted), size=min(3, m - 1))
            for slot, p in zip(range(1, m), pick):
                i[slot], j[slot] = inserted[p]
                op[slot] = OP_DELETE
        if b == grow_at:
            i, j, op = np.append(i, 0), np.append(j, n + 7), np.append(op, OP_INSERT)
        w = rng.integers(1, 4, size=len(i)).astype(np.float64)
        w[op == OP_DELETE] = 100.0
        inserted += [
            (int(a), int(c)) for a, c, o in zip(i, j, op) if o == OP_INSERT
        ]
        yield i, j, w, op


class TestReducedGraph:
    # These small stores often have most rows at the frontier, where the
    # repair builds from every row; a share of 1.0 forces the kept-graph
    # build on every batch.
    @pytest.mark.parametrize("share", [service._FULL_BUILD_SHARE, 1.0])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rerun=st.integers(1, 5))
    def test_equals_the_build_over_every_row(self, share, seed, rerun):
        """With integer weights every sum is exact, so the graph built
        from the kept community graph plus the frontier's rows must equal
        the build over every store row, bit for bit."""
        rng = np.random.default_rng(seed)
        built = []
        real = service.from_edges

        def capture(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        cfg = StreamConfig(snapshot_every=3, drift_threshold=None)
        with tempfile.TemporaryDirectory() as d, mock.patch.object(
            service, "from_edges", capture
        ), mock.patch.object(service, "_FULL_BUILD_SHARE", share):
            with DetectionService(d, cfg) as svc:
                svc.open()
                for b, (i, j, w, op) in enumerate(_integer_batches(rng, 7)):
                    # A deadline nobody meets reruns this batch, so the
                    # next one reduces from a rerun's community graph.
                    svc.config.repair_deadline_s = 1e-12 if b == rerun else None
                    before = (
                        svc.labels
                        if svc.labels is not None
                        else np.empty(0, VERTEX_DTYPE)
                    )
                    del built[:]
                    res = svc.ingest(i, j, w, op)
                    assert res.rerun == ("deadline" if b == rerun else "")
                    store = svc.store
                    touched = np.unique(np.concatenate([i, j]))
                    reduced, n_reduced = _reference_reduced(
                        before, touched, store.n_vertices
                    )
                    want = from_edges(
                        reduced[store.lo], reduced[store.hi], store.w, n_reduced
                    )
                    (got,) = built
                    _assert_same_bits(got, want)
                    assert svc.verify()["checks"]["community_graph_matches"]


class TestBuildChoice:
    """A repair reads every store row only when the frontier's rows are
    more than ``_FULL_BUILD_SHARE`` of the store."""

    def test_build_follows_the_frontier_share_of_rows(self, tmp_path):
        batches = _local_stream(7, n_batches=6)
        read = []
        real = service.from_edges

        def capture(ei, *args, **kwargs):
            read.append(len(ei))
            return real(ei, *args, **kwargs)

        def n_read(svc, batch):
            del read[:]
            svc.ingest(*batch)
            (n,) = read
            return n

        cfg = StreamConfig(drift_threshold=None)
        with mock.patch.object(service, "from_edges", capture):
            with DetectionService(tmp_path, cfg) as svc:
                svc.open()
                svc.ingest(*batches[0])
                for b in batches[1:]:
                    assert n_read(svc, b) < svc.store.n_edges

                # Touch every community but the one with the fewest
                # internal rows: the kept-graph build would read all
                # rows but that community's, plus its super-node.
                labels, lo, hi = svc.labels, svc.store.lo, svc.store.hi
                inside = labels[lo] == labels[hi]
                internal = np.bincount(
                    labels[lo[inside]], minlength=svc.n_communities
                )
                roomy = np.flatnonzero(internal >= 2)
                spare = roomy[np.argmin(internal[roomy])]
                ends = [
                    np.flatnonzero(labels == c)[[0, -1]]
                    for c in range(len(internal))
                    if c != spare
                ]
                i, j = np.array(ends).T
                away = labels != spare
                share = np.mean(away[lo] | away[hi])
                assert share > service._FULL_BUILD_SHARE
                n = len(i)
                batch = (i, j, np.ones(n), np.full(n, OP_INSERT, np.int8))
                assert n_read(svc, batch) == svc.store.n_edges


class TestDurability:
    def test_fresh_service_starts_from_the_empty_graph(self, tmp_path):
        svc = DetectionService(tmp_path)
        assert svc.community_graph.n_vertices == 0
        assert svc.community_graph.n_edges == 0

    def test_snapshot_round_trips_the_graph_bits(self, tmp_path):
        batches = _local_stream(2, n=400, n_batches=8)
        with DetectionService(tmp_path, StreamConfig(snapshot_every=4)) as svc:
            svc.open()
            for b in batches[:5]:
                svc.ingest(*b)
            kept = svc.community_graph
        # close() snapshots batch 5, off the snapshot grid.
        snaps = SnapshotStore(tmp_path / "snapshots")
        loaded = snaps.load_seq(snaps.seqs_on_disk()[-1])
        assert loaded.batch_seq == 5
        _assert_same_bits(loaded.community_graph, kept)

    def test_snapshot_without_the_graph_recovers(self, tmp_path):
        # Snapshots written before the graph was persisted lack its
        # members; open() re-derives it from the store and labels.
        batches = _local_stream(3, n=600, n_batches=16, integer=True)
        cfg = StreamConfig(snapshot_every=4)
        ref = _uninterrupted(tmp_path / "ref", batches, cfg)

        svc = DetectionService(tmp_path / "old", cfg)
        svc.open()
        for b in batches[:10]:
            svc.ingest(*b)
        svc.wal.close()
        path = svc.snapshots.path_for(svc.snapshots.seqs_on_disk()[-1])
        with np.load(path) as z:
            members = {k: z[k] for k in z.files if not k.startswith("community_")}
        assert len(members) == 9
        with open(path, "wb") as fh:
            np.savez(fh, **members)

        with DetectionService(tmp_path / "old", cfg) as svc2:
            svc2.open()
            assert svc2.report.checkpoints_invalid == 0
            assert svc2.verify()["checks"]["community_graph_matches"]
            got = [_outcome(svc2, b) for b in batches[10:]]
        assert [g[3] for g in got] == [r[3] for r in ref[10:]]

    def test_snapshot_with_a_stale_graph_is_quarantined(self, tmp_path):
        batches = _local_stream(4, n=400, n_batches=8)
        cfg = StreamConfig(snapshot_every=4)
        with DetectionService(tmp_path, cfg) as svc:
            svc.open()
            for b in batches[:3]:
                svc.ingest(*b)
            stale = svc.community_graph
            svc.ingest(*batches[3])  # snapshots batch 4
            state = svc.snapshots.load_seq(svc.snapshots.seqs_on_disk()[-1])
        assert state.batch_seq == 4
        snaps = SnapshotStore(tmp_path / "bad")
        state.community_graph = stale
        snaps.save(state)
        with pytest.raises(CheckpointError, match="community graph"):
            snaps.load_seq(state.wal_seq)
        got, n_invalid = snaps.load_latest()
        assert got is None and n_invalid == 1
        assert list((tmp_path / "bad").glob("*.corrupt"))


class TestVerify:
    def test_checks_the_kept_graph(self, tmp_path):
        batches = _local_stream(6, n=400, n_batches=6)
        with DetectionService(tmp_path, StreamConfig()) as svc:
            svc.open()
            for b in batches[:-1]:
                svc.ingest(*b)
            stale = svc.community_graph
            svc.ingest(*batches[-1])
            outcome = svc.verify()
            assert outcome["ok"] and outcome["checks"]["community_graph_matches"]

            good = svc.community_graph
            off = good.copy()
            off.self_weights[np.argmax(off.self_weights)] += 1e-3
            for wrong in (stale, off):
                svc.community_graph = wrong
                outcome = svc.verify()
                assert not outcome["ok"]
                assert not outcome["checks"]["community_graph_matches"]
            svc.community_graph = good
