"""The streaming detection service: journal, apply, repair, degrade.

:class:`DetectionService` keeps a community partition current while
edges arrive, under one invariant — **journal before mutate**.  Every
edge batch is appended to the write-ahead log (and fsynced) before any
in-memory state changes, so the in-memory state is always a pure
function of ``(last durable snapshot, WAL records after it)`` and a
SIGKILL at any instruction recovers to exactly the state an
uninterrupted process would have reached.

Apply path per batch:

1. **journal** — the encoded batch goes into the WAL
   (:data:`~repro.stream.wal.KIND_BATCH`);
2. **mutate** — the batch folds into the canonical
   :class:`~repro.stream.delta.EdgeStore`;
3. **repair** — only the dirty frontier is re-detected: communities the
   batch touched are exploded back to singleton vertices, every
   untouched community is collapsed to one super-node, and the reduced
   graph runs through the ordinary
   :class:`~repro.core.engine.AgglomerationEngine` kernels.  Untouched
   vertices can only move if their whole community moves.  The reduced
   graph is built from the store rows incident to the frontier plus the
   *community graph* the last repair or rerun ended with (the store
   contracted by the current labels), restricted to untouched
   communities, so apart from one pass over the rows to find the
   frontier's, the work is proportional to the frontier, not the graph.
   A batch whose frontier owns most of the rows (the bootstrap batch,
   say) builds from every row instead, which is then cheaper;
4. **measure** — the repair's final community graph carries every
   store row (as a super-node self weight, an edge or a frontier
   loop), so its closed-form modularity and coverage are the new
   partition's quality over the whole store, in O(communities).  It is
   also the community graph the next batch reduces from;
5. **degrade when needed** — the drift ladder below.

The community graph's sums are carried from batch to batch, so it is
durable state: every snapshot stores it, and recovery loads it rather
than re-summing the store, which could round differently.

Degradation ladder (each rung recorded in
:class:`~repro.resilience.report.RecoveryReport` and on the
:class:`~repro.obs.timeline.StreamTimeline`):

* transient repair failures retry with the (optionally jittered)
  :class:`~repro.resilience.retry.RetryPolicy` backoff;
* exhausted retries, modularity drifting more than
  ``drift_threshold`` below the last full detection, or a repair
  exceeding ``repair_deadline_s`` escalate to a **full from-scratch
  re-detection** over the whole store.

Rerun decisions are themselves journaled
(:data:`~repro.stream.wal.KIND_RERUN` control records) *before* they
execute.  That is what keeps non-deterministic triggers (the wall-clock
deadline) crash-equivalent: WAL replay re-executes exactly the reruns
the original process decided, and never evaluates the deadline itself.
The drift trigger is a deterministic function of the replayed state, so
the one crash window it has — killed after deciding, before
journaling — closes with a single post-replay drift evaluation that
re-makes the identical decision.

Deterministic crash points (``wal-append``, ``apply``, ``snapshot``,
``post-snapshot``, ``wal-rerun``) consult an optional
:class:`~repro.resilience.faults.FaultPlan`; a scheduled ``sigkill``
fault is a real ``os.kill(os.getpid(), SIGKILL)``.  The kill-chaos
suite drives these through ``repro replay --kill-after``.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import AgglomerationEngine, RunContext
from repro.core.termination import TerminationCriteria
from repro.errors import ReproError, StreamStateError
from repro.graph.build import from_edges
from repro.graph.graph import CommunityGraph
from repro.metrics.coverage import coverage
from repro.metrics.modularity import community_graph_modularity, modularity
from repro.metrics.partition import Partition
from repro.obs.timeline import StreamTimeline
from repro.resilience.faults import FaultPlan
from repro.resilience.report import RecoveryReport
from repro.resilience.retry import RetryPolicy
from repro.stream.delta import EdgeBatch, EdgeStore, decode_batch, encode_batch
from repro.stream.store import (
    QUALITY_TOLERANCE,
    ServiceState,
    SnapshotStore,
    match_community_graph,
)
from repro.stream.wal import (
    KIND_BATCH,
    KIND_RERUN,
    WalRecovery,
    WriteAheadLog,
)
from repro.types import VERTEX_DTYPE
from repro.util.log import get_logger

__all__ = ["CRASH_POINTS", "StreamConfig", "BatchResult", "DetectionService"]

#: Named crash points, in apply order, for ``FaultPlan.sigkill_at``.
CRASH_POINTS = (
    "wal-append",
    "apply",
    "snapshot",
    "post-snapshot",
    "wal-rerun",
)

_log = get_logger("stream.service")

#: The share of store rows incident to the frontier above which a
#: repair builds its reduced graph from every row rather than from the
#: kept community graph plus those rows.  On a ~106k-row planted store
#: the two builds cost the same at 70–80% of the rows; at 100% the
#: kept-graph build is ~20% slower.
_FULL_BUILD_SHARE = 0.75


def _quality(graph: CommunityGraph) -> tuple[float, float]:
    """(modularity, coverage) of the partition ``graph`` contracts to.

    Every vertex of an engine run's final graph is one community and
    every input edge lands in a self weight or an edge of it, so both
    follow in O(communities) from self weights and strengths.
    """
    return community_graph_modularity(graph), graph.coverage()


@dataclass
class StreamConfig:
    """Tuning knobs of one :class:`DetectionService`.

    ``termination`` defaults to running each (re)detection to its local
    maximum — a streaming partition should stay at full quality, not
    stop at the paper's benchmark coverage cutoff.  ``drift_threshold``
    is the modularity drop (versus the last full detection) that trips
    the full-rerun rung; ``repair_deadline_s`` the wall-clock repair
    budget that does the same (``None`` disables either trigger).
    """

    scorer: str = "modularity"
    matcher: str = "worklist"
    contractor: str = "bucket"
    termination: TerminationCriteria = field(
        default_factory=TerminationCriteria.local_maximum
    )
    seed: int = 0
    snapshot_every: int = 8
    snapshot_keep: int = 3
    drift_threshold: float | None = 0.1
    repair_deadline_s: float | None = None
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_retries=2, backoff_base_s=0.01, backoff_cap_s=0.25
        )
    )
    segment_max_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")
        if self.drift_threshold is not None and self.drift_threshold <= 0:
            raise ValueError("drift_threshold must be positive or None")
        if self.repair_deadline_s is not None and self.repair_deadline_s <= 0:
            raise ValueError("repair_deadline_s must be positive or None")


@dataclass(frozen=True)
class BatchResult:
    """What one :meth:`DetectionService.ingest` call did."""

    seq: int
    applied: bool
    n_vertices: int
    n_edges: int
    n_communities: int
    modularity: float
    coverage: float
    latency_s: float
    #: Degradation reason ("drift" / "deadline" / "repair-failed") when
    #: the batch escalated to a full re-detection; empty otherwise.
    rerun: str = ""
    n_unmatched_deletes: int = 0


class DetectionService:
    """Owns the durable state under ``data_dir`` (``wal/`` + ``snapshots/``).

    Usage::

        svc = DetectionService(data_dir)
        svc.open()                  # recover: snapshot + WAL tail replay
        svc.ingest(i, j, w, op)     # journal-then-apply one batch
        svc.close()                 # final snapshot, WAL released

    ``open`` is where crash recovery happens; it is safe (and cheap) on
    a fresh directory.  All mutating calls require an opened service.
    """

    def __init__(
        self,
        data_dir: str | os.PathLike,
        config: StreamConfig | None = None,
        *,
        faults: FaultPlan | None = None,
        timeline: StreamTimeline | None = None,
        report: RecoveryReport | None = None,
    ) -> None:
        self.config = config if config is not None else StreamConfig()
        self.data_dir = os.fspath(data_dir)
        self.wal = WriteAheadLog(
            os.path.join(self.data_dir, "wal"),
            segment_max_bytes=self.config.segment_max_bytes,
        )
        self.snapshots = SnapshotStore(
            os.path.join(self.data_dir, "snapshots"),
            keep=self.config.snapshot_keep,
        )
        self.faults = faults
        self.timeline = timeline if timeline is not None else StreamTimeline()
        self.report = report if report is not None else RecoveryReport()
        self._engine = AgglomerationEngine(
            self.config.scorer,
            matcher=self.config.matcher,
            contractor=self.config.contractor,
            termination=self.config.termination,
        )
        self.store = EdgeStore.empty()
        self.labels: np.ndarray | None = None
        #: The store contracted by :attr:`labels`, summed by the last
        #: repair or rerun; the empty store's graph before any batch.
        self.community_graph: CommunityGraph = self.store.as_graph()
        self.ref_modularity = 0.0
        #: The (modularity, coverage) pair last reported; ``None`` until
        #: this object applies a batch or runs a rerun.  ``verify()``
        #: checks it against a from-scratch recompute.
        self.quality: tuple[float, float] | None = None
        #: Last applied edge-batch sequence (exactly-once key).
        self.batch_seq = 0
        #: Last WAL record sequence folded into in-memory state.
        self.wal_seq = 0
        self._pending_reason: str | None = None
        self._visits: dict[str, int] = {}
        self._opened = False

    # ----------------------------------------------------------- properties
    @property
    def n_vertices(self) -> int:
        return self.store.n_vertices

    @property
    def n_communities(self) -> int:
        if self.labels is None or not len(self.labels):
            return 0
        return int(self.labels.max()) + 1

    @property
    def partition(self) -> Partition:
        """The current community assignment (empty before any batch)."""
        labels = (
            self.labels
            if self.labels is not None
            else np.empty(0, VERTEX_DTYPE)
        )
        return Partition(labels)

    # --------------------------------------------------------------- faults
    def _fault(self, point: str) -> None:
        if self.faults is None:
            return
        index = self._visits.get(point, 0)
        self._visits[point] = index + 1
        spec = self.faults.decide_service(point, index)
        if spec is None:
            return
        if spec.kind == "sigkill":
            # A real SIGKILL: no atexit, no flush, no destructors — the
            # process state simply stops existing, exactly like a power
            # cut at this instruction.
            os.kill(os.getpid(), signal.SIGKILL)

    # --------------------------------------------------------------- open
    def open(self) -> WalRecovery:
        """Recover durable state and make the service live.

        Loads the newest valid snapshot (quarantining invalid ones),
        repairs the WAL (truncating/quarantining torn tails), replays
        the WAL tail against the snapshot, then closes the one
        non-durable crash window with a final drift evaluation.
        Returns the WAL recovery record.
        """
        state, n_invalid = self.snapshots.load_latest()
        self.report.checkpoints_invalid += n_invalid
        wal_rec = self.wal.recover()
        self.report.wal_torn_records += wal_rec.n_torn
        if state is not None:
            self.store = state.store
            self.labels = state.labels
            self.community_graph = state.community_graph
            self.ref_modularity = state.ref_modularity
            self.batch_seq = state.batch_seq
            self.wal_seq = state.wal_seq
            # A snapshot proves sequences up to wal_seq existed; if the
            # surviving log is empty (e.g. every record-bearing segment
            # was truncated away after this snapshot), fast-forward its
            # numbering so new appends continue above the snapshot.
            self.wal.ensure_seq_floor(self.wal_seq)

        # Materialize the tail before replaying: replay itself may
        # snapshot and truncate segments, which must not race the scan.
        tail = list(self.wal.records(start_seq=self.wal_seq + 1))
        if tail and tail[0].seq != self.wal_seq + 1:
            raise StreamStateError(
                f"recovery gap: state covers WAL seq {self.wal_seq} but "
                f"the surviving log starts at {tail[0].seq} — "
                f"{'no valid snapshot remains' if state is None else 'the valid snapshots predate the log'}"
            )
        self._opened = True
        for rec in tail:
            self.wal_seq = rec.seq
            if rec.kind == KIND_BATCH:
                batch = decode_batch(rec.payload)
                if batch.seq <= self.batch_seq:
                    continue
                self._apply_batch(batch, replaying=True)
                self.report.wal_replayed += 1
            elif rec.kind == KIND_RERUN:
                info = json.loads(rec.payload.decode("utf-8"))
                self._execute_rerun(str(info.get("reason", "journaled")))
        if self._pending_reason is not None:
            # The crash fell between deciding a (deterministic) rerun
            # and journaling it; re-make the identical decision live.
            self._escalate(self._pending_reason)
        if wal_rec.n_torn or self.report.wal_replayed:
            _log.info(
                "recovered: %d batches replayed, %d torn WAL event(s), "
                "state at batch %d / WAL %d",
                self.report.wal_replayed,
                wal_rec.n_torn,
                self.batch_seq,
                self.wal_seq,
            )
        return wal_rec

    # -------------------------------------------------------------- ingest
    def ingest(
        self,
        i: np.ndarray,
        j: np.ndarray,
        w: np.ndarray | None = None,
        op: np.ndarray | None = None,
        *,
        seq: int | None = None,
    ) -> BatchResult:
        """Journal and apply one edge batch; returns its outcome.

        ``op`` defaults to all-inserts; ``seq`` to the next batch
        sequence.  Re-delivering an already-applied sequence is a
        no-op (``applied=False``) — the exactly-once contract; a gap
        in sequences is an error.  So is a vertex id the store cannot
        hold (see :class:`~repro.stream.delta.EdgeBatch`): it raises
        ``ValueError`` before anything is journaled.
        """
        if not self._opened:
            raise StreamStateError("service not open (call open() first)")
        i = np.asarray(i).ravel()
        if w is None:
            w = np.ones(len(i))
        if op is None:
            op = np.ones(len(i), dtype=np.int8)
        if seq is None:
            seq = self.batch_seq + 1
        if seq <= self.batch_seq:
            return BatchResult(
                seq=seq,
                applied=False,
                n_vertices=self.n_vertices,
                n_edges=self.store.n_edges,
                n_communities=self.n_communities,
                modularity=float("nan"),
                coverage=float("nan"),
                latency_s=0.0,
            )
        if seq != self.batch_seq + 1:
            raise ValueError(
                f"batch sequence gap: expected {self.batch_seq + 1}, "
                f"got {seq}"
            )
        batch = EdgeBatch(seq=seq, i=i, j=j, w=w, op=op)
        rec = self.wal.append(encode_batch(batch), kind=KIND_BATCH)
        self.wal_seq = rec.seq
        self._fault("wal-append")
        return self._apply_batch(batch, replaying=False)

    # --------------------------------------------------------------- apply
    def _apply_batch(self, batch: EdgeBatch, *, replaying: bool) -> BatchResult:
        t0 = time.perf_counter()
        stats = self.store.apply(batch)
        bootstrap = self.labels is None

        reason: str | None = None
        quality: tuple[float, float] | None = None
        attempt = 0
        while True:
            try:
                quality = self._repair(stats.touched_vertices)
                break
            except (ReproError, ValueError) as exc:
                attempt += 1
                self.report.retries += 1
                if attempt > self.config.retry.max_retries:
                    reason = "repair-failed"
                    _log.warning(
                        "incremental repair of batch %d failed after "
                        "%d attempt(s): %s",
                        batch.seq,
                        attempt,
                        exc,
                    )
                    break
                delay = self.config.retry.backoff_s(attempt, token=batch.seq)
                _log.debug(
                    "repair attempt %d of batch %d failed (%s); "
                    "retrying in %.3fs",
                    attempt,
                    batch.seq,
                    exc,
                    delay,
                )
                time.sleep(delay)
        self._fault("apply")
        self.batch_seq = batch.seq
        repair_s = time.perf_counter() - t0

        q = cov = float("nan")
        if reason is None:
            if quality is None:
                # No row, so no repair graph: measure from scratch.
                graph = self.store.as_graph()
                part = Partition(self.labels)
                quality = modularity(graph, part), coverage(graph, part)
            q, cov = quality
            if bootstrap:
                self.ref_modularity = q
            elif (
                self.config.drift_threshold is not None
                and self.ref_modularity - q > self.config.drift_threshold
            ):
                reason = "drift"
            elif (
                not replaying
                and self.config.repair_deadline_s is not None
                and repair_s > self.config.repair_deadline_s
            ):
                # Wall-clock trigger: never evaluated during replay —
                # the journaled control record replays it instead.
                reason = "deadline"

        self._pending_reason = None
        if reason is not None:
            if replaying:
                # A live run journaled this decision right after the
                # batch; the control record follows in the tail and
                # will execute it.  If the crash beat the journal, the
                # post-replay evaluation in open() re-escalates.
                self._pending_reason = reason
            else:
                q, cov = self._escalate(reason)
        self.quality = q, cov

        latency_s = time.perf_counter() - t0
        self.timeline.record_batch(
            seq=batch.seq,
            n_vertices=self.n_vertices,
            n_edges=self.store.n_edges,
            n_communities=self.n_communities,
            modularity=q,
            coverage=cov,
            latency_s=latency_s,
            rerun=reason or "",
            replayed=replaying,
        )
        if (
            batch.seq % self.config.snapshot_every == 0
            and self._pending_reason is None
        ):
            self._snapshot()
        return BatchResult(
            seq=batch.seq,
            applied=True,
            n_vertices=self.n_vertices,
            n_edges=self.store.n_edges,
            n_communities=self.n_communities,
            modularity=q,
            coverage=cov,
            latency_s=latency_s,
            rerun=reason or "",
            n_unmatched_deletes=stats.n_unmatched_deletes,
        )

    # -------------------------------------------------------------- repair
    def _repair(self, touched: np.ndarray) -> tuple[float, float] | None:
        """Re-detect only the neighborhoods ``touched`` belongs to.

        Touched communities dissolve into singleton vertices; untouched
        communities ride as super-nodes whose internal edges fold into
        self-weights (:meth:`_reduce`).  The repair is a deterministic
        function of (store, labels, community graph, touched) — the
        crash-equivalence contract rests on this — and its final
        community graph becomes the next batch's.

        Returns the new partition's (modularity, coverage) over the
        whole store, read off the run's final community graph, or
        ``None`` when nothing was touched and no repair ran.
        """
        n = self.store.n_vertices
        labels = (
            self.labels
            if self.labels is not None
            else np.empty(0, VERTEX_DTYPE)
        )
        n_old = len(labels)
        k_old = int(labels.max()) + 1 if n_old else 0
        if n > n_old:
            # New vertices start as singleton communities (dense ids
            # appended after the existing ones).
            labels = np.concatenate(
                [labels, k_old + np.arange(n - n_old, dtype=VERTEX_DTYPE)]
            )
        if not len(touched):
            self.labels = labels
            return None
        graph, reduced = self._reduce(labels, touched)
        result = self._engine.run(
            graph, RunContext.create(seed=self.config.seed)
        )
        # Every reduced vertex has a member, so these labels are dense
        # and number the final graph's vertices.
        self.labels = result.partition.labels[reduced]
        self.community_graph = result.final_graph
        return _quality(result.final_graph)

    def _reduce(
        self, labels: np.ndarray, touched: np.ndarray
    ) -> tuple[CommunityGraph, np.ndarray]:
        """The reduced graph of a repair, and every vertex's reduced id.

        The reduced-id assignment is canonical: untouched communities by
        community id, then the members of touched communities by vertex
        id.  The graph is built from two parts.  A batch changes only
        rows with a touched endpoint, so the kept :attr:`community_graph`
        still holds every untouched community's self weight and the
        edges between untouched communities; the store rows incident to
        the frontier supply everything else.  Communities beyond the
        kept graph are new vertices the batch skipped past: they have no
        rows.  When the frontier's rows are more than
        :data:`_FULL_BUILD_SHARE` of the store (the bootstrap batch, or
        a batch scattered over most communities), gathering them costs
        more than relabelling every row, so the graph is built from all
        rows and the kept graph is not read.  The build's row-sized
        temporaries die on return, before the engine runs.
        """
        k = int(labels.max()) + 1
        touched_comm = np.zeros(k, dtype=bool)
        touched_comm[labels[touched]] = True
        touched_v = touched_comm[labels]

        untouched_comms = np.flatnonzero(~touched_comm)
        n_untouched = len(untouched_comms)
        comm_to_reduced = np.full(k, -1, dtype=np.int64)
        comm_to_reduced[untouched_comms] = np.arange(n_untouched)
        reduced = np.empty(len(labels), dtype=np.int64)
        reduced[~touched_v] = comm_to_reduced[labels[~touched_v]]
        frontier = np.flatnonzero(touched_v)
        reduced[frontier] = n_untouched + np.arange(len(frontier))

        lo, hi, w = self.store.lo, self.store.hi, self.store.w
        n_reduced = n_untouched + len(frontier)
        at_frontier = touched_v[lo] | touched_v[hi]
        if np.count_nonzero(at_frontier) > _FULL_BUILD_SHARE * len(lo):
            graph = from_edges(
                reduced[lo], reduced[hi], w, n_vertices=n_reduced
            )
            return graph, reduced
        rows = np.flatnonzero(at_frontier)

        kept = self.community_graph
        e = kept.edges
        n_known = int(np.searchsorted(untouched_comms, kept.n_vertices))
        between = ~(touched_comm[e.ei] | touched_comm[e.ej])
        supers = np.arange(n_known)
        graph = from_edges(
            np.concatenate(
                [supers, comm_to_reduced[e.ei[between]], reduced[lo[rows]]]
            ),
            np.concatenate(
                [supers, comm_to_reduced[e.ej[between]], reduced[hi[rows]]]
            ),
            np.concatenate(
                [
                    kept.self_weights[untouched_comms[:n_known]],
                    e.w[between],
                    w[rows],
                ]
            ),
            n_vertices=n_reduced,
        )
        return graph, reduced

    # ------------------------------------------------------------- degrade
    def _escalate(self, reason: str) -> tuple[float, float]:
        """Journal, then execute, one full-rerun rung."""
        payload = json.dumps(
            {"reason": reason, "batch_seq": self.batch_seq}
        ).encode("utf-8")
        rec = self.wal.append(payload, kind=KIND_RERUN)
        self.wal_seq = rec.seq
        self._fault("wal-rerun")
        return self._execute_rerun(reason)

    def _execute_rerun(self, reason: str) -> tuple[float, float]:
        """Full from-scratch re-detection over the whole store.

        Returns (and keeps) the new partition's (modularity, coverage),
        read off the run's final community graph like a repair's.
        """
        graph = self.store.as_graph()
        result = self._engine.run(
            graph, RunContext.create(seed=self.config.seed)
        )
        self.labels = result.partition.labels
        self.community_graph = result.final_graph
        q, cov = self.quality = _quality(result.final_graph)
        self.ref_modularity = q
        self.report.stream_reruns += 1
        self.report.ladder.append(f"full-rerun({reason}@batch{self.batch_seq})")
        self._pending_reason = None
        _log.info(
            "full rerun (%s) at batch %d: %d communities, modularity %.4f",
            reason,
            self.batch_seq,
            result.n_communities,
            q,
        )
        return q, cov

    # ------------------------------------------------------------ snapshot
    def _snapshot(self) -> None:
        assert self.labels is not None
        self.snapshots.save(
            ServiceState(
                wal_seq=self.wal_seq,
                batch_seq=self.batch_seq,
                store=self.store,
                labels=self.labels,
                ref_modularity=self.ref_modularity,
                community_graph=self.community_graph,
            )
        )
        self.report.checkpoints_written += 1
        self._fault("snapshot")
        self.wal.truncate_upto(self.wal_seq)
        self._fault("post-snapshot")

    # -------------------------------------------------------------- verify
    def verify(self) -> dict:
        """Structural self-check; returns ``{"ok": bool, "checks": {...}}``.

        Verifies the canonical store invariants, label density, label /
        store consistency, a full WAL re-scan (every surviving frame
        must still pass its CRCs), quality finiteness, that the last
        reported (modularity, coverage) matches a from-scratch recompute
        over the store (skipped while :attr:`quality` is ``None``), and
        that the kept :attr:`community_graph` matches the store
        contracted by the labels.  This is the ``repro replay --verify``
        gate.
        """
        checks: dict[str, bool] = {}
        try:
            self.store.validate()
            checks["store_canonical"] = True
        except ValueError:
            checks["store_canonical"] = False
        try:
            part = self.partition
            checks["labels_dense"] = True
            checks["labels_cover_store"] = (
                part.n_vertices == self.store.n_vertices
            )
        except ValueError:
            checks["labels_dense"] = False
            checks["labels_cover_store"] = False
        try:
            for _ in self.wal.records():
                pass
            checks["wal_integrity"] = True
        except ReproError:
            checks["wal_integrity"] = False
        if checks.get("labels_cover_store"):
            graph = self.store.as_graph()
            part = self.partition
            q = modularity(graph, part)
            if self.store.n_edges:
                checks["modularity_finite"] = bool(np.isfinite(q))
            if self.quality is not None:
                fresh = (q, coverage(graph, part))
                checks["quality_matches"] = all(
                    abs(kept - now) <= QUALITY_TOLERANCE
                    for kept, now in zip(self.quality, fresh)
                )
            try:
                match_community_graph(
                    self.community_graph, self.store.community_graph(part.labels)
                )
                checks["community_graph_matches"] = True
            except ValueError:
                checks["community_graph_matches"] = False
        return {"ok": all(checks.values()), "checks": checks}

    # --------------------------------------------------------------- close
    def close(self) -> None:
        """Snapshot (if there is unsnapshotted state) and release the WAL.

        The WAL is released and the service closed even when that final
        snapshot fails; the error still propagates, and the unsnapshotted
        batches stay in the WAL for the next :meth:`open` to replay.
        """
        try:
            if self._opened and self.labels is not None:
                on_disk = self.snapshots.seqs_on_disk()
                if self.wal_seq > (on_disk[-1] if on_disk else 0):
                    self._snapshot()
        finally:
            self.wal.close()
            self._opened = False

    def __enter__(self) -> "DetectionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
