"""Durable snapshots of the streaming service's state.

A snapshot is the *base* of recovery: the newest valid snapshot is
loaded, then the WAL tail (records with sequence numbers greater than
the snapshot's ``wal_seq``) is replayed on top.  One snapshot is one
self-contained ``.npz`` file named by the WAL sequence it covers, so
the directory is a history and recovery picks the newest file that
validates.

The durability rules mirror :mod:`repro.resilience.checkpoint` (this
store is its seq-keyed sibling): atomic tmp+fsync+rename writes,
schema-versioned payloads, full validation on reload — the edge arrays
are re-checked against the canonical-form invariants, the labels
re-pushed through :class:`~repro.metrics.partition.Partition`'s
density check and the community graph compared with the store
contracted by the labels — and invalid files are *quarantined* (renamed
``*.corrupt`` via the shared
:func:`~repro.resilience.checkpoint.quarantine_file`) so known-bad
bytes are validated at most once.  An empty or fully corrupt directory
recovers as "replay the WAL from sequence one"; whether that is
possible is the service's call (:class:`~repro.errors.StreamStateError`
when it is not).
"""

from __future__ import annotations

import os
import re
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import CheckpointError
from repro.graph.edgelist import EdgeList
from repro.graph.graph import CommunityGraph
from repro.metrics.partition import Partition
from repro.resilience.checkpoint import quarantine_file
from repro.stream.delta import EdgeStore
from repro.types import VERTEX_DTYPE
from repro.util.atomicio import atomic_write
from repro.util.log import get_logger

__all__ = [
    "QUALITY_TOLERANCE",
    "SNAPSHOT_SCHEMA_VERSION",
    "ServiceState",
    "SnapshotStore",
    "match_community_graph",
]

#: Version of the on-disk snapshot schema.
SNAPSHOT_SCHEMA_VERSION = 1

#: How far a kept modularity or coverage may sit from a from-scratch
#: recompute (float rounding only).  A kept community graph's weights
#: get the same tolerance times the total weight: a weight that far off
#: moves modularity by about this much.
QUALITY_TOLERANCE = 1e-9

#: The snapshot members holding the community graph.  Snapshots written
#: before it was persisted lack them; loading such a file re-derives it.
_GRAPH_MEMBERS = (
    "community_ei",
    "community_ej",
    "community_w",
    "community_self_weights",
)

_FILE_RE = re.compile(r"^snap_(\d{12})\.npz$")

_log = get_logger("stream.store")


def match_community_graph(kept: CommunityGraph, fresh: CommunityGraph) -> None:
    """Raise ``ValueError`` unless ``kept`` equals ``fresh`` up to rounding.

    ``fresh`` is the store contracted by the current labels
    (:meth:`~repro.stream.delta.EdgeStore.community_graph`).  The vertex
    count and the edge keys must be equal; the weights and self weights
    may differ by :data:`QUALITY_TOLERANCE` times the total weight, the
    room that summing the same rows in another order needs.
    """
    if kept.n_vertices != fresh.n_vertices:
        raise ValueError(
            f"{kept.n_vertices} community vertices, the labels name "
            f"{fresh.n_vertices}"
        )
    a, b = kept.edges, fresh.edges
    if not (np.array_equal(a.ei, b.ei) and np.array_equal(a.ej, b.ej)):
        raise ValueError(
            f"{a.n_edges} community edges differ from the {b.n_edges} "
            "the store contracts to"
        )
    atol = QUALITY_TOLERANCE * max(1.0, fresh.total_weight())
    if not (
        a.w.shape == b.w.shape
        and np.all(np.abs(a.w - b.w) <= atol)
        and np.all(np.abs(kept.self_weights - fresh.self_weights) <= atol)
    ):
        raise ValueError(
            f"community weights differ from the store's by more than {atol:g}"
        )


@dataclass
class ServiceState:
    """Everything the service needs to resume at a WAL position.

    Attributes
    ----------
    wal_seq:
        Last WAL record sequence folded into this state; recovery
        replays strictly greater sequences.
    batch_seq:
        Last *edge-batch* sequence applied (the exactly-once key the
        replay harness dedups on; WAL sequences also count control
        records, so the two run apart).
    store:
        The canonical edge multiset.
    labels:
        Dense community labels over ``store.n_vertices`` vertices.
    community_graph:
        The store contracted by ``labels``, as the last repair or rerun
        summed it: the next repair builds its reduced graph from it.
    ref_modularity:
        The drift baseline — modularity measured at the last full
        detection (bootstrap or rerun rung).
    """

    wal_seq: int
    batch_seq: int
    store: EdgeStore
    labels: np.ndarray
    community_graph: CommunityGraph
    ref_modularity: float = 0.0

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=VERTEX_DTYPE).ravel()


class SnapshotStore:
    """Reads and writes service snapshots in one directory.

    Parameters
    ----------
    directory:
        Snapshot directory; created if missing.
    keep:
        Newest snapshots to retain after each save.  ``None`` keeps
        everything; the default keeps a fallback behind the newest.
    """

    def __init__(
        self, directory: str | os.PathLike, *, keep: int | None = 3
    ) -> None:
        if keep is not None and keep < 1:
            raise ValueError("keep must be at least 1 (or None)")
        self.directory = Path(directory)
        self.keep = keep
        self.directory.mkdir(parents=True, exist_ok=True)

    # ---------------------------------------------------------------- paths
    def path_for(self, wal_seq: int) -> Path:
        return self.directory / f"snap_{wal_seq:012d}.npz"

    def seqs_on_disk(self) -> list[int]:
        """Snapshot WAL sequences present (sorted ascending)."""
        out = []
        for name in os.listdir(self.directory):
            m = _FILE_RE.match(name)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    # ----------------------------------------------------------------- save
    def save(self, state: ServiceState) -> Path:
        """Atomically persist one snapshot; returns its path.

        Members are stored uncompressed (~24 B per store row): deflating
        the whole store costs a stream far more than the disk it saves.
        The zip's per-member CRC-32, checked as each member is read, and
        :meth:`load_seq`'s validation guard the bytes either way, and
        older compressed snapshots load unchanged.  The community graph
        adds four members (~24 B per community edge plus 8 B per
        community).
        """
        if state.batch_seq > state.wal_seq:
            raise ValueError(
                f"batch_seq {state.batch_seq} > wal_seq {state.wal_seq}"
            )
        if len(state.labels) != state.store.n_vertices:
            raise ValueError(
                f"labels cover {len(state.labels)} vertices but the store "
                f"has {state.store.n_vertices}"
            )
        graph = state.community_graph
        e = graph.edges
        members = zip(_GRAPH_MEMBERS, (e.ei, e.ej, e.w, graph.self_weights))
        final = self.path_for(state.wal_seq)
        with atomic_write(final, mode="wb") as fh:
            np.savez(
                fh,
                schema=np.int64(SNAPSHOT_SCHEMA_VERSION),
                wal_seq=np.int64(state.wal_seq),
                batch_seq=np.int64(state.batch_seq),
                n_vertices=np.int64(state.store.n_vertices),
                lo=state.store.lo,
                hi=state.store.hi,
                w=state.store.w,
                labels=state.labels,
                ref_modularity=np.float64(state.ref_modularity),
                **dict(members),
            )
        self._prune()
        return final

    def _prune(self) -> None:
        if self.keep is None:
            return
        for seq in self.seqs_on_disk()[: -self.keep]:
            try:
                self.path_for(seq).unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass

    # ----------------------------------------------------------------- load
    def load_seq(self, wal_seq: int) -> ServiceState:
        """Load and validate one snapshot; raises :class:`CheckpointError`."""
        path = self.path_for(wal_seq)
        try:
            with np.load(path, allow_pickle=False) as data:
                return self._decode(path, data)
        except CheckpointError:
            raise
        except (OSError, zipfile.BadZipFile, KeyError, ValueError) as exc:
            raise CheckpointError(
                f"{path}: unreadable or truncated snapshot: {exc}"
            ) from exc

    def _decode(self, path: Path, data) -> ServiceState:
        schema = int(data["schema"])
        if schema != SNAPSHOT_SCHEMA_VERSION:
            raise CheckpointError(
                f"{path}: snapshot schema {schema} unsupported "
                f"(expected {SNAPSHOT_SCHEMA_VERSION})"
            )
        store = EdgeStore(
            int(data["n_vertices"]), data["lo"], data["hi"], data["w"]
        )
        try:
            store.validate()
        except ValueError as exc:
            raise CheckpointError(
                f"{path}: snapshotted edge store fails validation: {exc}"
            ) from exc
        labels = np.asarray(data["labels"], dtype=VERTEX_DTYPE)
        if len(labels) != store.n_vertices:
            raise CheckpointError(
                f"{path}: labels cover {len(labels)} vertices but the "
                f"store has {store.n_vertices}"
            )
        try:
            Partition(labels)  # density/negativity check
        except ValueError as exc:
            raise CheckpointError(
                f"{path}: snapshotted labels fail validation: {exc}"
            ) from exc
        wal_seq = int(data["wal_seq"])
        batch_seq = int(data["batch_seq"])
        if not 0 <= batch_seq <= wal_seq:
            raise CheckpointError(
                f"{path}: batch_seq {batch_seq} inconsistent with "
                f"wal_seq {wal_seq}"
            )
        ref = float(data["ref_modularity"])
        if not np.isfinite(ref):
            raise CheckpointError(f"{path}: non-finite drift baseline")
        graph = store.community_graph(labels)
        if _GRAPH_MEMBERS[0] in data.files:
            ei, ej, w, self_w = (data[name] for name in _GRAPH_MEMBERS)
            kept = CommunityGraph(
                EdgeList._from_grouped(
                    np.asarray(ei, dtype=VERTEX_DTYPE),
                    np.asarray(ej, dtype=VERTEX_DTYPE),
                    w,
                    len(self_w),
                ),
                self_w,
            )
            try:
                match_community_graph(kept, graph)
            except ValueError as exc:
                raise CheckpointError(
                    f"{path}: snapshotted community graph does not match "
                    f"the store and labels: {exc}"
                ) from exc
            graph = kept
        return ServiceState(
            wal_seq=wal_seq,
            batch_seq=batch_seq,
            store=store,
            labels=labels,
            ref_modularity=ref,
            community_graph=graph,
        )

    def load_latest(self) -> tuple[ServiceState | None, int]:
        """The newest valid snapshot, plus the count of invalid files.

        Invalid files are quarantined (``*.corrupt``) and logged once,
        exactly like
        :meth:`repro.resilience.checkpoint.CheckpointManager.load_latest`.
        """
        n_invalid = 0
        quarantined: list[str] = []
        state: ServiceState | None = None
        for seq in reversed(self.seqs_on_disk()):
            try:
                state = self.load_seq(seq)
                break
            except CheckpointError as exc:
                n_invalid += 1
                try:
                    quarantined.append(str(quarantine_file(self.path_for(seq))))
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass
                _log.debug("invalid snapshot: %s", exc)
        if quarantined:
            _log.warning(
                "quarantined %d invalid snapshot file(s): %s",
                len(quarantined),
                ", ".join(quarantined),
            )
        return state, n_invalid
