"""Per-level algorithm-quality timeline of an agglomeration run.

The span tracer answers *where time went*; this module answers *what the
algorithm was doing to the partition while it went there*.  Lu &
Halappanavar and Staudt & Meyerhenke both evaluate parallel community
detection via per-iteration quality trajectories — modularity and
coverage after every coarsening step — and the paper's own termination
rule (coverage ≥ 0.5) is a statement about this trajectory.

:class:`QualityTimeline` is a view of a finished run:
:meth:`QualityTimeline.from_result` reads one :class:`LevelQuality`
sample per contraction level off an
:class:`~repro.core.engine.AgglomerationResult`, carrying

* ``modularity`` / ``coverage`` / ``mirror_coverage`` of the partition
  *after* the level's contraction;
* ``n_communities`` remaining;
* ``merge_fraction`` — matched pairs over vertices entering the level,
  the quantity the ``stalled`` termination rule thresholds;
* ``matching_passes`` — the §IV-B pass count;
* ``community_sizes`` — a fixed-bucket histogram (input vertices per
  community, power-of-two buckets) so skew is visible without storing
  the full size array.

The timeline serializes to/from plain dicts (``as_dict`` /
``from_dict``) and is what the benchmark ledger
(:mod:`repro.bench.ledger`) embeds per repetition.  The result exists
whether or not the run was traced, and a resumed run's result holds
the levels it restored, so every run has its whole trajectory.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.obs.metrics import Histogram
from repro.types import VERTEX_DTYPE

if TYPE_CHECKING:
    from repro.core.engine import AgglomerationResult

__all__ = [
    "TIMELINE_SCHEMA_VERSION",
    "STREAM_TIMELINE_SCHEMA_VERSION",
    "SIZE_HISTOGRAM_EDGES",
    "LevelQuality",
    "QualityTimeline",
    "BatchQuality",
    "StreamTimeline",
]

#: Version of the timeline dict schema (embedded in ledger records).
TIMELINE_SCHEMA_VERSION = 1

#: Power-of-two bucket edges for the community-size histogram.  Sizes are
#: input vertices per community, so 2^20 covers every graph the scaled
#: analogues build; one overflow bucket catches anything larger.
SIZE_HISTOGRAM_EDGES: tuple[float, ...] = tuple(
    float(2**k) for k in range(21)
)


@dataclass(frozen=True)
class LevelQuality:
    """Quality sample after one contraction level.

    ``merge_fraction`` is matched pairs over vertices *entering* the
    level (1 pair merges 2 vertices, so a perfect matching gives 0.5);
    ``community_sizes`` is a JSON-ready histogram dict with ``edges`` /
    ``counts`` / ``total`` / ``sum`` / ``max`` keys.
    """

    level: int
    n_communities: int
    modularity: float
    coverage: float
    mirror_coverage: float
    merge_fraction: float
    matching_passes: int
    community_sizes: dict = field(default_factory=dict)


def _size_histogram(member_counts: np.ndarray) -> dict:
    """Histogram the per-community input-vertex counts."""
    h = Histogram("community_sizes", edges=SIZE_HISTOGRAM_EDGES)
    arr = np.asarray(member_counts)
    h.observe_many(arr)
    return {**h.as_dict(), "max": int(arr.max()) if arr.size else 0}


class QualityTimeline:
    """One :class:`LevelQuality` per completed level of a run."""

    def __init__(self) -> None:
        self.levels: list[LevelQuality] = []

    @classmethod
    def from_result(cls, result: "AgglomerationResult") -> "QualityTimeline":
        """The trajectory of a finished run, one sample per level.

        Quality and matching counts come from ``result.levels``; the
        community sizes fold input-vertex counts over
        ``result.dendrogram.maps`` with the bincount the engine uses for
        its ``max_community_size`` veto.
        """
        tl = cls()
        dendrogram = result.dendrogram
        counts = np.ones(dendrogram.n_vertices, dtype=VERTEX_DTYPE)
        for k, (stats, mapping) in enumerate(zip(result.levels, dendrogram.maps)):
            n = dendrogram.communities_at(k + 1)
            counts = np.bincount(
                mapping, weights=counts, minlength=n
            ).astype(VERTEX_DTYPE)
            coverage = float(stats.coverage_after)
            tl.levels.append(
                LevelQuality(
                    level=int(stats.level),
                    n_communities=n,
                    modularity=float(stats.modularity_after),
                    coverage=coverage,
                    mirror_coverage=1.0 - coverage,
                    merge_fraction=(
                        float(stats.n_pairs) / float(stats.n_vertices)
                        if stats.n_vertices > 0
                        else 0.0
                    ),
                    matching_passes=int(stats.matching_passes),
                    community_sizes=_size_histogram(counts),
                )
            )
        return tl

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def final(self) -> LevelQuality | None:
        """The last recorded sample (the run's terminal quality)."""
        return self.levels[-1] if self.levels else None

    def as_dict(self) -> dict:
        """JSON-ready dump (the shape the bench ledger embeds)."""
        return {
            "version": TIMELINE_SCHEMA_VERSION,
            "levels": [asdict(s) for s in self.levels],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QualityTimeline":
        """Rebuild a timeline from :meth:`as_dict` output.

        Timelines written while the per-level kernel tuner existed carry
        a ``tuner`` key on every level (``null`` unless the run used
        ``--matcher auto``); that one key is dropped, any other unknown
        key still raises.
        """
        version = data.get("version")
        if version != TIMELINE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported timeline version {version!r} "
                f"(expected {TIMELINE_SCHEMA_VERSION})"
            )
        tl = cls()
        for d in data.get("levels", []):
            d = {k: v for k, v in d.items() if k != "tuner"}
            tl.levels.append(LevelQuality(**d))
        return tl


# -------------------------------------------------------------- streaming
#: Version of the streaming timeline dict schema.
STREAM_TIMELINE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BatchQuality:
    """Quality sample after one streaming edge batch.

    The per-batch analogue of :class:`LevelQuality`: where the batch
    pipeline's trajectory runs over contraction levels, the streaming
    service's runs over applied batches — this is the trajectory the
    drift-triggered degradation ladder thresholds.  ``rerun`` is the
    empty string for an ordinary incremental repair, or the ladder
    reason (``"drift"``, ``"deadline"``, ``"repair-failed"``) when the
    batch escalated to a full re-detection; ``replayed`` marks samples
    recorded while recovering the WAL tail rather than ingesting live.
    """

    seq: int
    n_vertices: int
    n_edges: int
    n_communities: int
    modularity: float
    coverage: float
    latency_s: float
    rerun: str = ""
    replayed: bool = False


class StreamTimeline:
    """Accumulates one :class:`BatchQuality` per applied batch."""

    enabled = True

    def __init__(self) -> None:
        self.batches: list[BatchQuality] = []

    def record_batch(
        self,
        *,
        seq: int,
        n_vertices: int,
        n_edges: int,
        n_communities: int,
        modularity: float,
        coverage: float,
        latency_s: float,
        rerun: str = "",
        replayed: bool = False,
    ) -> BatchQuality:
        """Append the sample for one applied batch."""
        sample = BatchQuality(
            seq=int(seq),
            n_vertices=int(n_vertices),
            n_edges=int(n_edges),
            n_communities=int(n_communities),
            modularity=float(modularity),
            coverage=float(coverage),
            latency_s=float(latency_s),
            rerun=str(rerun),
            replayed=bool(replayed),
        )
        self.batches.append(sample)
        return sample

    @property
    def n_batches(self) -> int:
        return len(self.batches)

    @property
    def final(self) -> BatchQuality | None:
        """The last recorded sample (the stream's current quality)."""
        return self.batches[-1] if self.batches else None

    def as_dict(self) -> dict:
        """JSON-ready dump (embedded in ``BENCH_stream.json``)."""
        return {
            "version": STREAM_TIMELINE_SCHEMA_VERSION,
            "batches": [asdict(s) for s in self.batches],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StreamTimeline":
        """Rebuild a streaming timeline from :meth:`as_dict` output."""
        version = data.get("version")
        if version != STREAM_TIMELINE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported stream timeline version {version!r} "
                f"(expected {STREAM_TIMELINE_SCHEMA_VERSION})"
            )
        tl = cls()
        for d in data.get("batches", []):
            tl.batches.append(BatchQuality(**d))
        return tl

