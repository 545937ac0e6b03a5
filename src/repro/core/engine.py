"""The phase-pipeline engine: RunContext, phase kernels, and the driver.

The paper's algorithm is a pipeline — score → match → contract repeated
over a shrinking community graph (§III) — and this module is that
pipeline as an explicit composition instead of a monolithic loop:

* :class:`RunContext` owns every cross-cutting service a run needs
  (tracer, recovery report, checkpoint manager,
  simulated-work recorder, RNG
  seed, logger) and is passed **once** through every layer, replacing
  the ad-hoc kwarg plumbing the driver had grown.
* :class:`PhaseKernel` is the one protocol scorers, matchers and
  contractors plug in behind; concrete kernels resolve by name through
  :mod:`repro.core.registry`, so ablation variants and user kernels are
  a registration away.
* :class:`AgglomerationEngine` runs the loop: termination checks,
  per-level spans, the ``max_community_size`` veto, dendrogram and
  member-count bookkeeping, and checkpoint/resume: the loop's policy
  rather than kernel arithmetic.

:func:`repro.core.agglomeration.detect_communities` is a thin
compatibility wrapper over this engine; see docs/ARCHITECTURE.md for
the layer diagram and extension guide.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

from repro.core.dendrogram import Dendrogram
from repro.core.matching import MatchingResult
from repro.core.registry import create_kernel
from repro.core.scoring import EdgeScorer, validate_scores
from repro.core.termination import TerminationCriteria
from repro.errors import CheckpointError, RunAbortedError
from repro.graph.edgelist import EdgeList
from repro.graph.graph import CommunityGraph
from repro.metrics.modularity import community_graph_modularity
from repro.metrics.partition import Partition
from repro.obs.memprof import (
    NULL_MEMPROF,
    NullMemoryProfiler,
    PhaseMemoryProfiler,
    as_memprof,
)
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    TelemetrySampler,
    as_telemetry,
)
from repro.obs.trace import NullTracer, Tracer, as_tracer
from repro.platform.kernels import TraceRecorder
from repro.resilience.checkpoint import CheckpointManager, CheckpointState
from repro.resilience.guardian import (
    NULL_GUARDIAN,
    NullGuardian,
    RunGuardian,
    as_guardian,
)
from repro.resilience.report import RecoveryReport
from repro.types import NO_VERTEX, VERTEX_DTYPE
from repro.util.log import get_logger

__all__ = [
    "LevelStats",
    "AgglomerationResult",
    "RunContext",
    "PhaseKernel",
    "ScoreKernel",
    "MatchKernel",
    "ContractKernel",
    "AgglomerationEngine",
]

_log = get_logger("core.engine")


# ------------------------------------------------------------------ results
@dataclass(frozen=True)
class LevelStats:
    """Statistics of one contraction level.

    ``n_vertices``/``n_edges`` describe the community graph *entering* the
    level; coverage and modularity are measured *after* its contraction.
    """

    level: int
    n_vertices: int
    n_edges: int
    n_positive_scores: int
    n_pairs: int
    matching_passes: int
    coverage_after: float
    modularity_after: float


@dataclass
class AgglomerationResult:
    """Full outcome of a community-detection run."""

    partition: Partition
    dendrogram: Dendrogram
    levels: list[LevelStats] = field(default_factory=list)
    terminated_by: str = ""
    final_graph: CommunityGraph | None = None
    scorer_name: str = ""
    recovery: RecoveryReport = field(default_factory=RecoveryReport)

    @property
    def n_communities(self) -> int:
        return self.partition.n_communities

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def total_edge_work(self) -> int:
        """Σ per-level community-graph edges — the paper's O(|E|·K) bound."""
        return sum(s.n_edges for s in self.levels)


def _limit_matching(
    matching: MatchingResult,
    scores: np.ndarray,
    max_pairs: int,
    edges: EdgeList,
) -> MatchingResult:
    """Keep only the ``max_pairs`` highest-scored matched pairs.

    Used when a full contraction would drop below ``min_communities``.
    The returned result is self-consistent: the partner array is rebuilt
    here from the surviving edges, so callers never patch it up.
    """
    if matching.n_pairs <= max_pairs:
        return matching
    me = matching.matched_edges
    order = np.argsort(scores[me], kind="stable")[::-1][:max_pairs]
    kept = np.sort(me[order])
    partner = np.full_like(matching.partner, NO_VERTEX)
    partner[edges.ei[kept]] = edges.ej[kept]
    partner[edges.ej[kept]] = edges.ei[kept]
    return MatchingResult(
        partner=partner,
        matched_edges=kept,
        passes=matching.passes,
        failed_claims=matching.failed_claims,
    )


# ----------------------------------------------------------------- context
@dataclass
class RunContext:
    """Cross-cutting services of one agglomeration run.

    Built once (usually via :meth:`create`) and passed through every
    layer — engine and phase kernels — so no layer re-plumbs
    tracer/recovery/checkpoint arguments individually.

    Attributes
    ----------
    tracer:
        Wall-clock span tracer (normalized; never ``None``).
    recovery:
        Accumulator for every recovery action taken during the run.
    recorder:
        Optional simulated-work recorder for the platform cost models.
    checkpoints:
        Optional checkpoint manager; ``None`` disables persistence.
    checkpoint_every:
        Persist every N-th completed level.
    seed:
        RNG seed associated with the run (stamped on the run span;
        kernels that randomize derive from it).
    log:
        Logger the engine reports per-level progress to.
    guardian:
        Run guardian (watchdog + invariant audits + degradation
        ladder); defaults to the inert :data:`NULL_GUARDIAN`.
    telemetry:
        Live-telemetry sampler the engine publishes phase/level
        transitions to; defaults to the inert :data:`NULL_TELEMETRY`.
    memprof:
        Phase-scoped tracemalloc memory attributor; defaults to the
        inert :data:`NULL_MEMPROF`.
    """

    tracer: Tracer | NullTracer
    recovery: RecoveryReport = field(default_factory=RecoveryReport)
    recorder: TraceRecorder | None = None
    checkpoints: CheckpointManager | None = None
    checkpoint_every: int = 1
    seed: int = 0
    log: Any = _log
    guardian: RunGuardian | NullGuardian = NULL_GUARDIAN
    telemetry: TelemetrySampler | NullTelemetry = NULL_TELEMETRY
    memprof: PhaseMemoryProfiler | NullMemoryProfiler = NULL_MEMPROF

    @classmethod
    def create(
        cls,
        *,
        tracer: Tracer | NullTracer | None = None,
        recorder: TraceRecorder | None = None,
        recovery: RecoveryReport | None = None,
        checkpoint_dir: Any = None,
        checkpoint_every: int = 1,
        seed: int = 0,
        guardian: RunGuardian | NullGuardian | None = None,
        telemetry: TelemetrySampler | NullTelemetry | None = None,
        memprof: PhaseMemoryProfiler | NullMemoryProfiler | None = None,
    ) -> "RunContext":
        """Normalize optional services into a ready-to-use context."""
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        return cls(
            tracer=as_tracer(tracer),
            recovery=recovery if recovery is not None else RecoveryReport(),
            recorder=recorder,
            checkpoints=(
                CheckpointManager(checkpoint_dir)
                if checkpoint_dir is not None
                else None
            ),
            checkpoint_every=checkpoint_every,
            seed=seed,
            guardian=as_guardian(guardian),
            telemetry=as_telemetry(telemetry),
            memprof=as_memprof(memprof),
        )


# ----------------------------------------------------------------- kernels
@runtime_checkable
class PhaseKernel(Protocol):
    """One pipeline phase, executable against a :class:`RunContext`.

    ``kind`` names the phase slot (``"scorer"`` / ``"matcher"`` /
    ``"contractor"``), ``name`` the concrete implementation; ``run``
    receives the context plus the phase's inputs and returns its
    outputs.  The adapters below wrap the raw kernel callables in this
    shape so the engine drives all three phases uniformly.
    """

    kind: str
    name: str

    def run(self, ctx: RunContext, graph: CommunityGraph, **inputs: Any) -> Any:
        ...  # pragma: no cover - protocol stub


class ScoreKernel:
    """Scoring phase: wraps an :class:`~repro.core.scoring.EdgeScorer`.

    Built-in scorers validate their own output (``validates_output``
    class attribute); external protocol implementations are validated
    here, once, instead of re-validating every scorer every level.
    """

    kind = "scorer"

    def __init__(self, scorer: EdgeScorer) -> None:
        self.scorer = scorer
        self.name = scorer.name
        self._needs_validation = not getattr(scorer, "validates_output", False)

    def run(
        self, ctx: RunContext, graph: CommunityGraph, **inputs: Any
    ) -> np.ndarray:
        scores = self.scorer.score(graph, ctx.recorder)
        if self._needs_validation:
            scores = validate_scores(scores, scorer=self.name)
        return scores


class MatchKernel:
    """Matching phase: wraps a matching callable from the registry."""

    kind = "matcher"

    def __init__(
        self, name: str, fn: Callable[..., MatchingResult]
    ) -> None:
        self.name = name
        self.fn = fn

    def run(
        self,
        ctx: RunContext,
        graph: CommunityGraph,
        *,
        scores: np.ndarray,
        **inputs: Any,
    ) -> MatchingResult:
        return self.fn(graph, scores, ctx.recorder, tracer=ctx.tracer)


class ContractKernel:
    """Contraction phase: wraps a contraction callable from the registry."""

    kind = "contractor"

    def __init__(self, name: str, fn: Callable[..., tuple]) -> None:
        self.name = name
        self.fn = fn

    def run(
        self,
        ctx: RunContext,
        graph: CommunityGraph,
        *,
        matching: MatchingResult,
        **inputs: Any,
    ) -> tuple[CommunityGraph, np.ndarray]:
        return self.fn(graph, matching, ctx.recorder, tracer=ctx.tracer)


def _resolve_scorer(scorer: EdgeScorer | str | None) -> ScoreKernel:
    if scorer is None:
        scorer = create_kernel("scorer", "modularity")  # type: ignore[assignment]
    elif isinstance(scorer, str):
        scorer = create_kernel("scorer", scorer)  # type: ignore[assignment]
    return ScoreKernel(scorer)  # type: ignore[arg-type]


def _resolve_matcher(matcher: str | Callable[..., MatchingResult]) -> MatchKernel:
    if callable(matcher):
        return MatchKernel(getattr(matcher, "__name__", "custom"), matcher)
    return MatchKernel(matcher, create_kernel("matcher", matcher))  # type: ignore[arg-type]


def _resolve_contractor(contractor: str | Callable[..., tuple]) -> ContractKernel:
    if callable(contractor):
        return ContractKernel(getattr(contractor, "__name__", "custom"), contractor)
    return ContractKernel(
        contractor, create_kernel("contractor", contractor)  # type: ignore[arg-type]
    )


# ------------------------------------------------------------------ engine
class AgglomerationEngine:
    """Drives score → match → contract over a shrinking community graph.

    The engine is configured once with its three phase kernels (by
    registry name, raw callable, or scorer instance) and termination
    criteria; :meth:`run` then executes any number of runs, each against
    its own :class:`RunContext`.  Results are identical to those of the
    historical ``detect_communities`` loop — the parity suite in
    ``tests/test_engine_parity.py`` enforces it.
    """

    def __init__(
        self,
        scorer: EdgeScorer | str | None = None,
        *,
        matcher: str | Callable[..., MatchingResult] = "worklist",
        contractor: str | Callable[..., tuple] = "bucket",
        termination: TerminationCriteria | None = None,
    ) -> None:
        self.score_kernel = _resolve_scorer(scorer)
        self.match_kernel = _resolve_matcher(matcher)
        self.contract_kernel = _resolve_contractor(contractor)
        self.termination = (
            termination
            if termination is not None
            else TerminationCriteria.paper_experiments()
        )

    # ------------------------------------------------------------- resume
    def _load_resume_state(
        self,
        ctx: RunContext,
        graph: CommunityGraph,
    ) -> CheckpointState | None:
        """The newest valid checkpoint, validated against the input graph."""
        if ctx.checkpoints is None:
            raise ValueError("resume=True requires checkpoint_dir")
        state, n_invalid = ctx.checkpoints.load_latest()
        ctx.recovery.checkpoints_invalid += n_invalid
        if state is not None and state.n_input_vertices != graph.n_vertices:
            raise CheckpointError(
                f"checkpoint covers {state.n_input_vertices} input "
                f"vertices but the graph has {graph.n_vertices}"
            )
        return state

    # ---------------------------------------------------------------- run
    def run(
        self,
        graph: CommunityGraph,
        ctx: RunContext | None = None,
        *,
        resume: bool = False,
    ) -> AgglomerationResult:
        """Detect communities on ``graph``; see
        :func:`repro.core.agglomeration.detect_communities` for the
        parameter-by-parameter contract this engine honors."""
        if ctx is None:
            ctx = RunContext.create()
        tr = ctx.tracer
        guard = as_guardian(ctx.guardian)
        guard.bind(ctx, graph)
        # The live-telemetry sampler reads the recovery report off the
        # context every tick, so a guardian degradation is visible
        # immediately; the engine publishes phase transitions.
        ctx.telemetry.bind_run(ctx)

        current = graph.copy()
        dendrogram = Dendrogram(graph.n_vertices)
        levels: list[LevelStats] = []
        # Input vertices per community, for the max_community_size veto.
        member_counts = np.ones(graph.n_vertices, dtype=VERTEX_DTYPE)
        # (levels, path) of the newest checkpoint this run has written or
        # resumed from.
        saved: tuple[int, Path] | None = None

        with tr.span(
            "agglomeration",
            scorer=self.score_kernel.name,
            matcher=self.match_kernel.name,
            contractor=self.contract_kernel.name,
            seed=ctx.seed,
        ) as run_span:
            if resume:
                state = self._load_resume_state(ctx, graph)
                if state is not None:
                    current = state.graph
                    dendrogram = Dendrogram(graph.n_vertices)
                    for mapping in state.maps:
                        dendrogram.push(mapping)
                    member_counts = np.asarray(
                        state.member_counts, dtype=VERTEX_DTYPE
                    )
                    levels = [LevelStats(**d) for d in state.level_stats]
                    # The loaded checkpoint holds these levels already.
                    saved = (len(levels), ctx.checkpoints.path_for(state.level))
                    ctx.recovery.resumed_from_level = state.level
                    run_span.set(resumed_from_level=state.level)
                    ctx.log.info(
                        "resumed from checkpoint level %d (%d communities)",
                        state.level,
                        current.n_vertices,
                    )

            try:
                while True:
                    stop = self._stop_reason(current, levels)
                    if stop is not None:
                        terminated_by = stop
                        break
                    stats, current, member_counts = self._run_level(
                        ctx,
                        current,
                        dendrogram,
                        member_counts,
                        level_idx=len(levels),
                        guard=guard,
                    )
                    if stats is None:
                        terminated_by = "local_maximum"
                        break
                    levels.append(stats)
                    path = self._after_level(
                        ctx, current, dendrogram, member_counts, levels
                    )
                    if path is not None:
                        saved = (len(levels), path)
            except RunAbortedError as exc:
                # The guardian spent its last ladder rung.  Persist the
                # completed levels when checkpointing is configured and
                # they are not saved yet, so the aborted run stays
                # resumable, then re-raise with the forensics attached.
                if saved is not None and saved[0] == len(levels):
                    exc.checkpoint_path = saved[1]
                else:
                    exc.checkpoint_path = self._save_checkpoint(
                        ctx, current, dendrogram, member_counts, levels
                    )
                exc.report = ctx.recovery
                run_span.set(
                    terminated_by="aborted",
                    n_levels=len(levels),
                    items=graph.n_edges,
                )
                ctx.log.error(
                    "run aborted by guardian after %d levels: %s",
                    len(levels),
                    exc,
                )
                raise

            run_span.set(
                terminated_by=terminated_by,
                n_levels=len(levels),
                items=graph.n_edges,
            )
            ctx.telemetry.publish_phase("done", None)

        return AgglomerationResult(
            partition=dendrogram.final_partition(),
            dendrogram=dendrogram,
            levels=levels,
            terminated_by=terminated_by,
            final_graph=current,
            scorer_name=self.score_kernel.name,
            recovery=ctx.recovery,
        )

    # -------------------------------------------------------------- level
    def _stop_reason(
        self, current: CommunityGraph, levels: list[LevelStats]
    ) -> str | None:
        """Why the run stops before another level, or ``None`` to go on.

        The coverage and stall criteria judge the last completed level,
        whether this process ran it or restored it from a checkpoint, so
        a resumed run stops where the uninterrupted run stopped.
        """
        termination = self.termination
        if levels:
            last = levels[-1]
            if (
                termination.coverage is not None
                and last.coverage_after >= termination.coverage
            ):
                return "coverage"
            if (
                termination.min_merge_fraction is not None
                and last.n_pairs < termination.min_merge_fraction * last.n_vertices
            ):
                return "stalled"
        # A vertexless graph stops here too: min_communities is at least 1.
        if current.n_vertices <= termination.min_communities:
            return "min_communities"
        if (
            termination.max_levels is not None
            and len(levels) >= termination.max_levels
        ):
            return "max_levels"
        return None

    def _run_level(
        self,
        ctx: RunContext,
        current: CommunityGraph,
        dendrogram: Dendrogram,
        member_counts: np.ndarray,
        *,
        level_idx: int,
        guard: RunGuardian | NullGuardian = NULL_GUARDIAN,
    ) -> tuple[LevelStats | None, CommunityGraph, np.ndarray]:
        """One score → match → contract level.

        Returns ``(stats, graph, member_counts)``; ``stats=None`` means
        the run hit its local maximum inside the level (no positive
        scores) and contributed no contraction.
        """
        tr = ctx.tracer
        termination = self.termination
        entering_v = current.n_vertices
        entering_e = current.n_edges
        with tr.span(
            "level", level=level_idx, n_vertices=entering_v, n_edges=entering_e
        ) as level_span:
            ctx.telemetry.publish_phase("score", level_idx)
            with tr.span("score", level=level_idx) as sp:
                with guard.phase("score", level_idx), ctx.memprof.phase(
                    "score", level_idx
                ):
                    scores = self.score_kernel.run(ctx, current)
                if termination.max_community_size is not None:
                    e = current.edges
                    too_big = (
                        member_counts[e.ei] + member_counts[e.ej]
                        > termination.max_community_size
                    )
                    scores = np.where(too_big, -np.inf, scores)
                n_positive = int(np.count_nonzero(scores > 0))
                sp.set(
                    items=entering_e,
                    scorer=self.score_kernel.name,
                    n_positive=n_positive,
                )
            if n_positive == 0:
                return None, current, member_counts

            ctx.telemetry.publish_phase("match", level_idx)
            with tr.span("match", level=level_idx) as sp:
                with guard.phase("match", level_idx), ctx.memprof.phase(
                    "match", level_idx
                ):
                    matching = self.match_kernel.run(
                        ctx, current, scores=scores
                    )
                guard.observe_matching(level_idx, matching, entering_v)
                max_pairs = current.n_vertices - termination.min_communities
                limited = matching.n_pairs > max_pairs
                if limited:
                    matching = _limit_matching(
                        matching, scores, max_pairs, current.edges
                    )
                sp.set(
                    items=n_positive,
                    n_pairs=matching.n_pairs,
                    passes=matching.passes,
                    failed_claims=matching.failed_claims,
                )

            before = current
            ctx.telemetry.publish_phase("contract", level_idx)
            with tr.span("contract", level=level_idx) as sp:
                with guard.phase("contract", level_idx), ctx.memprof.phase(
                    "contract", level_idx
                ):
                    current, mapping = self.contract_kernel.run(
                        ctx, current, matching=matching
                    )
                sp.set(
                    items=entering_e,
                    n_vertices_after=current.n_vertices,
                    n_edges_after=current.n_edges,
                )
            guard.audit_contraction(
                level_idx,
                graph_before=before,
                scores=scores,
                matching=matching,
                mapping=mapping,
                graph_after=current,
                limited=limited,
            )
            dendrogram.push(mapping)
            member_counts = np.bincount(
                mapping, weights=member_counts, minlength=current.n_vertices
            ).astype(VERTEX_DTYPE)
            if ctx.recorder is not None:
                ctx.recorder.next_level()

            cov = current.coverage()
            stats = LevelStats(
                level=level_idx,
                n_vertices=entering_v,
                n_edges=entering_e,
                n_positive_scores=n_positive,
                n_pairs=matching.n_pairs,
                matching_passes=matching.passes,
                coverage_after=cov,
                modularity_after=community_graph_modularity(current),
            )
            guard.audit_quality(
                level_idx,
                partition=dendrogram.final_partition,
                tracked_modularity=stats.modularity_after,
                tracked_coverage=cov,
            )
            level_span.set(
                n_pairs=matching.n_pairs,
                coverage_after=cov,
            )
        return stats, current, member_counts

    # ------------------------------------------------------- housekeeping
    def _after_level(
        self,
        ctx: RunContext,
        current: CommunityGraph,
        dendrogram: Dendrogram,
        member_counts: np.ndarray,
        levels: list[LevelStats],
    ) -> Path | None:
        """Telemetry, checkpointing and logging after a completed level.

        Returns the path of the checkpoint written, or ``None``.
        """
        stats = levels[-1]
        ctx.telemetry.publish_phase("idle", stats.level)
        ctx.telemetry.publish_progress(len(levels), current.n_vertices)
        path = None
        if len(levels) % ctx.checkpoint_every == 0:
            path = self._save_checkpoint(
                ctx, current, dendrogram, member_counts, levels
            )
        ctx.log.info(
            "level %d: %d -> %d communities, coverage %.3f",
            stats.level,
            stats.n_vertices,
            current.n_vertices,
            stats.coverage_after,
        )
        return path

    def _save_checkpoint(
        self,
        ctx: RunContext,
        current: CommunityGraph,
        dendrogram: Dendrogram,
        member_counts: np.ndarray,
        levels: list[LevelStats],
    ) -> Path | None:
        """Persist the completed levels inside a ``checkpoint_write`` span.

        Returns the checkpoint's path, or ``None`` when checkpointing is
        off or no level has completed.
        """
        checkpoints = ctx.checkpoints
        if checkpoints is None or not levels:
            return None
        with ctx.tracer.span("checkpoint_write", level=levels[-1].level) as sp:
            path = checkpoints.save(
                CheckpointState(
                    level=len(levels),
                    graph=current,
                    maps=list(dendrogram.maps),
                    member_counts=member_counts,
                    level_stats=[asdict(s) for s in levels],
                    scorer_name=self.score_kernel.name,
                )
            )
            sp.set(path=str(path), n_communities=current.n_vertices)
        ctx.recovery.checkpoints_written += 1
        return path
