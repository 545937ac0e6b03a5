"""The parallel agglomerative driver (§III) — compatibility surface.

Repeats score → match → contract on the community graph until a local
maximum or an external termination criterion, maintaining the dendrogram
of merges and per-level statistics.  Every vertex starts as its own
community; each level contracts an approximately-maximum-weight maximal
matching of positively-scored community pairs.

The loop itself lives in :mod:`repro.core.engine` — a
:class:`~repro.core.engine.RunContext` carries the cross-cutting
services (tracer, timeline, recovery, checkpoints), phase
kernels resolve by name through :mod:`repro.core.registry`, and
:class:`~repro.core.engine.AgglomerationEngine` drives them.  This
module keeps the historical one-call entry point:
:func:`detect_communities` builds a context, resolves the kernels, and
delegates; results are bit-identical to the pre-engine driver (enforced
by ``tests/test_engine_parity.py``).

The kernels are selectable so the benchmark ablations can run the paper's
legacy variants: ``matcher`` in ``{"worklist", "sweep"}`` (§IV-B new/old)
and ``contractor`` in ``{"bucket", "chains"}`` (§IV-C new/old).  Legacy
variants compute identical results but record the execution profile that
distinguishes the platforms.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.core.engine import (
    AgglomerationEngine,
    AgglomerationResult,
    LevelStats,
    RunContext,
)
from repro.core.scoring import EdgeScorer
from repro.core.termination import TerminationCriteria
from repro.graph.graph import CommunityGraph
from repro.obs.memprof import NullMemoryProfiler, PhaseMemoryProfiler
from repro.obs.telemetry import NullTelemetry, TelemetrySampler
from repro.obs.timeline import NullTimeline, QualityTimeline
from repro.obs.trace import NullTracer, Tracer
from repro.platform.kernels import TraceRecorder
from repro.resilience.guardian import NullGuardian, RunGuardian
from repro.util.log import get_logger

__all__ = ["LevelStats", "AgglomerationResult", "detect_communities"]

_log = get_logger("core.agglomeration")


def detect_communities(
    graph: CommunityGraph,
    scorer: EdgeScorer | str | None = None,
    *,
    termination: TerminationCriteria | None = None,
    matcher: str = "worklist",
    contractor: str = "bucket",
    recorder: TraceRecorder | None = None,
    tracer: Tracer | NullTracer | None = None,
    timeline: QualityTimeline | NullTimeline | None = None,
    progress: Callable[[LevelStats], None] | None = None,
    checkpoint_dir: str | os.PathLike | None = None,
    resume: bool = False,
    checkpoint_every: int = 1,
    guardian: RunGuardian | NullGuardian | None = None,
    telemetry: "TelemetrySampler | NullTelemetry | None" = None,
    memprof: "PhaseMemoryProfiler | NullMemoryProfiler | None" = None,
) -> AgglomerationResult:
    """Detect communities by parallel agglomeration.

    Thin compatibility wrapper over
    :class:`~repro.core.engine.AgglomerationEngine`: builds the
    :class:`~repro.core.engine.RunContext` from the keyword services,
    resolves the three phase kernels through the registry, and runs the
    engine once.

    Parameters
    ----------
    graph:
        Input graph (left unmodified).
    scorer:
        Merge-gain edge scorer — an
        :class:`~repro.core.scoring.EdgeScorer` instance or a registered
        scorer name (see :mod:`repro.core.registry`); defaults to
        modularity.
    termination:
        External stopping constraints; defaults to the paper's
        coverage ≥ 0.5 experiment configuration.
    matcher, contractor:
        Kernel variants by registry name (legacy variants for the
        ablation benchmarks), or raw kernel callables.
    recorder:
        Optional :class:`TraceRecorder` collecting the execution trace for
        platform simulation.
    tracer:
        Optional :class:`repro.obs.Tracer` recording real wall-clock
        spans (an ``"agglomeration"`` run-level span wrapping one
        ``"level"`` span per level with ``"score"`` / ``"match"`` /
        ``"contract"`` children, plus a ``"checkpoint_write"`` span per
        persisted level).  ``None`` uses the zero-overhead
        :data:`~repro.obs.NULL_TRACER`.
    timeline:
        Optional :class:`repro.obs.QualityTimeline` recording one
        algorithm-quality sample per completed level (modularity,
        coverage, community count, merge fraction, matching passes,
        community-size histogram).  ``None`` uses the no-op
        :data:`~repro.obs.NULL_TIMELINE`.  On ``resume`` the timeline
        covers only the levels executed in this process.
    progress:
        Optional callback invoked with each level's :class:`LevelStats`
        as it completes (long runs, CLI verbosity).
    checkpoint_dir:
        When set, atomically persist the loop state after every
        ``checkpoint_every``-th completed level (see
        :mod:`repro.resilience.checkpoint`).
    resume:
        Restart from the newest valid checkpoint in ``checkpoint_dir``
        (requires ``checkpoint_dir``); truncated or corrupt checkpoint
        files are skipped and counted, and an empty directory starts a
        fresh run.
    checkpoint_every:
        Persist every N-th level (default: every level).
    guardian:
        Optional :class:`~repro.resilience.RunGuardian` supervising the
        run — per-phase soft deadlines, matching-stall detection, a
        memory-budget guard, post-contraction invariant audits, and the
        adaptive degradation ladder (see docs/RESILIENCE.md).  ``None``
        runs unguarded at zero overhead.
    telemetry:
        Optional :class:`~repro.obs.telemetry.TelemetrySampler` the
        engine publishes phase/level transitions to; the caller owns
        its start/stop lifecycle.  ``None`` records nothing.
    memprof:
        Optional :class:`~repro.obs.memprof.PhaseMemoryProfiler`
        attributing allocation deltas to phases; the caller owns
        start/stop.  ``None`` profiles nothing.

    Returns
    -------
    AgglomerationResult
        Final partition of the input graph, dendrogram, per-level stats,
        the terminal community graph, the reason the loop stopped, and
        the :class:`~repro.resilience.RecoveryReport` of recovery actions
        taken along the way.
    """
    engine = AgglomerationEngine(
        scorer,
        matcher=matcher,
        contractor=contractor,
        termination=termination,
    )
    ctx = RunContext.create(
        tracer=tracer,
        timeline=timeline,
        recorder=recorder,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        progress=progress,
        guardian=guardian,
        telemetry=telemetry,
        memprof=memprof,
    )
    ctx.log = _log  # legacy logger name for per-level progress lines
    return engine.run(graph, ctx, resume=resume)
