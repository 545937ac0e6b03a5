"""Experiment harness: run the algorithm once with tracing, then sweep the
trace over platforms and processor counts.

This mirrors the paper's methodology: one community-detection execution
per (graph, kernel-variant) produces the work profile; the platform cost
model evaluates that profile at every allocation point, three seeded runs
per point (§V: "each experiment is run three times").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.agglomeration import AgglomerationResult, detect_communities
from repro.core.scoring import EdgeScorer
from repro.core.termination import TerminationCriteria
from repro.graph.graph import CommunityGraph
from repro.obs.memprof import NullMemoryProfiler, PhaseMemoryProfiler
from repro.obs.sinks import phase_totals
from repro.obs.telemetry import NullTelemetry, TelemetrySampler
from repro.obs.timeline import NullTimeline, QualityTimeline
from repro.obs.trace import NullTracer, Tracer, as_tracer
from repro.platform.kernels import TraceRecorder
from repro.platform.machine import MachineModel
from repro.platform.sim import simulate_sweep, simulate_time
from repro.resilience.guardian import NullGuardian, RunGuardian
from repro.util.rng import SeedLike

__all__ = [
    "TracedRun",
    "run_with_trace",
    "ScalingResult",
    "scaling_experiment",
    "peak_rate",
]


@dataclass
class TracedRun:
    """A community-detection run plus its recorded execution trace(s).

    ``recorder`` holds the *simulated* work profile used by the platform
    cost models; ``tracer``, when attached, holds the *real* wall-clock
    spans of the same run (see :mod:`repro.obs`).
    """

    graph_name: str
    n_vertices: int
    n_edges: int
    result: AgglomerationResult
    recorder: TraceRecorder
    tracer: Tracer | NullTracer | None = None
    timeline: QualityTimeline | NullTimeline | None = None

    def phase_breakdown(self) -> dict[str, float] | None:
        """Measured seconds per pipeline phase for this run's spans.

        ``{"score": s, "match": s, "contract": s, "total": s,
        "contract_share": fraction}``, or ``None`` when the run was not
        wall-clock traced.  This is the ``phases`` block benchmark JSON
        reports carry.
        """
        if self.tracer is None or not self.tracer.enabled:
            return None
        # Phase spans don't carry the graph attr themselves; select the
        # subtree under this run's "run" root span.
        run_roots = [
            s
            for s in self.tracer.find("run")
            if s.attrs.get("graph") == self.graph_name
        ]
        if not run_roots:
            return phase_totals(list(self.tracer.spans))
        by_id = {s.span_id: s for s in self.tracer.spans}
        root_ids = {s.span_id for s in run_roots}

        def in_run(s) -> bool:
            cur = s
            while cur is not None:
                if cur.span_id in root_ids:
                    return True
                cur = (
                    by_id.get(cur.parent_id)
                    if cur.parent_id is not None
                    else None
                )
            return False

        return phase_totals([s for s in self.tracer.spans if in_run(s)])


def run_with_trace(
    graph: CommunityGraph,
    *,
    graph_name: str = "graph",
    scorer: EdgeScorer | None = None,
    termination: TerminationCriteria | None = None,
    matcher: str = "worklist",
    contractor: str = "bucket",
    tracer: Tracer | NullTracer | None = None,
    timeline: QualityTimeline | NullTimeline | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    guardian: "RunGuardian | NullGuardian | None" = None,
    telemetry: "TelemetrySampler | NullTelemetry | None" = None,
    memprof: "PhaseMemoryProfiler | NullMemoryProfiler | None" = None,
) -> TracedRun:
    """Run detection with a fresh recorder (and optional tracer) attached.

    The wall-clock spans are rooted under a ``"run"`` span stamped with
    the graph name so several runs can share one tracer (the bench
    exhibits sweep multiple graphs).  A ``timeline`` records the
    per-level quality trajectory for the benchmark ledger (see
    :mod:`repro.bench.ledger`).  ``checkpoint_dir``/``resume`` pass
    straight through to :func:`~repro.core.agglomeration.detect_communities`
    so long benchmark runs survive interruption (see docs/RESILIENCE.md).
    ``guardian`` attaches a :class:`~repro.resilience.RunGuardian`
    supervising the run (watchdog, invariant audits, degradation
    ladder) — its recovery accounting lands on the result and hence the
    benchmark ledger.  ``telemetry``/``memprof`` attach the
    live-telemetry sampler and the phase memory attributor (the caller
    owns their start/stop lifecycle; see :mod:`repro.obs.telemetry` and
    :mod:`repro.obs.memprof`).
    """
    recorder = TraceRecorder()
    tr = as_tracer(tracer)
    with tr.span("run", graph=graph_name) as sp:
        result = detect_communities(
            graph,
            scorer,
            termination=termination,
            matcher=matcher,
            contractor=contractor,
            recorder=recorder,
            tracer=tr,
            timeline=timeline,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            guardian=guardian,
            telemetry=telemetry,
            memprof=memprof,
        )
        sp.set(
            items=graph.n_edges,
            matcher=matcher,
            contractor=contractor,
            n_levels=result.n_levels,
            terminated_by=result.terminated_by,
        )
    return TracedRun(
        graph_name=graph_name,
        n_vertices=graph.n_vertices,
        n_edges=graph.n_edges,
        result=result,
        recorder=recorder,
        tracer=tracer,
        timeline=timeline,
    )


@dataclass
class ScalingResult:
    """One platform's sweep for one graph: times per parallelism point."""

    machine: MachineModel
    graph_name: str
    n_edges: int
    times: dict[int, list[float]] = field(default_factory=dict)

    def median_times(self) -> dict[int, float]:
        return {p: float(np.median(ts)) for p, ts in self.times.items()}

    def best_single_unit_time(self) -> float:
        """Best (minimum) time at one thread/processor — the paper's
        speed-up baseline."""
        if 1 not in self.times:
            raise ValueError("sweep does not include parallelism 1")
        return min(self.times[1])

    def best_time(self) -> float:
        """Fastest time at any allocation."""
        return min(min(ts) for ts in self.times.values())

    def best_parallelism(self) -> int:
        """Allocation achieving :meth:`best_time`."""
        return min(
            self.times, key=lambda p: min(self.times[p])
        )

    def speedups(self) -> dict[int, float]:
        """Median speed-up over the best single-unit time, per point."""
        base = self.best_single_unit_time()
        return {p: base / float(np.median(ts)) for p, ts in self.times.items()}

    def best_speedup(self) -> float:
        """The number the paper annotates on Figure 2."""
        base = self.best_single_unit_time()
        return base / self.best_time()


def scaling_experiment(
    run: TracedRun,
    machines: Sequence[MachineModel],
    *,
    parallelism: Sequence[int] | None = None,
    n_runs: int = 3,
    seed: SeedLike = 0,
) -> dict[str, ScalingResult]:
    """Sweep a traced run across platforms; returns results keyed by
    platform name."""
    out: dict[str, ScalingResult] = {}
    for machine in machines:
        points = parallelism
        if points is not None:
            points = [p for p in points if p <= machine.max_parallelism]
            if 1 not in points:
                points = [1] + list(points)
        times = simulate_sweep(
            run.recorder.records,
            machine,
            points,
            n_runs=n_runs,
            seed=seed,
        )
        out[machine.name] = ScalingResult(
            machine=machine,
            graph_name=run.graph_name,
            n_edges=run.n_edges,
            times=times,
        )
    return out


def peak_rate(result: ScalingResult) -> float:
    """Peak processing rate in input edges per second (the paper's
    Table III: |E| over the fastest time)."""
    return result.n_edges / result.best_time()
