"""Run guardian: phase watchdog, invariant audits, degradation ladder.

Checkpoints let a crashed run resume; :class:`RunGuardian` defends the
run while it is still alive — a
:class:`~repro.core.engine.RunContext` service the engine consults at
phase boundaries:

* **Watchdog** — per-phase soft deadlines (the engine cannot preempt an
  in-process kernel, so a breach is detected when the phase completes
  and degrades *subsequent* work), matching-stall detection (many
  passes, little merge progress), and a memory-budget guard sampling
  resident set size against a configurable ceiling.
* **Invariant audits** — delegated to
  :class:`~repro.resilience.invariants.InvariantAuditor`; a failed
  conservation check raises
  :class:`~repro.errors.InvariantViolation` immediately (corruption is
  never degraded around).
* **Degradation ladder** — each watchdog breach takes the next
  applicable rung::

      audit strictness lowering (full -> sample -> off)
      checkpoint-and-raise RunAbortedError

  Every rung acts: the first breach lowers the audit strictness, and
  the next one aborts.  A run with audits ``off`` has nothing to lower,
  so its first breach aborts.  Every breach kind, a memory-budget
  breach included, walks the same ladder.  Every transition lands in
  :attr:`RecoveryReport.ladder`, the
  ``guardian.breaches`` / ``guardian.degradations`` counters, a
  ``guardian_breach`` span, and a :class:`~repro.errors.GuardianBreach`
  warning — degraded runs finish, but never silently; an aborted run
  leaves a resumable checkpoint when checkpointing is configured.

The default construction path (``guardian=None`` everywhere) resolves to
the shared :data:`NULL_GUARDIAN`, whose hooks are no-ops — the unguarded
pipeline pays nothing.

Deterministic chaos testing hooks in through
:attr:`~repro.resilience.faults.FaultPlan.phase_faults`: ``stall`` sleeps
at phase entry, ``memory_pressure`` holds a transient allocation across
the phase so the RSS sample sees it.
"""

from __future__ import annotations

import time
import warnings
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import GuardianBreach, RunAbortedError
from repro.resilience.faults import FaultPlan
from repro.resilience.invariants import InvariantAuditor
from repro.resilience.report import RecoveryReport
from repro.util.log import get_logger
from repro.util.memprobe import rss_anon_mb, trim_memory

if TYPE_CHECKING:  # engine imports this module; never the reverse at runtime
    from repro.core.engine import RunContext
    from repro.core.matching import MatchingResult
    from repro.graph.graph import CommunityGraph
    from repro.metrics.partition import Partition

__all__ = ["RunGuardian", "NullGuardian", "NULL_GUARDIAN", "as_guardian"]

_log = get_logger("resilience.guardian")

#: Ladder rungs, softest first.  ``abort`` is always last and always
#: applicable.
LADDER_RUNGS = ("lower-audit", "abort")


# Shared probe implementations live in repro.util.memprobe (the
# telemetry sampler uses the same ladder); these aliases keep the
# guardian's historical monkeypatch/import surface stable.
_rss_mb = rss_anon_mb
_trim_memory = trim_memory


class _PhaseGuard:
    """Context manager for one guarded phase execution.

    Injects any scheduled phase fault on entry; on *clean* exit samples
    elapsed time and RSS against the guardian's budgets (a propagating
    exception skips the checks — the failure is already louder than any
    breach).  An injected memory-pressure ballast is held until after
    the RSS sample so the guard observes it, then released.
    """

    def __init__(self, guardian: "RunGuardian", phase: str, level: int) -> None:
        self._g = guardian
        self._phase = phase
        self._level = level
        self._t0 = 0.0
        self._ballast: np.ndarray | None = None

    def __enter__(self) -> "_PhaseGuard":
        g = self._g
        # The clock starts before fault injection: an injected stall or
        # ballast stands in for the phase kernel misbehaving, so the
        # watchdog must observe it.
        self._t0 = time.monotonic()
        fault = (
            g.faults.decide_phase(self._phase, self._level)
            if g.faults is not None
            else None
        )
        if fault is not None:
            if fault.kind == "stall":
                time.sleep(fault.delay_s)
            elif fault.kind == "memory_pressure":
                n_words = max(1, int(fault.alloc_mb * 1024 * 1024) // 8)
                self._ballast = np.ones(n_words, dtype=np.float64)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        try:
            if exc_type is not None:
                return False
            g = self._g
            elapsed = time.monotonic() - self._t0
            if (
                g.phase_deadline_s is not None
                and elapsed > g.phase_deadline_s
            ):
                g._breach(
                    "phase_deadline",
                    self._level,
                    phase=self._phase,
                    detail=(
                        f"phase {self._phase!r} took {elapsed:.3f}s "
                        f"(deadline {g.phase_deadline_s:.3f}s)"
                    ),
                )
            if g.memory_budget_mb is not None:
                rss = _rss_mb()
                if rss is not None and rss > g.memory_budget_mb:
                    # Over budget on the raw sample: trim freed pages
                    # and re-check, so only *live* memory breaches.
                    _trim_memory()
                    rss = _rss_mb() or rss
                if rss is not None and rss > g.memory_budget_mb:
                    g._breach(
                        "memory_budget",
                        self._level,
                        phase=self._phase,
                        detail=(
                            f"rss {rss:.1f} MiB over budget "
                            f"{g.memory_budget_mb:.1f} MiB "
                            f"after phase {self._phase!r}"
                        ),
                    )
            return False
        finally:
            self._ballast = None


class RunGuardian:
    """Supervises one agglomeration run; see the module docstring.

    Parameters
    ----------
    audit:
        Invariant-audit strictness: ``off``, ``sample`` (default), or
        ``full``.
    phase_deadline_s:
        Soft wall-clock budget per phase execution; ``None`` disables
        the deadline watchdog.
    memory_budget_mb:
        Resident-set ceiling in MiB sampled after each phase; ``None``
        disables the memory guard.
    stall_passes / stall_merge_fraction:
        A matching breaches the stall detector when it needed at least
        ``stall_passes`` worklist passes yet merged at most
        ``stall_merge_fraction`` of the level's vertices.
    tolerance / sample_every:
        Forwarded to :class:`InvariantAuditor`.
    faults:
        Optional :class:`FaultPlan` whose phase faults this guardian
        injects (chaos testing only).

    A guardian instance supervises one run at a time: :meth:`bind`
    attaches it to a context and resets the ladder position.
    """

    def __init__(
        self,
        audit: str = "sample",
        *,
        phase_deadline_s: float | None = None,
        memory_budget_mb: float | None = None,
        stall_passes: int = 128,
        stall_merge_fraction: float = 0.02,
        tolerance: float = 1e-6,
        sample_every: int = 4,
        faults: FaultPlan | None = None,
    ) -> None:
        if phase_deadline_s is not None and phase_deadline_s <= 0:
            raise ValueError("phase_deadline_s must be positive")
        if memory_budget_mb is not None and memory_budget_mb <= 0:
            raise ValueError("memory_budget_mb must be positive")
        if stall_passes < 1:
            raise ValueError("stall_passes must be >= 1")
        if not 0.0 <= stall_merge_fraction <= 1.0:
            raise ValueError("stall_merge_fraction must be in [0, 1]")
        self.auditor = InvariantAuditor(
            audit, tolerance=tolerance, sample_every=sample_every
        )
        self.phase_deadline_s = phase_deadline_s
        self.memory_budget_mb = memory_budget_mb
        self.stall_passes = stall_passes
        self.stall_merge_fraction = stall_merge_fraction
        self.faults = faults
        self._ctx: "RunContext" | None = None
        self._rung = 0
        self._input_graph: "CommunityGraph" | None = None

    # --------------------------------------------------------------- binding
    @property
    def enabled(self) -> bool:
        return True

    def bind(self, ctx: "RunContext", input_graph: "CommunityGraph") -> None:
        """Attach to a run: reset the ladder and remember the input graph
        (the reference for from-scratch quality recomputes)."""
        self._ctx = ctx
        self._input_graph = input_graph
        self._rung = 0

    def _require_ctx(self) -> "RunContext":
        if self._ctx is None:
            raise RuntimeError("RunGuardian used before bind()")
        return self._ctx

    # ---------------------------------------------------------------- hooks
    def phase(self, name: str, level: int) -> _PhaseGuard:
        """Guard one phase execution (use as a context manager)."""
        self._require_ctx()
        return _PhaseGuard(self, name, level)

    def observe_matching(
        self, level: int, matching: "MatchingResult", n_vertices: int
    ) -> None:
        """Stall detector: many passes, negligible merge progress."""
        self._require_ctx()
        if matching.passes < self.stall_passes:
            return
        if matching.n_pairs > self.stall_merge_fraction * n_vertices:
            return
        self._breach(
            "matching_stall",
            level,
            phase="match",
            detail=(
                f"matching needed {matching.passes} passes for "
                f"{matching.n_pairs} pairs over {n_vertices} vertices "
                f"(stall threshold: >= {self.stall_passes} passes and "
                f"<= {self.stall_merge_fraction:.3f} merge fraction)"
            ),
        )

    def audit_contraction(self, level: int, **kwargs: Any) -> None:
        """Run the post-contract conservation audits (see
        :meth:`InvariantAuditor.audit_contraction`); violations raise."""
        ctx = self._require_ctx()
        if self.auditor.mode == "off":
            return
        with ctx.tracer.span(
            "guardian_audit", level=level, mode=self.auditor.mode
        ) as sp:
            n = self.auditor.audit_contraction(level, **kwargs)
            sp.set(checks=n)
        ctx.tracer.counter("guardian.checks").inc(n)

    def audit_quality(
        self,
        level: int,
        *,
        partition: "Partition | Any",
        tracked_modularity: float,
        tracked_coverage: float,
    ) -> None:
        """Cross-check tracked quality against the bound input graph.

        ``partition`` may be a zero-argument callable so callers can
        defer building the (O(|V|·levels)) input-graph partition to the
        sampled levels where the recompute actually runs.
        """
        ctx = self._require_ctx()
        if self.auditor.mode == "off" or self._input_graph is None:
            return
        if not self.auditor._quality_due(level):
            return
        if callable(partition):
            partition = partition()
        with ctx.tracer.span(
            "guardian_audit_quality", level=level, mode=self.auditor.mode
        ) as sp:
            n = self.auditor.audit_quality(
                level,
                input_graph=self._input_graph,
                partition=partition,
                tracked_modularity=tracked_modularity,
                tracked_coverage=tracked_coverage,
            )
            sp.set(checks=n)
        ctx.tracer.counter("guardian.checks").inc(n)

    # -------------------------------------------------------------- breaches
    def _breach(
        self, kind: str, level: int, *, phase: str, detail: str
    ) -> None:
        """Account one watchdog breach and take a ladder rung."""
        ctx = self._require_ctx()
        reason = f"{kind}@level{level}"
        ctx.recovery.guardian_breaches += 1
        ctx.tracer.counter("guardian.breaches").inc()
        with ctx.tracer.span(
            "guardian_breach", level=level, kind=kind, phase=phase
        ) as sp:
            sp.set(detail=detail)
        warnings.warn(
            GuardianBreach(f"{detail} [{reason}]"), stacklevel=3
        )
        ctx.log.warning("guardian breach (%s): %s", reason, detail)
        self._degrade(reason)

    def _degrade(self, reason: str) -> None:
        """Apply the first applicable remaining ladder rung."""
        ctx = self._require_ctx()
        while self._rung < len(LADDER_RUNGS):
            rung = LADDER_RUNGS[self._rung]
            self._rung += 1
            applied = self._apply_rung(ctx, rung, reason)
            if applied:
                transition = f"{rung}({reason})"
                ctx.recovery.ladder.append(transition)
                ctx.tracer.counter("guardian.degradations").inc()
                with ctx.tracer.span("guardian_degrade", rung=rung) as sp:
                    sp.set(reason=reason, transition=transition)
                ctx.log.warning("guardian degradation: %s", transition)
                return
        # All rungs spent (abort itself raised above); defensive guard.
        raise RunAbortedError(  # pragma: no cover - abort rung raises first
            f"degradation ladder exhausted ({reason})",
            reason=reason,
            report=ctx.recovery,
        )

    def _apply_rung(
        self, ctx: "RunContext", rung: str, reason: str
    ) -> bool:
        """Try one rung; False means inapplicable (skip to the next)."""
        if rung == "lower-audit":
            if self.auditor.mode == "off":
                return False
            old = self.auditor.mode
            new = self.auditor.lower()
            ctx.log.warning(
                "guardian lowered audit strictness %s -> %s", old, new
            )
            return True
        # Final rung: stop the run.  Recorded like every other
        # transition, then raised; the engine catches this, writes a
        # last checkpoint when configured, stamps checkpoint_path, and
        # re-raises.
        transition = f"abort({reason})"
        ctx.recovery.ladder.append(transition)
        ctx.tracer.counter("guardian.degradations").inc()
        with ctx.tracer.span("guardian_degrade", rung="abort") as sp:
            sp.set(reason=reason, transition=transition)
        ctx.log.error("guardian degradation: %s", transition)
        raise RunAbortedError(
            f"run guardian exhausted its degradation ladder: {reason} "
            f"(ladder: {ctx.recovery.ladder})",
            reason=reason,
            report=ctx.recovery,
        )


class _NullPhaseGuard:
    """Reusable no-op phase guard."""

    def __enter__(self) -> "_NullPhaseGuard":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


_NULL_PHASE_GUARD = _NullPhaseGuard()


class NullGuardian:
    """Inert guardian: every hook is a no-op.

    The default for unguarded runs — mirrors ``NullTracer`` /
    ``NullTimeline`` so the engine never branches on ``None``.
    """

    enabled = False

    def bind(self, ctx: Any, input_graph: Any) -> None:
        return None

    def phase(self, name: str, level: int) -> _NullPhaseGuard:
        return _NULL_PHASE_GUARD

    def observe_matching(
        self, level: int, matching: Any, n_vertices: int
    ) -> None:
        return None

    def audit_contraction(self, level: int, **kwargs: Any) -> None:
        return None

    def audit_quality(self, level: int, **kwargs: Any) -> None:
        return None


#: Shared inert instance (stateless, safe to reuse across runs).
NULL_GUARDIAN = NullGuardian()


def as_guardian(
    guardian: "RunGuardian | NullGuardian | None",
) -> "RunGuardian | NullGuardian":
    """Normalize an optional guardian (``None`` -> :data:`NULL_GUARDIAN`)."""
    if guardian is None:
        return NULL_GUARDIAN
    return guardian
