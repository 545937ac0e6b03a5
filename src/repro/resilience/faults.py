"""Deterministic fault injection for the chaos test suite.

A :class:`FaultPlan` maps named injection points to :class:`FaultSpec`
actions.  One fault family targets whole *pipeline phases* — keyed by
``(phase, level)`` and consulted by the run guardian
(:class:`repro.resilience.RunGuardian`) as the phase starts — so the
chaos suite can exercise the run-level watchdog and degradation ladder
deterministically:

* ``stall`` — an injected sleep inside a phase kernel (a wedged scoring
  or matching loop), tripping the phase-deadline watchdog;
* ``memory_pressure`` — a transient large allocation held for the
  duration of the phase (a memory blow-up), tripping the memory-budget
  guard.

Plans are static data built ahead of the run, so injection is fully
deterministic.  Phase faults fire in the process running the engine,
before the phase's kernel runs, and never touch its output.

A second fault family targets the *streaming detection service* — keyed
by ``(crash_point, index)`` and consulted by
:class:`repro.stream.service.DetectionService` and its write-ahead log
at named protocol points (``wal-append``, ``apply``, ``snapshot`` …) —
so the kill-chaos suite can prove crash-equivalence deterministically:

* ``sigkill`` — the process sends itself ``SIGKILL`` at the crash
  point: no cleanup handlers, no flushes, exactly the ``kill -9`` the
  recovery contract promises to survive.  The ``index`` counts visits
  to that point within the process's lifetime, so "die on the third
  WAL append" is reproducible.

:func:`truncate_file` is the checkpoint-side injector: it chops a file
mid-byte to model a torn write, which resume must detect and skip.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Literal

__all__ = ["FaultSpec", "FaultPlan", "truncate_file"]

FaultKind = Literal["stall", "memory_pressure", "sigkill"]

#: Kinds injected in the driver process at phase entry (phase faults).
PHASE_FAULT_KINDS = ("stall", "memory_pressure")
#: Kinds injected at streaming-service crash points (service faults).
SERVICE_FAULT_KINDS = ("sigkill",)


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what to do to a phase or at a crash point.

    ``delay_s`` parameterizes ``stall``; ``alloc_mb`` the size of the
    transient ``memory_pressure`` allocation.
    """

    kind: FaultKind
    delay_s: float = 0.0
    alloc_mb: float = 64.0

    def __post_init__(self) -> None:
        if self.kind not in PHASE_FAULT_KINDS + SERVICE_FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        if self.alloc_mb <= 0:
            raise ValueError("alloc_mb must be positive")


@dataclass
class FaultPlan:
    """A deterministic schedule of faults.

    ``phase_faults`` keys phase faults by ``(phase_name, level)``;
    ``service_faults`` keys service faults by ``(crash_point, index)``.
    """

    phase_faults: dict[tuple[str, int], FaultSpec] = field(
        default_factory=dict
    )
    service_faults: dict[tuple[str, int], FaultSpec] = field(
        default_factory=dict
    )

    def decide_phase(self, phase: str, level: int) -> FaultSpec | None:
        """The fault to inject at this phase of this level, if any."""
        return self.phase_faults.get((phase, level))

    def decide_service(self, point: str, index: int) -> FaultSpec | None:
        """The fault to inject at this service crash point, if any."""
        return self.service_faults.get((point, index))

    @property
    def n_faults(self) -> int:
        return len(self.phase_faults) + len(self.service_faults)

    def add_phase(self, phase: str, level: int, spec: FaultSpec) -> "FaultPlan":
        """Schedule one phase fault; chainable."""
        if spec.kind not in PHASE_FAULT_KINDS:
            raise ValueError(
                f"{spec.kind!r} is not a phase fault; use add_service()"
            )
        self.phase_faults[(phase, level)] = spec
        return self

    def add_service(
        self, point: str, index: int, spec: FaultSpec
    ) -> "FaultPlan":
        """Schedule one service crash-point fault; chainable."""
        if spec.kind not in SERVICE_FAULT_KINDS:
            raise ValueError(
                f"{spec.kind!r} is not a service fault; use add_phase()"
            )
        self.service_faults[(point, index)] = spec
        return self

    # -------------------------------------------------------------- builders
    @classmethod
    def stall_phase(
        cls, phase: str, levels: Iterable[int], *, delay_s: float
    ) -> "FaultPlan":
        """Inject a sleep into ``phase`` at each listed level.

        Exercises the run guardian's phase-deadline watchdog: with a
        deadline shorter than ``delay_s`` the stalled phase breaches on
        completion and the degradation ladder takes a rung.
        """
        return cls(
            phase_faults={
                (phase, lv): FaultSpec("stall", delay_s=delay_s)
                for lv in levels
            }
        )

    @classmethod
    def pressure_phase(
        cls, phase: str, levels: Iterable[int], *, alloc_mb: float = 64.0
    ) -> "FaultPlan":
        """Hold a transient ``alloc_mb``-MiB allocation through ``phase``
        at each listed level (exercises the memory-budget guard)."""
        return cls(
            phase_faults={
                (phase, lv): FaultSpec("memory_pressure", alloc_mb=alloc_mb)
                for lv in levels
            }
        )

    @classmethod
    def sigkill_at(cls, point: str, indices: Iterable[int]) -> "FaultPlan":
        """SIGKILL the process at the listed visits to ``point``.

        ``point`` names a streaming-service crash point (``wal-append``,
        ``apply``, ``snapshot``, ``post-snapshot``, ``wal-rerun``);
        ``indices`` count visits to it within one process lifetime.
        The kill is a real ``os.kill(os.getpid(), SIGKILL)`` — no
        ``atexit``, no flush, no destructor runs — which is exactly what
        the crash-equivalence gate in the kill-chaos suite recovers
        from.
        """
        return cls(
            service_faults={(point, i): FaultSpec("sigkill") for i in indices}
        )


def truncate_file(path: str | os.PathLike, *, keep_fraction: float = 0.5) -> int:
    """Truncate a file in place to model a torn/partial write.

    Returns the number of bytes kept.  ``keep_fraction=0`` empties the
    file entirely.  Used by the chaos suite against checkpoint files; the
    loader must classify the result as invalid and fall back.
    """
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError("keep_fraction must be in [0, 1)")
    size = os.path.getsize(path)
    keep = int(size * keep_fraction)
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    return keep
