"""Recovery accounting: what the fault-tolerant layer had to do.

A :class:`RecoveryReport` is a plain mutable record threaded through the
execution stack: the pool increments it as chunks die, time out, produce
invalid output, or fall back to in-process execution, the run guardian
records watchdog breaches and degradation-ladder transitions, and the
driver adds checkpoint activity.  The final report rides on
:class:`repro.core.agglomeration.AgglomerationResult`, so a caller can
always answer "did this run recover from anything?" without parsing logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["RecoveryReport"]


@dataclass
class RecoveryReport:
    """Counts of recovery actions taken during one run.

    Attributes
    ----------
    retries:
        Chunk re-executions scheduled after a failed attempt.
    worker_deaths:
        Worker processes that exited with a non-zero code (crash/kill).
    chunk_timeouts:
        Chunk attempts terminated for exceeding the per-chunk deadline.
    invalid_chunks:
        Chunk attempts whose output failed parent-side validation
        (e.g. NaN/inf scores in the shared output slice).
    degraded_chunks:
        Chunks that exhausted their retry budget and ran in-process.
    chunk_failures:
        Chunks whose output was *still* invalid after the in-process
        fallback — the :class:`~repro.errors.ChunkFailureError`
        escalations at the unrecoverable end of the retry ladder.
    guardian_breaches:
        Run-guardian watchdog breaches (phase deadline, matching stall,
        memory budget) and invariant-audit interventions.
    checkpoints_written:
        Level checkpoints persisted by the driver.
    checkpoints_invalid:
        Checkpoint files skipped during resume because they were
        truncated or failed validation (quarantined to ``*.corrupt``).
    wal_torn_records:
        Write-ahead-log records truncated or quarantined during
        recovery because their frame failed its CRC/length checks — the
        torn tail of a crash, never applied to state.
    wal_replayed:
        Journaled batches re-applied from the WAL tail after a restart
        (the records newer than the last durable snapshot).
    stream_reruns:
        Full from-scratch re-detections taken by the streaming
        service's degradation ladder (quality drift past threshold,
        repair deadline overrun, or a repair that kept failing).
    resumed_from_level:
        Level count restored from a checkpoint, or ``None`` when the run
        started fresh.
    ladder:
        Ordered degradation-ladder transitions taken by the run guardian
        or the streaming service (e.g.
        ``"serial-backend(phase_deadline@level0)"``,
        ``"full-rerun(drift@seq12)"``), empty when the run never
        degraded.
    """

    retries: int = 0
    worker_deaths: int = 0
    chunk_timeouts: int = 0
    invalid_chunks: int = 0
    degraded_chunks: int = 0
    chunk_failures: int = 0
    guardian_breaches: int = 0
    checkpoints_written: int = 0
    checkpoints_invalid: int = 0
    wal_torn_records: int = 0
    wal_replayed: int = 0
    stream_reruns: int = 0
    resumed_from_level: int | None = None
    ladder: list[str] = field(default_factory=list)

    def any_recovery(self) -> bool:
        """True when the run survived at least one fault, degraded, or
        resumed."""
        return (
            self.retries > 0
            or self.worker_deaths > 0
            or self.chunk_timeouts > 0
            or self.invalid_chunks > 0
            or self.degraded_chunks > 0
            or self.chunk_failures > 0
            or self.guardian_breaches > 0
            or self.checkpoints_invalid > 0
            or self.wal_torn_records > 0
            or self.wal_replayed > 0
            or self.stream_reruns > 0
            or self.resumed_from_level is not None
            or bool(self.ladder)
        )

    def merge(self, other: "RecoveryReport") -> "RecoveryReport":
        """Fold another report's counts into this one (in place)."""
        for f in fields(self):
            if f.name == "resumed_from_level":
                if other.resumed_from_level is not None:
                    self.resumed_from_level = other.resumed_from_level
            elif f.name == "ladder":
                self.ladder.extend(other.ladder)
            else:
                setattr(
                    self, f.name, getattr(self, f.name) + getattr(other, f.name)
                )
        return self

    def as_dict(self) -> dict:
        """JSON-ready dump (attached to trace metadata, the benchmark
        ledger, and CLI output)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["ladder"] = list(self.ladder)
        return out

    def summary(self) -> str:
        """One-line human summary for CLI stderr."""
        parts = [
            f"retries={self.retries}",
            f"worker_deaths={self.worker_deaths}",
            f"timeouts={self.chunk_timeouts}",
            f"invalid_chunks={self.invalid_chunks}",
            f"degraded={self.degraded_chunks}",
            f"checkpoints={self.checkpoints_written}",
        ]
        if self.chunk_failures:
            parts.append(f"chunk_failures={self.chunk_failures}")
        if self.guardian_breaches:
            parts.append(f"guardian_breaches={self.guardian_breaches}")
        if self.ladder:
            parts.append(f"ladder=[{' -> '.join(self.ladder)}]")
        if self.checkpoints_invalid:
            parts.append(f"checkpoints_invalid={self.checkpoints_invalid}")
        if self.wal_torn_records:
            parts.append(f"wal_torn_records={self.wal_torn_records}")
        if self.wal_replayed:
            parts.append(f"wal_replayed={self.wal_replayed}")
        if self.stream_reruns:
            parts.append(f"stream_reruns={self.stream_reruns}")
        if self.resumed_from_level is not None:
            parts.append(f"resumed_from_level={self.resumed_from_level}")
        return ", ".join(parts)
