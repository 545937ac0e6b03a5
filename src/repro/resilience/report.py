"""Recovery accounting: what the fault-tolerant layer had to do.

A :class:`RecoveryReport` is a plain mutable record threaded through the
execution stack: the run guardian records watchdog breaches and
degradation-ladder transitions, the engine adds checkpoint activity, and
the streaming service counts repair retries, WAL recovery and reruns.
The final report rides on
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
        Streaming-service repair re-executions scheduled after a failed
        attempt.
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
        ``"lower-audit(phase_deadline@level0)"``,
        ``"full-rerun(drift@seq12)"``), empty when the run never
        degraded.
    """

    retries: int = 0
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
            or self.guardian_breaches > 0
            or self.checkpoints_invalid > 0
            or self.wal_torn_records > 0
            or self.wal_replayed > 0
            or self.stream_reruns > 0
            or self.resumed_from_level is not None
            or bool(self.ladder)
        )

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
            f"checkpoints={self.checkpoints_written}",
        ]
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
