"""Exception hierarchy for :mod:`repro`.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while still
letting programming errors (``TypeError`` etc.) propagate normally.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphFormatError",
    "GraphFormatWarning",
    "GuardianBreach",
    "InvariantViolation",
    "ScoreValidationError",
    "ConvergenceError",
    "PlatformModelError",
    "CheckpointError",
    "WalError",
    "StreamStateError",
    "RunAbortedError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError):
    """A graph file or in-memory representation is malformed."""


class GraphFormatWarning(UserWarning):
    """Malformed input lines were skipped in non-strict parsing mode.

    Emitted once per file with the count of skipped lines, so lossy loads
    are visible without aborting the run.
    """


class InvariantViolation(ReproError):
    """An internal data-structure invariant was violated.

    Raised by the validation helpers (e.g. :func:`repro.graph.validate`)
    when a representation check fails; indicates a library bug or direct
    mutation of internal arrays by the caller.
    """


class ScoreValidationError(InvariantViolation):
    """An edge scorer produced non-finite (NaN/inf) scores.

    Scorer outputs must be finite; the only legitimate non-finite score is
    the ``-inf`` veto the driver applies *after* scoring (the
    ``max_community_size`` constraint).  NaN scores silently break the
    matching's total order, so they are rejected at the source.
    """


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its pass budget."""


class PlatformModelError(ReproError):
    """A platform/machine model was misconfigured or queried out of range."""


class CheckpointError(ReproError):
    """A run checkpoint is missing, truncated, or fails validation.

    Raised by :mod:`repro.resilience.checkpoint` when a specific checkpoint
    cannot be loaded; ``load_latest`` catches it per-file and falls back to
    the newest checkpoint that *does* validate.
    """


class WalError(ReproError):
    """A write-ahead-log segment is malformed beyond safe recovery.

    Raised by :mod:`repro.stream.wal` when the log *as a whole* cannot
    be trusted — a sequence-number regression across segments, an
    unwritable directory, an append against a sealed log.  Torn tails
    and bit-flipped records are *not* this error: recovery truncates
    and quarantines those silently (they are expected crash debris) and
    reports them in :class:`~repro.stream.wal.WalRecovery`.
    """


class StreamStateError(ReproError):
    """The streaming service's durable state is unusable.

    Raised by :class:`repro.stream.service.DetectionService` when
    recovery cannot produce a consistent state — e.g. every snapshot is
    corrupt *and* the WAL no longer reaches back to sequence zero, so
    replaying the surviving tail would apply deltas against the wrong
    base.  Fail-stop beats silently serving a wrong partition.
    """


class GuardianBreach(UserWarning):
    """A run-guardian watchdog threshold was breached.

    Emitted by :class:`repro.resilience.RunGuardian` for every phase
    deadline, matching-stall, or memory-budget breach, before the breach
    takes its rung of the degradation ladder.  When that rung lowers the
    audit strictness the run continues in a degraded mode, and this
    warning (plus the :attr:`~repro.resilience.RecoveryReport.ladder`
    record and the ``guardian.*`` metrics) is how the degradation stays
    visible.
    """


class RunAbortedError(ReproError):
    """The run guardian exhausted its degradation ladder and stopped the run.

    Raised once the softer rung (audit lowering) has been spent, or at
    the first breach when there is no audit to lower; the engine writes
    a final checkpoint first when a checkpoint directory is configured,
    so the run is resumable.  Attributes ``reason`` (the breach that
    spent the last rung), ``checkpoint_path`` (the final checkpoint, or
    ``None``), and ``report`` (the run's
    :class:`~repro.resilience.RecoveryReport`) carry the forensics.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "",
        checkpoint_path=None,
        report=None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.checkpoint_path = checkpoint_path
        self.report = report
