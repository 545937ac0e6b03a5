"""Fault-tolerant execution: retries, checkpoints, and fault injection.

The paper's pipeline is a long-running score → match → contract loop over
shared arrays; this subpackage is what lets a real deployment of it
survive the failures that loop meets in production:

* :mod:`repro.resilience.retry` — the :class:`RetryPolicy` backoff
  schedule the streaming service follows when an incremental repair
  fails;
* :mod:`repro.resilience.report` — :class:`RecoveryReport`, the recovery
  accounting attached to every
  :class:`~repro.core.agglomeration.AgglomerationResult`;
* :mod:`repro.resilience.checkpoint` — atomic, schema-versioned,
  validated level checkpoints and the resume path
  (:class:`CheckpointManager`);
* :mod:`repro.resilience.faults` — deterministic, seeded fault injectors
  (:class:`FaultPlan`) driving the chaos test suite;
* :mod:`repro.resilience.invariants` — the :class:`InvariantAuditor`
  re-deriving the paper's conservation laws after every contraction;
* :mod:`repro.resilience.guardian` — :class:`RunGuardian`, the run-level
  watchdog + adaptive degradation ladder supervising the whole pipeline.

See ``docs/RESILIENCE.md`` for the failure-mode catalogue and policies.
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointManager,
    CheckpointState,
    quarantine_file,
)
from repro.resilience.faults import FaultPlan, FaultSpec, truncate_file
from repro.resilience.guardian import (
    NULL_GUARDIAN,
    NullGuardian,
    RunGuardian,
    as_guardian,
)
from repro.resilience.invariants import (
    AUDIT_MODES,
    InvariantAuditor,
    lower_audit_mode,
)
from repro.resilience.report import RecoveryReport
from repro.resilience.retry import RetryPolicy

__all__ = [
    "RetryPolicy",
    "RecoveryReport",
    "FaultPlan",
    "FaultSpec",
    "truncate_file",
    "CheckpointManager",
    "CheckpointState",
    "CHECKPOINT_SCHEMA_VERSION",
    "quarantine_file",
    "AUDIT_MODES",
    "InvariantAuditor",
    "lower_audit_mode",
    "RunGuardian",
    "NullGuardian",
    "NULL_GUARDIAN",
    "as_guardian",
]
