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

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "CHECKPOINT_SCHEMA_VERSION": "checkpoint",
        "CheckpointManager": "checkpoint",
        "CheckpointState": "checkpoint",
        "quarantine_file": "checkpoint",
        "FaultPlan": "faults",
        "FaultSpec": "faults",
        "truncate_file": "faults",
        "NULL_GUARDIAN": "guardian",
        "NullGuardian": "guardian",
        "RunGuardian": "guardian",
        "as_guardian": "guardian",
        "AUDIT_MODES": "invariants",
        "InvariantAuditor": "invariants",
        "lower_audit_mode": "invariants",
        "RecoveryReport": "report",
        "RetryPolicy": "retry",
    },
)

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
