"""Guardian chaos suite: injected stalls and memory pressure must end in
a degraded-but-valid run, never a silent wrong answer.

The scenarios here drive the *real* engine (real kernels) under
deterministic phase faults from :attr:`FaultPlan.phase_faults`:

* an injected stall blows the phase deadline → the ladder lowers the
  audit strictness and the run completes with a partition identical to
  an unguarded fault-free run;
* stalls on every level walk the full ladder — audit lowering, then
  abort — and the final rung checkpoints and raises a typed
  :class:`RunAbortedError`, with every transition recorded in the
  :class:`RecoveryReport` and the trace;
* injected ballast breaches the memory budget while it is held.

Marked ``faultinject`` + ``guardian`` so CI runs these in the dedicated
time-boxed chaos job.
"""

import numpy as np
import pytest

from repro.core import detect_communities
from repro.errors import GuardianBreach, RunAbortedError
from repro.generators import planted_partition_graph
from repro.obs import Tracer
from repro.resilience import FaultPlan, FaultSpec, RunGuardian
from repro.resilience.guardian import _rss_mb

pytestmark = [
    pytest.mark.faultinject,
    pytest.mark.guardian,
    pytest.mark.timeout(120),
]


@pytest.fixture(scope="module")
def graph():
    return planted_partition_graph(600, seed=7)


@pytest.fixture(scope="module")
def baseline(graph):
    """Unguarded, fault-free reference run."""
    return detect_communities(graph)


class TestStallDegradation:
    def test_stalled_phase_lowers_audit_and_completes(
        self, graph, baseline
    ):
        faults = FaultPlan.stall_phase("score", [0], delay_s=0.3)
        guardian = RunGuardian(
            "sample", phase_deadline_s=0.05, faults=faults
        )
        tracer = Tracer()
        with pytest.warns(GuardianBreach, match="deadline"):
            result = detect_communities(
                graph,
                guardian=guardian,
                tracer=tracer,
            )
        # degraded, not different: audit strictness never changes results
        np.testing.assert_array_equal(
            result.partition.labels, baseline.partition.labels
        )
        assert result.terminated_by == baseline.terminated_by
        assert result.recovery.guardian_breaches == 1
        assert result.recovery.ladder == [
            "lower-audit(phase_deadline@level0)"
        ]
        assert len(tracer.find("guardian_breach")) == 1
        assert len(tracer.find("guardian_degrade")) == 1

    def test_every_rung_recorded_until_abort(self, graph, tmp_path):
        # stall every level: each completed phase breaches again and the
        # ladder must walk lower-audit -> abort
        faults = FaultPlan.stall_phase("score", range(10), delay_s=0.2)
        guardian = RunGuardian(
            "sample", phase_deadline_s=0.05, faults=faults
        )
        tracer = Tracer()
        ckpt = tmp_path / "ckpt"
        with pytest.warns(GuardianBreach), pytest.raises(
            RunAbortedError
        ) as ei:
            detect_communities(
                graph,
                guardian=guardian,
                tracer=tracer,
                checkpoint_dir=ckpt,
            )
        exc = ei.value
        assert exc.reason == "phase_deadline@level1"
        assert exc.report is not None
        assert exc.report.guardian_breaches == 2
        assert exc.report.ladder == [
            "lower-audit(phase_deadline@level0)",
            "abort(phase_deadline@level1)",
        ]
        # the last checkpoint is written before the abort propagates
        assert exc.checkpoint_path is not None
        assert exc.checkpoint_path.exists()
        assert exc.checkpoint_path.name == "level_00001.ckpt.npz"
        # forensics in the trace: one breach + one degrade span per rung
        assert len(tracer.find("guardian_breach")) == 2
        assert len(tracer.find("guardian_degrade")) == 2
        assert (
            tracer.metrics.counter("guardian.degradations").value == 2
        )

    def test_aborted_run_resumes_to_the_baseline_answer(
        self, graph, baseline, tmp_path
    ):
        faults = FaultPlan.stall_phase("score", range(10), delay_s=0.2)
        guardian = RunGuardian(
            "sample", phase_deadline_s=0.05, faults=faults
        )
        ckpt = tmp_path / "ckpt"
        with pytest.warns(GuardianBreach), pytest.raises(RunAbortedError):
            detect_communities(
                graph,
                guardian=guardian,
                checkpoint_dir=ckpt,
            )
        # fault-free resume from the abort checkpoint finishes the run
        # and lands on the exact fault-free answer
        resumed = detect_communities(
            graph, checkpoint_dir=ckpt, resume=True
        )
        np.testing.assert_array_equal(
            resumed.partition.labels, baseline.partition.labels
        )

    def test_stall_builder_rejects_chunk_kinds(self):
        with pytest.raises(ValueError, match="not a phase fault"):
            FaultPlan().add_phase("score", 0, FaultSpec("sigkill"))
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("kill")


class TestMemoryPressure:
    def test_injected_ballast_breaches_budget(self, graph, baseline):
        rss = _rss_mb()
        assert rss is not None
        # budget sits between the current footprint and footprint+ballast:
        # only the held ballast can push the sample over it
        faults = FaultPlan.pressure_phase("score", [0], alloc_mb=192.0)
        guardian = RunGuardian(
            "sample", memory_budget_mb=rss + 96.0, faults=faults
        )
        with pytest.warns(GuardianBreach, match="budget"):
            result = detect_communities(
                graph,
                guardian=guardian,
            )
        np.testing.assert_array_equal(
            result.partition.labels, baseline.partition.labels
        )
        assert result.recovery.guardian_breaches >= 1
        assert result.recovery.ladder[0] == (
            "lower-audit(memory_budget@level0)"
        )

    def test_no_ballast_no_breach(self, graph):
        rss = _rss_mb()
        guardian = RunGuardian("sample", memory_budget_mb=rss + 4096.0)
        result = detect_communities(graph, guardian=guardian)
        assert result.recovery.guardian_breaches == 0
        assert result.recovery.ladder == []


class TestGuardedRunQuality:
    def test_full_audit_run_matches_unguarded(self, graph, baseline):
        tracer = Tracer()
        result = detect_communities(
            graph, guardian=RunGuardian("full"), tracer=tracer
        )
        np.testing.assert_array_equal(
            result.partition.labels, baseline.partition.labels
        )
        assert result.recovery.ladder == []
        # the audits genuinely ran on every level
        audits = tracer.find("guardian_audit")
        assert len(audits) == result.n_levels
        assert tracer.metrics.counter("guardian.checks").value >= (
            4 * result.n_levels
        )

    def test_degraded_run_still_passes_audits(self, graph):
        # stall once with audits at full strictness: the degraded
        # (sample-audit) continuation still satisfies every invariant
        faults = FaultPlan.stall_phase("contract", [1], delay_s=0.3)
        guardian = RunGuardian(
            "full", phase_deadline_s=0.05, faults=faults
        )
        with pytest.warns(GuardianBreach):
            result = detect_communities(
                graph,
                guardian=guardian,
            )
        assert result.recovery.ladder == [
            "lower-audit(phase_deadline@level1)"
        ]
        assert guardian.auditor.violations == 0
        assert guardian.auditor.checks_run > 0
