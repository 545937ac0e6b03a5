"""Run-guardian unit tests: watchdog thresholds, ladder mechanics,
breach accounting, and the inert null guardian.

These tests drive :class:`RunGuardian` directly against a hand-built
:class:`RunContext` — no engine — so each rung and threshold is
exercised in isolation.  The end-to-end ladder walks (real engine,
injected faults) live in ``tests/test_chaos_guardian.py``.
"""

import time

import numpy as np
import pytest

from repro.core import ModularityScorer
from repro.core.contraction import contract
from repro.core.engine import RunContext
from repro.core.matching import MatchingResult, match_locally_dominant
from repro.errors import GuardianBreach, RunAbortedError
from repro.obs import Tracer
from repro.resilience import RecoveryReport
from repro.resilience.guardian import (
    LADDER_RUNGS,
    NULL_GUARDIAN,
    NullGuardian,
    RunGuardian,
    _rss_mb,
    as_guardian,
)
from repro.types import NO_VERTEX, VERTEX_DTYPE


def _bound(guardian, karate):
    ctx = RunContext.create(tracer=Tracer())
    guardian.bind(ctx, karate)
    return ctx


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RunGuardian(phase_deadline_s=0.0)
        with pytest.raises(ValueError):
            RunGuardian(memory_budget_mb=-1.0)
        with pytest.raises(ValueError):
            RunGuardian(stall_passes=0)
        with pytest.raises(ValueError):
            RunGuardian(stall_merge_fraction=1.5)
        with pytest.raises(ValueError):
            RunGuardian("everything")

    def test_as_guardian_normalization(self):
        assert as_guardian(None) is NULL_GUARDIAN
        g = RunGuardian()
        assert as_guardian(g) is g

    def test_enabled_flags(self):
        assert RunGuardian().enabled
        assert not NULL_GUARDIAN.enabled

    def test_use_before_bind_raises(self):
        g = RunGuardian()
        with pytest.raises(RuntimeError, match="bind"):
            g.phase("score", 0)

    def test_rss_sample_is_positive(self):
        rss = _rss_mb()
        assert rss is not None and rss > 0


class TestNullGuardian:
    def test_hooks_are_noops(self, karate):
        g = NullGuardian()
        g.bind(None, None)
        with g.phase("score", 0):
            pass
        g.observe_matching(0, None, 10)
        g.audit_contraction(0)
        g.audit_quality(0)

    def test_null_phase_guard_propagates_exceptions(self):
        with pytest.raises(ValueError):
            with NULL_GUARDIAN.phase("score", 0):
                raise ValueError("kernel failure")


class TestWatchdog:
    def test_deadline_breach_degrades(self, karate):
        g = RunGuardian("sample", phase_deadline_s=0.005)
        ctx = _bound(g, karate)
        with pytest.warns(GuardianBreach, match="deadline"):
            with g.phase("score", 0):
                time.sleep(0.02)
        assert ctx.recovery.guardian_breaches == 1
        assert ctx.recovery.ladder == ["lower-audit(phase_deadline@level0)"]
        assert g.auditor.mode == "off"

    def test_fast_phase_no_breach(self, karate):
        g = RunGuardian("sample", phase_deadline_s=5.0)
        ctx = _bound(g, karate)
        with g.phase("score", 0):
            pass
        assert ctx.recovery.guardian_breaches == 0
        assert ctx.recovery.ladder == []

    def test_memory_breach_degrades(self, karate):
        # any real process dwarfs a 0.5 MiB budget
        g = RunGuardian("sample", memory_budget_mb=0.5)
        ctx = _bound(g, karate)
        with pytest.warns(GuardianBreach, match="budget"):
            with g.phase("contract", 2):
                pass
        assert ctx.recovery.guardian_breaches == 1
        assert ctx.recovery.ladder == ["lower-audit(memory_budget@level2)"]

    def test_propagating_exception_skips_checks(self, karate):
        g = RunGuardian("sample", phase_deadline_s=1e-9, memory_budget_mb=1e-9)
        ctx = _bound(g, karate)
        with pytest.raises(ValueError, match="kernel"):
            with g.phase("score", 0):
                raise ValueError("kernel failure")
        # the failure is already louder than any breach
        assert ctx.recovery.guardian_breaches == 0

    def test_breach_emits_span_and_counters(self, karate):
        g = RunGuardian("sample", phase_deadline_s=0.001)
        ctx = _bound(g, karate)
        with pytest.warns(GuardianBreach):
            with g.phase("match", 1):
                time.sleep(0.01)
        breach = ctx.tracer.find("guardian_breach")
        assert len(breach) == 1
        assert breach[0].attrs["kind"] == "phase_deadline"
        assert breach[0].attrs["phase"] == "match"
        assert breach[0].level == 1
        degrade = ctx.tracer.find("guardian_degrade")
        assert len(degrade) == 1
        assert ctx.tracer.metrics.counter("guardian.breaches").value == 1
        assert ctx.tracer.metrics.counter("guardian.degradations").value == 1


class TestStallDetector:
    @staticmethod
    def _matching(n, passes, n_pairs):
        partner = np.full(n, NO_VERTEX, dtype=VERTEX_DTYPE)
        for p in range(n_pairs):
            partner[2 * p] = 2 * p + 1
            partner[2 * p + 1] = 2 * p
        return MatchingResult(
            partner=partner,
            matched_edges=np.arange(n_pairs, dtype=np.int64),
            passes=passes,
            failed_claims=0,
        )

    def test_stall_breaches(self, karate):
        g = RunGuardian("sample", stall_passes=100, stall_merge_fraction=0.02)
        ctx = _bound(g, karate)
        stalled = self._matching(1000, passes=150, n_pairs=5)
        with pytest.warns(GuardianBreach, match="stall"):
            g.observe_matching(3, stalled, 1000)
        assert ctx.recovery.guardian_breaches == 1
        assert ctx.recovery.ladder == ["lower-audit(matching_stall@level3)"]

    def test_fast_convergence_no_breach(self, karate):
        g = RunGuardian("sample", stall_passes=100)
        ctx = _bound(g, karate)
        g.observe_matching(0, self._matching(1000, passes=3, n_pairs=5), 1000)
        assert ctx.recovery.guardian_breaches == 0

    def test_good_progress_no_breach(self, karate):
        # many passes but real merge progress is not a stall
        g = RunGuardian("sample", stall_passes=100, stall_merge_fraction=0.02)
        ctx = _bound(g, karate)
        g.observe_matching(0, self._matching(1000, passes=150, n_pairs=400), 1000)
        assert ctx.recovery.guardian_breaches == 0


class TestLadder:
    def test_full_walk_from_serial(self, karate):
        g = RunGuardian("sample", phase_deadline_s=0.001)
        ctx = _bound(g, karate)
        with pytest.warns(GuardianBreach):
            with g.phase("score", 0):
                time.sleep(0.01)
        assert ctx.recovery.ladder == ["lower-audit(phase_deadline@level0)"]
        assert g.auditor.mode == "off"  # sample lowered once
        with pytest.warns(GuardianBreach), pytest.raises(RunAbortedError) as ei:
            with g.phase("score", 1):
                time.sleep(0.01)
        exc = ei.value
        assert exc.reason == "phase_deadline@level1"
        assert exc.report is ctx.recovery
        assert ctx.recovery.ladder == [
            "lower-audit(phase_deadline@level0)",
            "abort(phase_deadline@level1)",
        ]
        assert ctx.recovery.guardian_breaches == 2
        assert len(ctx.recovery.ladder) == len(LADDER_RUNGS)

    def test_first_breach_lowers_audit(self, karate):
        g = RunGuardian("full", phase_deadline_s=0.001)
        ctx = _bound(g, karate)
        with pytest.warns(GuardianBreach):
            with g.phase("score", 0):
                time.sleep(0.01)
        assert ctx.recovery.ladder == ["lower-audit(phase_deadline@level0)"]
        assert g.auditor.mode == "sample"

    def test_audit_off_skips_lower_audit_rung(self, karate):
        g = RunGuardian("off", phase_deadline_s=0.001)
        ctx = _bound(g, karate)
        # lower-audit inapplicable (already off): the first breach aborts
        with pytest.warns(GuardianBreach), pytest.raises(RunAbortedError) as ei:
            with g.phase("score", 0):
                time.sleep(0.01)
        assert ei.value.reason == "phase_deadline@level0"
        assert ctx.recovery.ladder == ["abort(phase_deadline@level0)"]

    def test_bind_resets_ladder(self, karate):
        # full audits: the first run lowers them to sample, so the second
        # run still has a strictness to lower
        g = RunGuardian("full", phase_deadline_s=0.001)
        ctx1 = _bound(g, karate)
        with pytest.warns(GuardianBreach):
            with g.phase("score", 0):
                time.sleep(0.01)
        assert ctx1.recovery.ladder
        ctx2 = _bound(g, karate)
        assert ctx2.recovery.ladder == []
        with pytest.warns(GuardianBreach):
            with g.phase("score", 0):
                time.sleep(0.01)
        # fresh run starts from the top of the ladder again
        assert ctx2.recovery.ladder == ["lower-audit(phase_deadline@level0)"]


class TestAuditHooks:
    @pytest.fixture
    def level(self, karate):
        scores = ModularityScorer().score(karate)
        matching = match_locally_dominant(karate, scores)
        after, mapping = contract(karate, matching)
        return karate, scores, matching, mapping, after

    def test_audit_contraction_traced(self, level):
        karate, scores, matching, mapping, after = level
        g = RunGuardian("full")
        ctx = _bound(g, karate)
        g.audit_contraction(
            0,
            graph_before=karate,
            scores=scores,
            matching=matching,
            mapping=mapping,
            graph_after=after,
        )
        spans = ctx.tracer.find("guardian_audit")
        assert len(spans) == 1
        n = spans[0].attrs["checks"]
        assert n >= 5
        assert ctx.tracer.metrics.counter("guardian.checks").value == n

    def test_audit_quality_defers_partition_build(self, level):
        karate, scores, matching, mapping, after = level
        calls = []

        def build_partition():
            calls.append(1)
            from repro.metrics import Partition

            return Partition(np.asarray(mapping))

        g = RunGuardian("sample", sample_every=4)
        _bound(g, karate)
        from repro.metrics import coverage, modularity
        from repro.metrics.partition import Partition

        part = Partition(np.asarray(mapping))
        q, cov = modularity(karate, part), coverage(karate, part)
        # level 1 is unsampled: the expensive partition is never built
        g.audit_quality(
            1, partition=build_partition, tracked_modularity=q, tracked_coverage=cov
        )
        assert calls == []
        g.audit_quality(
            0, partition=build_partition, tracked_modularity=q, tracked_coverage=cov
        )
        assert calls == [1]

    def test_audits_noop_when_off(self, level):
        karate, scores, matching, mapping, after = level
        g = RunGuardian("off")
        ctx = _bound(g, karate)
        g.audit_contraction(
            0,
            graph_before=karate,
            scores=scores,
            matching=matching,
            mapping=mapping,
            graph_after=after,
        )
        assert ctx.tracer.find("guardian_audit") == []


class TestRecoveryReport:
    def test_ladder_in_report_dict_and_summary(self):
        rep = RecoveryReport()
        rep.guardian_breaches = 2
        rep.ladder.extend(["lower-audit(x)", "abort(y)"])
        d = rep.as_dict()
        assert d["guardian_breaches"] == 2
        assert d["ladder"] == ["lower-audit(x)", "abort(y)"]
        assert rep.any_recovery()
        assert "lower-audit(x)" in rep.summary()

    def test_run_aborted_error_attributes(self):
        rep = RecoveryReport()
        exc = RunAbortedError("nope", reason="r@level0", report=rep)
        assert exc.reason == "r@level0"
        assert exc.report is rep
        assert exc.checkpoint_path is None

    def test_guardian_breach_is_user_warning(self):
        assert issubclass(GuardianBreach, UserWarning)
