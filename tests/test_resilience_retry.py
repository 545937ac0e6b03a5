"""Unit tests for the retry policy and recovery accounting."""

import pytest

from repro.resilience import RecoveryReport, RetryPolicy


class TestRetryPolicy:
    def test_defaults(self):
        pol = RetryPolicy()
        assert pol.max_retries == 3
        assert not hasattr(pol, "chunk_timeout_s")

    def test_backoff_schedule_is_capped_exponential(self):
        pol = RetryPolicy(
            max_retries=5,
            backoff_base_s=0.1,
            backoff_factor=2.0,
            backoff_cap_s=0.5,
        )
        assert pol.delays() == (0.1, 0.2, 0.4, 0.5, 0.5)

    def test_backoff_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_s(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base_s": -0.1},
            {"backoff_factor": 0.5},
            {"backoff_base_s": 1.0, "backoff_cap_s": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_frozen(self):
        with pytest.raises(Exception):
            RetryPolicy().max_retries = 7


class TestDecorrelatedJitter:
    def test_off_by_default_bit_identical_to_legacy(self):
        plain = RetryPolicy(max_retries=4, backoff_base_s=0.1)
        assert not plain.jitter
        # The token is ignored without jitter: the historical schedule.
        assert plain.delays(token=7) == plain.delays(token=99)
        assert plain.delays() == (0.1, 0.2, 0.4, 0.8)

    def test_deterministic_for_fixed_seed_and_token(self):
        a = RetryPolicy(max_retries=4, jitter=True, jitter_seed=42)
        b = RetryPolicy(max_retries=4, jitter=True, jitter_seed=42)
        assert a.delays(token=3) == b.delays(token=3)
        assert a.backoff_s(2, token=3) == b.backoff_s(2, token=3)

    def test_different_tokens_decorrelate(self):
        pol = RetryPolicy(max_retries=4, jitter=True)
        schedules = {pol.delays(token=t) for t in range(8)}
        assert len(schedules) > 1  # the herd fans out

    def test_different_seeds_differ(self):
        a = RetryPolicy(max_retries=4, jitter=True, jitter_seed=1)
        b = RetryPolicy(max_retries=4, jitter=True, jitter_seed=2)
        assert a.delays(token=0) != b.delays(token=0)

    def test_jittered_delays_respect_base_and_cap(self):
        pol = RetryPolicy(
            max_retries=6,
            backoff_base_s=0.05,
            backoff_cap_s=0.3,
            jitter=True,
        )
        for token in range(16):
            for d in pol.delays(token=token):
                assert 0.05 <= d <= 0.3

    def test_schedule_is_call_order_independent(self):
        # Each delay is a pure function of (seed, token, retry) — asking
        # for retry 3 first must not change what retry 1 returns.
        pol = RetryPolicy(max_retries=3, jitter=True)
        late_first = pol.backoff_s(3, token=5)
        assert pol.backoff_s(1, token=5) == pol.backoff_s(1, token=5)
        assert pol.backoff_s(3, token=5) == late_first


class TestRecoveryReport:
    def test_fresh_report_reports_no_recovery(self):
        assert not RecoveryReport().any_recovery()

    @pytest.mark.parametrize(
        "field",
        ["retries", "checkpoints_invalid"],
    )
    def test_any_fault_count_flags_recovery(self, field):
        rep = RecoveryReport(**{field: 1})
        assert rep.any_recovery()

    def test_checkpoint_writes_alone_are_not_recovery(self):
        assert not RecoveryReport(checkpoints_written=4).any_recovery()

    def test_resume_flags_recovery(self):
        assert RecoveryReport(resumed_from_level=2).any_recovery()

    def test_as_dict_round_trips_every_field(self):
        rep = RecoveryReport(retries=2, checkpoints_written=1)
        d = rep.as_dict()
        assert d["retries"] == 2
        assert d["checkpoints_written"] == 1
        assert RecoveryReport(**d) == rep

    def test_summary_mentions_faults(self):
        s = RecoveryReport(
            retries=2, checkpoints_invalid=1, resumed_from_level=3
        ).summary()
        assert "retries=2" in s
        assert "checkpoints_invalid=1" in s
        assert "resumed_from_level=3" in s

    def test_summary_hides_quiet_optional_fields(self):
        s = RecoveryReport().summary()
        assert "checkpoints_invalid" not in s
        assert "resumed_from_level" not in s
