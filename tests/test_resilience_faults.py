"""Unit tests for the deterministic fault-injection plan."""

import pytest

from repro.resilience import FaultPlan, FaultSpec, truncate_file


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("explode")
        with pytest.raises(ValueError):
            FaultSpec("stall", delay_s=-1.0)


class TestTruncateFile:
    def test_truncates_to_fraction(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"x" * 100)
        kept = truncate_file(path, keep_fraction=0.3)
        assert kept == 30
        assert path.stat().st_size == 30

    def test_zero_fraction_empties(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"x" * 10)
        assert truncate_file(path, keep_fraction=0.0) == 0

    def test_validation(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"x")
        with pytest.raises(ValueError):
            truncate_file(path, keep_fraction=1.0)


class TestPhaseFaults:
    def test_stall_builder_schedules_named_levels(self):
        plan = FaultPlan.stall_phase("score", [0, 2], delay_s=0.25)
        assert plan.decide_phase("score", 0).kind == "stall"
        assert plan.decide_phase("score", 0).delay_s == 0.25
        assert plan.decide_phase("score", 2).kind == "stall"
        assert plan.decide_phase("score", 1) is None
        assert plan.decide_phase("match", 0) is None
        assert plan.n_faults == 2

    def test_pressure_builder_carries_allocation(self):
        plan = FaultPlan.pressure_phase("contract", [1], alloc_mb=32.0)
        spec = plan.decide_phase("contract", 1)
        assert spec.kind == "memory_pressure"
        assert spec.alloc_mb == 32.0

    def test_kind_segregation_enforced(self):
        # phase injectors only into the phase table, service ones only
        # into the service table
        with pytest.raises(ValueError):
            FaultPlan().add_phase("score", 0, FaultSpec("sigkill"))
        with pytest.raises(ValueError):
            FaultPlan().add_service("apply", 0, FaultSpec("memory_pressure"))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("memory_pressure", alloc_mb=0.0)
        with pytest.raises(ValueError):
            FaultSpec("stall", delay_s=-0.5)
