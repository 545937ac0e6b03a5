"""Tests for the performance-attribution analyzer (`repro.obs.attribution`).

The consistency invariant — every parent span covers its children — is
verified here both on synthetic span trees with planted violations and
on real traced runs.
"""

from __future__ import annotations

import pytest

from repro.core import create_kernel, detect_communities
from repro.obs import Tracer
from repro.obs.attribution import (
    attribute_run,
    consistency_report,
    hotspots,
    self_times,
)
from repro.obs.trace import Span


def span(
    name,
    span_id,
    start,
    end,
    *,
    parent=None,
    level=None,
    pid=1000,
    attrs=None,
):
    """A Span with second-denominated start/end for readable fixtures."""
    return Span(
        name=name,
        span_id=span_id,
        parent_id=parent,
        level=level,
        start_ns=int(start * 1e9),
        end_ns=int(end * 1e9),
        pid=pid,
        tid=pid,
        attrs=attrs or {},
    )


def serial_tree():
    """root(0..10) -> a(1..4) -> a1(2..3), b(5..9)."""
    return [
        span("a1", 2, 2.0, 3.0, parent=1),
        span("a", 1, 1.0, 4.0, parent=0),
        span("b", 3, 5.0, 9.0, parent=0),
        span("root", 0, 0.0, 10.0),
    ]


class TestSelfTimes:
    def test_duration_minus_direct_children(self):
        selfs = self_times(serial_tree())
        assert selfs[0] == pytest.approx(10.0 - 3.0 - 4.0)  # root
        assert selfs[1] == pytest.approx(3.0 - 1.0)  # a minus a1
        assert selfs[2] == pytest.approx(1.0)  # leaf
        assert selfs[3] == pytest.approx(4.0)  # leaf

    def test_self_times_partition_root_duration(self):
        selfs = self_times(serial_tree())
        assert sum(selfs.values()) == pytest.approx(10.0)

    def test_negative_residue_clamped(self):
        spans = [
            span("child", 1, 0.0, 1.001, parent=0),
            span("parent", 0, 0.0, 1.0),
        ]
        assert self_times(spans)[0] == 0.0

    def test_tracer_built_tree(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        selfs = self_times(tr.spans)
        outer = tr.find("outer")[0]
        inner = tr.find("inner")[0]
        assert selfs[outer.span_id] + selfs[inner.span_id] == pytest.approx(
            outer.duration_s
        )


class TestHotspots:
    def test_ranked_by_total_self_time(self):
        ranked = hotspots(serial_tree())
        assert [h["name"] for h in ranked[:2]] == ["b", "root"]

    def test_shares_sum_to_one(self):
        ranked = hotspots(serial_tree())
        assert sum(h["share"] for h in ranked) == pytest.approx(1.0)

    def test_top_limits_output(self):
        assert len(hotspots(serial_tree(), top=2)) == 2

    def test_same_name_aggregates(self):
        spans = [
            span("work", 1, 0.0, 1.0, parent=0),
            span("work", 2, 2.0, 3.0, parent=0),
            span("root", 0, 0.0, 4.0),
        ]
        (top, _) = hotspots(spans, top=2)
        assert top["name"] == "work"
        assert top["self_s"] == pytest.approx(2.0)
        assert top["n_spans"] == 2

    def test_empty(self):
        assert hotspots([]) == []


class TestConsistencyReport:
    def test_clean_tree(self):
        assert consistency_report(serial_tree()) == []

    def test_coverage_violation(self):
        spans = [
            span("a", 1, 0.0, 0.9, parent=0),
            span("b", 2, 0.0, 0.9, parent=0),
            span("parent", 0, 0.0, 1.0),
        ]
        kinds = {v["kind"] for v in consistency_report(spans)}
        assert "coverage" in kinds

    def test_containment_violation(self):
        spans = [
            span("child", 1, 0.5, 3.0, parent=0),
            span("parent", 0, 0.0, 1.0),
        ]
        report = consistency_report(spans)
        assert any(v["kind"] == "containment" for v in report)

    def test_lane_from_foreign_clock_domain(self):
        spans = [
            span("pool_run", 0, 0.0, 1.0, attrs={"n_workers": 2}),
            # Ends far beyond its pool region: wrong clock domain.
            span("worker_chunk", 1, 50.0, 51.0, parent=0, pid=2001),
        ]
        report = consistency_report(spans)
        assert any(v["kind"] == "containment" for v in report)

    def test_tolerance_suppresses_jitter(self):
        spans = [
            span("child", 1, 0.0, 1.0005, parent=0),
            span("parent", 0, 0.0, 1.0),
        ]
        assert consistency_report(spans) == []
        assert consistency_report(
            spans, rel_tol=0.0, abs_tol_s=0.0
        ) != []


class TestAttributeRun:
    def test_block_shape(self):
        block = attribute_run(serial_tree())
        assert block["version"] == 1
        assert set(block["phases"]) == {"score", "match", "contract"}
        for key in ("levels", "hotspots", "consistency"):
            assert key in block
        for key in ("workers", "serial", "amdahl"):
            assert key not in block

    def test_per_level_breakdown(self):
        spans = [
            span("score", 1, 0.0, 1.0, parent=0, level=0),
            span("match", 2, 1.0, 2.0, parent=0, level=0),
            span("contract", 3, 2.0, 4.0, parent=0, level=0),
            span("level", 0, 0.0, 4.0, level=0),
            span("score", 5, 4.0, 4.5, parent=4, level=1),
            span("level", 4, 4.0, 5.0, level=1),
        ]
        block = attribute_run(spans)
        assert [lv["level"] for lv in block["levels"]] == [0, 1]
        lv0 = block["levels"][0]
        assert lv0["score_s"] == pytest.approx(1.0)
        assert lv0["contract_s"] == pytest.approx(2.0)
        assert lv0["total_s"] == pytest.approx(4.0)

    def test_empty_trace(self):
        block = attribute_run([])
        assert block["consistency"]["checked"] == 0
        assert block["levels"] == []


@pytest.mark.timeout(120)
class TestRealRunConsistency:
    """The invariant holds on real traces."""

    def test_serial_backend(self, karate):
        tr = Tracer()
        detect_communities(
            karate, create_kernel("scorer", "modularity"), tracer=tr
        )
        block = attribute_run(list(tr.spans))
        assert block["consistency"]["violations"] == []
        assert block["phases"]["match"]["total_s"] > 0
