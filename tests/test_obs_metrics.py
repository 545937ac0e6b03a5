"""Unit tests for the span-derived run metrics and histograms
(repro.obs.metrics)."""

import json

import numpy as np
import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    render_prometheus,
    run_metrics,
)
from repro.obs.trace import NULL_TRACER, Span


def spans(*named):
    """Finished spans from ``(name, attrs)`` pairs, in completion order."""
    return [
        Span(name=name, span_id=k, attrs=dict(attrs))
        for k, (name, attrs) in enumerate(named)
    ]


def snapshot(counters=None, gauges=None, histograms=None):
    return {
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": histograms or {},
    }


class TestCounter:
    def test_increments(self):
        snap = run_metrics(
            spans(
                ("guardian_audit", {"checks": 1}),
                ("guardian_audit_quality", {"checks": 4}),
                ("guardian_breach", {"kind": "phase_deadline"}),
                ("guardian_degrade", {"rung": "lower-audit"}),
                ("guardian_breach", {"kind": "memory_budget"}),
                ("checkpoint_write", {"path": "level_00001.ckpt.npz"}),
            )
        )
        assert snap["counters"] == {
            "guardian.breaches": 2,
            "guardian.checks": 5,
            "guardian.degradations": 1,
            "resilience.checkpoints_written": 1,
        }


class TestGauge:
    def test_tracks_last_min_max(self):
        snap = run_metrics(
            spans(
                ("match_pass", {"live_edges": 5}),
                ("match_pass", {"live_edges": 2}),
                ("match_scan", {"residual_edges": 9}),
            )
        )
        assert snap["gauges"] == {
            "match.worklist_edges": {
                "value": 9.0,
                "min": 2.0,
                "max": 9.0,
                "n_sets": 3,
            }
        }


class TestRunMetrics:
    def test_no_spans_no_metrics(self):
        empty = snapshot()
        assert run_metrics([]) == empty
        assert run_metrics(NULL_TRACER.spans) == empty
        assert run_metrics(spans(("level", {"n_pairs": 3}))) == empty

    def test_spans_without_their_attribute_feed_nothing(self):
        # A span closed by an exception never stamped what the metric
        # reads: an audit that raised, a checkpoint save that failed, a
        # match whose matcher raised, a bucket sort of loops only.
        snap = run_metrics(
            spans(
                ("guardian_audit", {"error": "InvariantViolation"}),
                ("checkpoint_write", {"error": "OSError"}),
                ("match", {"error": "ConvergenceError"}),
                ("match_pass", {"pass_index": 1}),
                ("contract_bucket_sort", {}),
            )
        )
        assert snap == snapshot()

    def test_matching_passes_histogram(self):
        snap = run_metrics(
            spans(
                ("match", {"passes": 1}),
                ("match", {"passes": 3}),
                ("match", {"passes": 300}),
            )
        )
        h = snap["histograms"]["agglomeration.matching_passes"]
        assert h["edges"] == [float(e) for e in DEFAULT_BUCKETS]
        assert h["counts"] == [1, 0, 1, 0, 0, 0, 0, 0, 0, 1]
        assert h["total"] == 3
        assert h["sum"] == 304.0

    def test_occupancy_adds_levels_in_completion_order(self):
        levels = [np.array([1, 1, 3, 40]), np.array([2, 600])]
        parts = []
        for occ in levels:
            h = Histogram("level")
            h.observe_many(occ)
            parts.append({"counts": h.counts, "total": h.total, "sum": h.sum})
        snap = run_metrics(
            spans(*(("contract_bucket_sort", {"occupancy": p}) for p in parts))
        )
        whole = Histogram("contract.bucket_occupancy")
        for occ in levels:
            whole.observe_many(occ)
        assert snap["histograms"]["contract.bucket_occupancy"] == whole.as_dict()

    def test_snapshot_sorted_and_json_ready(self):
        snap = run_metrics(
            spans(
                ("match", {"passes": 2}),
                ("guardian_breach", {}),
                ("contract_bucket_sort", {"occupancy": {
                    "counts": [1] + [0] * 9, "total": 1, "sum": 1.0,
                }}),
                ("checkpoint_write", {"path": "p"}),
                ("match_pass", {"live_edges": 4}),
            )
        )
        assert list(snap) == ["counters", "gauges", "histograms"]
        for section in snap.values():
            assert list(section) == sorted(section)
        assert json.loads(json.dumps(snap)) == snap


class TestHistogramBucketEdges:
    def test_le_semantics_on_exact_edge(self):
        h = Histogram("x", edges=[1, 2, 4])
        # Prometheus `le`: a value equal to an edge lands in that bucket.
        h.observe(1)
        h.observe(2)
        h.observe(4)
        assert h.counts == [1, 1, 1, 0]

    def test_overflow_bucket(self):
        h = Histogram("x", edges=[1, 2, 4])
        h.observe(5)
        h.observe(1000)
        assert h.counts == [0, 0, 0, 2]

    def test_below_first_edge(self):
        h = Histogram("x", edges=[10, 20])
        h.observe(0)
        h.observe(-3)
        assert h.counts == [2, 0, 0]

    def test_total_and_sum_and_mean(self):
        h = Histogram("x", edges=[1, 2])
        for v in (0.5, 1.5, 3.0):
            h.observe(v)
        assert h.total == 3
        assert h.sum == pytest.approx(5.0)
        assert h.mean() == pytest.approx(5.0 / 3)

    def test_empty_mean(self):
        assert Histogram("x").mean() == 0.0

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram("x", edges=[])
        with pytest.raises(ValueError):
            Histogram("x", edges=[1, 1])
        with pytest.raises(ValueError):
            Histogram("x", edges=[2, 1])

    def test_default_buckets(self):
        h = Histogram("x")
        assert h.edges == tuple(float(e) for e in DEFAULT_BUCKETS)
        assert len(h.counts) == len(DEFAULT_BUCKETS) + 1


class TestObserveMany:
    def test_matches_scalar_observe(self):
        values = [0.5, 1, 2, 3, 7, 8, 9, 300]
        a = Histogram("a", edges=[1, 2, 4, 8])
        b = Histogram("b", edges=[1, 2, 4, 8])
        for v in values:
            a.observe(v)
        b.observe_many(np.array(values))
        assert a.counts == b.counts
        assert a.total == b.total
        assert a.sum == pytest.approx(b.sum)

    def test_accepts_iterable_and_empty(self):
        h = Histogram("x", edges=[1])
        h.observe_many(iter([0.5, 2]))
        assert h.counts == [1, 1]
        h.observe_many(np.empty(0))
        assert h.total == 2


class TestNaNRejection:
    def test_histogram_observe_rejects_nan(self):
        h = Histogram("h", edges=[1, 2])
        with pytest.raises(ValueError, match="NaN"):
            h.observe(float("nan"))
        assert h.total == 0
        assert h.sum == 0.0

    def test_histogram_observe_many_rejects_nan(self):
        h = Histogram("h", edges=[1, 2])
        with pytest.raises(ValueError, match="NaN"):
            h.observe_many(np.array([1.0, np.nan, 2.0]))
        assert h.total == 0


class TestPrometheus:
    def test_counter_exposition(self):
        text = render_prometheus(snapshot(counters={"match.passes": 3}))
        assert "# TYPE repro_match_passes_total counter" in text
        assert "repro_match_passes_total 3" in text

    def test_gauge_exposition_with_extremes(self):
        snap = run_metrics(
            spans(
                ("match_pass", {"live_edges": 5}),
                ("match_pass", {"live_edges": 2}),
            )
        )
        text = render_prometheus(snap)
        assert "repro_match_worklist_edges 2.0" in text
        assert "repro_match_worklist_edges_min 2.0" in text
        assert "repro_match_worklist_edges_max 5.0" in text

    def test_histogram_cumulative_buckets(self):
        h = Histogram("sizes", edges=[1, 2, 4])
        h.observe_many([0.5, 1.5, 3, 100])
        text = render_prometheus(snapshot(histograms={"sizes": h.as_dict()}))
        assert '# TYPE repro_sizes histogram' in text
        assert 'repro_sizes_bucket{le="1.0"} 1' in text
        assert 'repro_sizes_bucket{le="2.0"} 2' in text
        assert 'repro_sizes_bucket{le="4.0"} 3' in text
        assert 'repro_sizes_bucket{le="+Inf"} 4' in text
        assert "repro_sizes_count 4" in text
        assert "repro_sizes_sum 105.0" in text

    def test_name_sanitization_and_namespace(self):
        snap = snapshot(counters={"a.b-c/d": 1})
        text = render_prometheus(snap, namespace="ns")
        assert "ns_a_b_c_d_total 1" in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(run_metrics([])) == ""

    def test_parseable_line_shape(self):
        snap = run_metrics(
            spans(
                ("guardian_breach", {}),
                ("match_scan", {"residual_edges": 1}),
                ("match", {"passes": 1}),
            )
        )
        for line in render_prometheus(snap).strip().splitlines():
            if line.startswith("#"):
                assert line.startswith("# TYPE ")
            else:
                name, value = line.rsplit(" ", 1)
                assert name
                float(value)  # every sample value parses as a number
