"""Unit tests for counters, gauges, and histograms (repro.obs.metrics)."""

import numpy as np
import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)


class TestCounter:
    def test_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_tracks_last_min_max(self):
        g = Gauge("x")
        for v in (5, 2, 9):
            g.set(v)
        assert g.value == 9
        assert g.min == 2
        assert g.max == 9
        assert g.n_sets == 3

    def test_fresh_gauge_extremes(self):
        g = Gauge("x")
        assert g.n_sets == 0
        assert g.min == float("inf")
        assert g.max == float("-inf")


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


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h", edges=[99])

    def test_histogram_custom_edges_on_create(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", edges=[3, 6])
        assert h.edges == (3.0, 6.0)

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h", edges=[1]).observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"]["g"]["value"] == 1.5
        assert snap["gauges"]["g"]["n_sets"] == 1
        assert snap["histograms"]["h"]["counts"] == [1, 0]

    def test_snapshot_unset_gauge_has_null_extremes(self):
        reg = MetricsRegistry()
        reg.gauge("g")
        snap = reg.snapshot()
        assert snap["gauges"]["g"]["min"] is None
        assert snap["gauges"]["g"]["max"] is None


class TestNullRegistry:
    def test_all_noops(self):
        reg = NullMetricsRegistry()
        reg.counter("c").inc(5)
        reg.gauge("g").set(2)
        reg.histogram("h").observe(1)
        reg.histogram("h").observe_many([1, 2, 3])
        assert reg.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_shared_instances(self):
        reg = NullMetricsRegistry()
        assert reg.counter("a") is reg.counter("b")
        assert reg.histogram("a") is reg.histogram("b")


class TestNaNRejection:
    def test_gauge_rejects_nan(self):
        g = Gauge("g")
        g.set(1.0)
        with pytest.raises(ValueError, match="NaN"):
            g.set(float("nan"))
        # state untouched by the rejected set
        assert g.value == 1.0
        assert g.n_sets == 1

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

    def test_infinities_still_allowed_on_gauge(self):
        g = Gauge("g")
        g.set(float("inf"))
        assert g.max == float("inf")


class TestPrometheus:
    def test_counter_exposition(self):
        reg = MetricsRegistry()
        reg.counter("match.passes").inc(3)
        text = reg.render_prometheus()
        assert "# TYPE repro_match_passes_total counter" in text
        assert "repro_match_passes_total 3" in text

    def test_gauge_exposition_with_extremes(self):
        reg = MetricsRegistry()
        reg.gauge("worklist").set(5)
        reg.gauge("worklist").set(2)
        text = reg.render_prometheus()
        assert "repro_worklist 2.0" in text
        assert "repro_worklist_min 2.0" in text
        assert "repro_worklist_max 5.0" in text

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("sizes", edges=[1, 2, 4])
        h.observe_many([0.5, 1.5, 3, 100])
        text = reg.render_prometheus()
        assert '# TYPE repro_sizes histogram' in text
        assert 'repro_sizes_bucket{le="1.0"} 1' in text
        assert 'repro_sizes_bucket{le="2.0"} 2' in text
        assert 'repro_sizes_bucket{le="4.0"} 3' in text
        assert 'repro_sizes_bucket{le="+Inf"} 4' in text
        assert "repro_sizes_count 4" in text
        assert "repro_sizes_sum 105.0" in text

    def test_name_sanitization_and_namespace(self):
        reg = MetricsRegistry()
        reg.counter("a.b-c/d").inc()
        text = reg.render_prometheus(namespace="ns")
        assert "ns_a_b_c_d_total 1" in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""
        assert NullMetricsRegistry().render_prometheus() == ""

    def test_parseable_line_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1)
        reg.histogram("h", edges=[1]).observe(0.5)
        for line in reg.render_prometheus().strip().splitlines():
            if line.startswith("#"):
                assert line.startswith("# TYPE ")
            else:
                name, value = line.rsplit(" ", 1)
                assert name
                float(value)  # every sample value parses as a number
