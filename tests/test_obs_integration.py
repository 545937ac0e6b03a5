"""Integration tests: the obs layer wired through the real pipeline."""

import numpy as np
import pytest

from repro.core import detect_communities
from repro.core.termination import TerminationCriteria
from repro.bench.harness import run_with_trace
from repro.generators import karate_club, planted_partition_graph
from repro.obs import NULL_TRACER, Tracer
from repro.obs.metrics import run_metrics
from repro.util.timing import Timer


@pytest.fixture(scope="module")
def graph():
    return planted_partition_graph(600, seed=3)


class TestAgglomerationSpans:
    def test_level_spans_with_phase_children(self, graph):
        tr = Tracer()
        result = detect_communities(graph, tracer=tr)
        levels = tr.find("level")
        assert len(levels) >= result.n_levels >= 1
        by_id = {s.span_id: s for s in tr.spans}
        for name in ("score", "match", "contract"):
            spans = tr.find(name)
            # every completed level has each phase exactly once
            phase_levels = sorted(
                s.level for s in spans if s.parent_id is not None
            )
            assert set(range(result.n_levels)) <= set(phase_levels)
            for s in spans:
                assert by_id[s.parent_id].name == "level"
                assert s.start_ns <= s.end_ns

    def test_level_span_attrs_match_stats(self, graph):
        tr = Tracer()
        result = detect_communities(graph, tracer=tr)
        levels = {s.level: s for s in tr.find("level")}
        for stats in result.levels:
            span = levels[stats.level]
            assert span.attrs["n_vertices"] == stats.n_vertices
            assert span.attrs["n_edges"] == stats.n_edges
            assert span.attrs["n_pairs"] == stats.n_pairs

    def test_match_pass_spans_and_worklist_gauge(self):
        # Level 0 of this graph crosses the scan budget, so the passes are
        # split between match_pass spans and one match_scan span.
        tr = Tracer()
        result = detect_communities(
            planted_partition_graph(2000, seed=0), tracer=tr
        )
        passes = tr.find("match_pass")
        scans = tr.find("match_scan")
        assert scans
        rounds = sum(s.attrs["rounds"] for s in scans)
        assert len(passes) + rounds == sum(
            s.matching_passes for s in result.levels
        )
        by_id = {s.span_id: s for s in tr.spans}
        assert all(by_id[s.parent_id].name == "match" for s in scans)
        g = run_metrics(tr.spans)["gauges"]["match.worklist_edges"]
        assert g["n_sets"] == len(passes) + len(scans)
        assert g["max"] >= g["min"] >= 0
        # The last worklist the run measured is its value.
        last = [s for s in tr.spans if s.name in ("match_pass", "match_scan")][-1]
        assert g["value"] == last.attrs.get(
            "live_edges", last.attrs.get("residual_edges")
        )

    def test_contraction_stage_spans_and_histogram(self, graph):
        tr = Tracer()
        result = detect_communities(graph, tracer=tr)
        for stage in (
            "contract_map",
            "contract_relabel",
            "contract_bucket_sort",
            "contract_accumulate",
        ):
            assert len(tr.find(stage)) == result.n_levels
        hist = run_metrics(tr.spans)["histograms"]["contract.bucket_occupancy"]
        assert hist["total"] > 0
        # Bucket sizes add up to the edges the bucket sort placed, and
        # there is one non-empty bucket per distinct first endpoint.
        sorts = tr.find("contract_bucket_sort")
        assert hist["sum"] == sum(s.items for s in sorts)
        assert hist["total"] == sum(
            s.attrs["occupancy"]["total"] for s in sorts
        )
        assert hist["total"] <= sum(
            s.attrs["n_communities"] for s in tr.find("contract_map")
        )

    def test_matching_pass_histogram(self, graph):
        tr = Tracer()
        result = detect_communities(graph, tracer=tr)
        hist = run_metrics(tr.spans)["histograms"][
            "agglomeration.matching_passes"
        ]
        assert hist["total"] == result.n_levels
        assert hist["sum"] == sum(s.matching_passes for s in result.levels)

    def test_legacy_kernels_also_traced(self):
        g = karate_club()
        tr = Tracer()
        detect_communities(g, matcher="sweep", contractor="chains", tracer=tr)
        assert tr.find("match_pass")
        assert tr.find("contract_relabel")

    def test_traced_and_untraced_results_identical(self, graph):
        r0 = detect_communities(graph)
        r1 = detect_communities(graph, tracer=Tracer())
        r2 = detect_communities(graph, tracer=NULL_TRACER)
        np.testing.assert_array_equal(
            r0.partition.labels, r1.partition.labels
        )
        np.testing.assert_array_equal(
            r0.partition.labels, r2.partition.labels
        )


class TestNullTracerOverhead:
    def test_untraced_not_slower_than_traced(self):
        """The NullTracer path must not cost measurable time.

        Compares medians of interleaved untraced/traced runs; the
        untraced runs get a generous 1.25x + 10ms allowance so the test
        never flakes on scheduler noise while still catching a real
        regression (e.g. accidental span allocation on the null path).
        """
        g = planted_partition_graph(800, seed=1)
        detect_communities(g)  # warm caches/JIT-ish paths
        untraced, traced = [], []
        for _ in range(5):
            with Timer() as t:
                detect_communities(g)
            untraced.append(t.elapsed)
            with Timer() as t:
                detect_communities(g, tracer=Tracer())
            traced.append(t.elapsed)
        assert np.median(untraced) <= 1.25 * np.median(traced) + 0.010


class TestHarnessIntegration:
    def test_run_with_trace_phase_breakdown(self):
        g = karate_club()
        tr = Tracer()
        run = run_with_trace(g, graph_name="karate", tracer=tr)
        phases = run.phase_breakdown()
        assert phases is not None
        assert phases["total"] > 0
        assert 0.0 <= phases["contract_share"] <= 1.0
        run_spans = tr.find("run")
        assert len(run_spans) == 1
        assert run_spans[0].attrs["graph"] == "karate"

    def test_phase_breakdown_none_when_untraced(self):
        g = karate_club()
        run = run_with_trace(g, graph_name="karate")
        assert run.phase_breakdown() is None

    def test_shared_tracer_separates_runs(self):
        tr = Tracer()
        a = run_with_trace(karate_club(), graph_name="a", tracer=tr)
        b = run_with_trace(
            planted_partition_graph(300, seed=0), graph_name="b", tracer=tr
        )
        from repro.obs.sinks import phase_totals

        pa = a.phase_breakdown()
        pb = b.phase_breakdown()
        combined = phase_totals(list(tr.spans))["total"]
        assert combined == pytest.approx(pa["total"] + pb["total"])

    def test_termination_criteria_still_respected(self, graph):
        tr = Tracer()
        result = detect_communities(
            graph,
            termination=TerminationCriteria(max_levels=2, coverage=None),
            tracer=tr,
        )
        assert result.n_levels <= 2
        assert len(tr.find("level")) <= 2
