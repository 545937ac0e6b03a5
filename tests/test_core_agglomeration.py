"""Unit tests for the agglomerative driver."""

import numpy as np
import pytest

from repro import (
    ModularityScorer,
    TerminationCriteria,
    detect_communities,
    modularity,
)
from repro.generators import ring_of_cliques, star_graph, two_triangles
from repro.graph import from_edges
from repro.metrics import coverage
from repro.platform import TraceRecorder


class TestBasicRuns:
    def test_ring_of_cliques_recovered(self):
        """Cliques must never be split.  Adjacent cliques may merge in
        pairs — modularity's resolution limit (Fortunato–Barthélemy)
        genuinely favors that, and CNM does the same on this family."""
        k, s = 6, 5
        g = ring_of_cliques(k, s)
        res = detect_communities(
            g, termination=TerminationCriteria.local_maximum()
        )
        assert k / 3 <= res.n_communities <= k
        labels = res.partition.labels
        for c in range(k):
            block = labels[c * s : (c + 1) * s]
            assert len(set(block.tolist())) == 1

    def test_karate_reasonable_modularity(self, karate):
        res = detect_communities(
            karate, termination=TerminationCriteria.local_maximum()
        )
        q = modularity(karate, res.partition)
        # The paper reports "reasonable" modularity vs sequential SNAP;
        # karate's optimum is ~0.42, and matching-based agglomeration
        # should land within reach of it.
        assert q > 0.25

    def test_empty_graph(self):
        g = from_edges(np.empty(0, int), np.empty(0, int), n_vertices=4)
        res = detect_communities(g)
        assert res.n_communities == 4
        assert res.terminated_by == "local_maximum"

    def test_single_vertex(self):
        g = from_edges(np.empty(0, int), np.empty(0, int), n_vertices=1)
        res = detect_communities(g)
        assert res.n_communities == 1
        assert res.terminated_by == "min_communities"

    def test_deterministic(self, karate):
        a = detect_communities(karate)
        b = detect_communities(karate)
        assert a.partition == b.partition


class TestTermination:
    def test_coverage_stop(self, cliques):
        res = detect_communities(
            cliques, termination=TerminationCriteria(coverage=0.5)
        )
        if res.terminated_by == "coverage":
            assert coverage(cliques, res.partition) >= 0.5

    def test_local_maximum_no_positive_scores_left(self, karate):
        res = detect_communities(
            karate, termination=TerminationCriteria.local_maximum()
        )
        assert res.terminated_by == "local_maximum"
        scores = ModularityScorer().score(res.final_graph)
        assert not np.any(scores > 0)

    def test_max_levels(self, karate):
        res = detect_communities(
            karate,
            termination=TerminationCriteria(coverage=None, max_levels=1),
        )
        assert res.terminated_by == "max_levels"
        assert res.n_levels == 1

    def test_min_communities(self, cliques):
        res = detect_communities(
            cliques,
            termination=TerminationCriteria(coverage=None, min_communities=3),
        )
        assert res.n_communities >= 3

    def test_min_communities_exact_limit(self):
        g = ring_of_cliques(4, 3)
        res = detect_communities(
            g,
            termination=TerminationCriteria(coverage=None, min_communities=2),
        )
        assert res.n_communities >= 2

    def test_max_community_size(self, cliques):
        res = detect_communities(
            cliques,
            termination=TerminationCriteria(
                coverage=None, max_community_size=4
            ),
        )
        assert res.partition.sizes().max() <= 4

    def test_stalled(self, star):
        res = detect_communities(
            star,
            termination=TerminationCriteria(
                coverage=None, min_merge_fraction=0.4
            ),
        )
        assert res.terminated_by in ("stalled", "local_maximum")


class TestLevels:
    def test_level_stats_consistent(self, karate):
        res = detect_communities(
            karate, termination=TerminationCriteria.local_maximum()
        )
        assert res.levels[0].n_vertices == 34
        assert res.levels[0].n_edges == 78
        for prev, cur in zip(res.levels, res.levels[1:]):
            assert cur.n_vertices == prev.n_vertices - prev.n_pairs
            assert cur.n_edges <= prev.n_edges

    def test_modularity_increases_monotonically(self, karate):
        res = detect_communities(
            karate, termination=TerminationCriteria.local_maximum()
        )
        qs = [s.modularity_after for s in res.levels]
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))

    def test_final_partition_matches_final_graph(self, karate):
        res = detect_communities(karate)
        assert res.n_communities == res.final_graph.n_vertices
        assert modularity(karate, res.partition) == pytest.approx(
            res.levels[-1].modularity_after
        )

    def test_total_edge_work_bounded(self, karate):
        res = detect_communities(
            karate, termination=TerminationCriteria.local_maximum()
        )
        # O(|E| * K) bound from §III.
        assert res.total_edge_work() <= 78 * res.n_levels


class TestVariants:
    def test_all_kernel_combinations_agree(self, cliques):
        results = [
            detect_communities(cliques, matcher=m, contractor=c)
            for m in ("worklist", "sweep")
            for c in ("bucket", "chains")
        ]
        for r in results[1:]:
            assert r.partition == results[0].partition

    def test_unknown_matcher(self, karate):
        with pytest.raises(ValueError, match="matcher"):
            detect_communities(karate, matcher="bogus")

    def test_unknown_contractor(self, karate):
        with pytest.raises(ValueError, match="contractor"):
            detect_communities(karate, contractor="bogus")

    def test_recorder_levels_advance(self, karate):
        rec = TraceRecorder()
        res = detect_communities(karate, recorder=rec)
        assert rec.n_levels == res.n_levels
        for lvl in range(res.n_levels):
            assert rec.by_level(lvl)

    def test_input_graph_unmodified(self, karate):
        w_before = karate.edges.w.copy()
        detect_communities(karate)
        np.testing.assert_array_equal(karate.edges.w, w_before)


class TestProgressCallback:
    def test_logging_emits_level_lines(self, karate, caplog):
        import logging

        from repro import detect_communities

        with caplog.at_level(logging.INFO, logger="repro.core.agglomeration"):
            detect_communities(karate)
        assert any("level 0" in r.getMessage() for r in caplog.records)
