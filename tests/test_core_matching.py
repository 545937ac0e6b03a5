"""Unit tests for the matching kernels."""

import numpy as np
import pytest

from repro.core import (
    ModularityScorer,
    WeightScorer,
    is_maximal_matching,
    match_full_sweep,
    match_locally_dominant,
    matching_weight,
)
from repro.errors import ConvergenceError
from repro.generators import planted_partition_graph
from repro.graph import from_edges
from repro.obs import Tracer
from repro.platform import TraceRecorder
from repro.types import NO_VERTEX


def weights_of(graph):
    return graph.edges.w.astype(float)


class TestBasics:
    def test_single_edge(self):
        g = from_edges(np.array([0]), np.array([1]))
        res = match_locally_dominant(g, np.array([1.0]))
        assert res.n_pairs == 1
        assert res.partner[0] == 1 and res.partner[1] == 0

    def test_triangle_matches_one_pair(self):
        g = from_edges(np.array([0, 0, 1]), np.array([1, 2, 2]))
        # Score edges by endpoints: {0,1} highest (edge order in the store
        # is parity-canonical, not input order).
        score_of = {frozenset((0, 1)): 3.0, frozenset((0, 2)): 2.0,
                    frozenset((1, 2)): 1.0}
        e = g.edges
        scores = np.array([
            score_of[frozenset((int(e.ei[k]), int(e.ej[k])))]
            for k in range(e.n_edges)
        ])
        res = match_locally_dominant(g, scores)
        assert res.n_pairs == 1
        # Highest-scored edge {0,1} wins.
        assert res.partner[0] == 1
        assert res.partner[2] == NO_VERTEX

    def test_path_picks_heavy_middle(self):
        # 0-1 (1), 1-2 (5), 2-3 (1): the heavy middle edge dominates.
        g = from_edges(np.array([0, 1, 2]), np.array([1, 2, 3]),
                       np.array([1.0, 5.0, 1.0]))
        scores = weights_of(g)
        res = match_locally_dominant(g, scores)
        assert res.n_pairs == 1
        assert res.partner[1] == 2

    def test_nonpositive_scores_excluded(self):
        g = from_edges(np.array([0, 1]), np.array([1, 2]))
        res = match_locally_dominant(g, np.array([-1.0, 0.0]))
        assert res.n_pairs == 0
        assert np.all(res.partner == NO_VERTEX)

    def test_empty_graph(self):
        g = from_edges(np.empty(0, int), np.empty(0, int), n_vertices=3)
        res = match_locally_dominant(g, np.empty(0))
        assert res.n_pairs == 0
        assert res.passes == 0

    def test_score_length_checked(self):
        g = from_edges(np.array([0]), np.array([1]))
        with pytest.raises(ValueError):
            match_locally_dominant(g, np.array([1.0, 2.0]))


class TestMaximality:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_maximal(self, random_graph_factory, seed):
        g = random_graph_factory(n=40, m=120, seed=seed)
        scores = ModularityScorer().score(g)
        res = match_locally_dominant(g, scores)
        assert is_maximal_matching(g, scores, res)

    def test_weight_scorer_maximal(self, karate):
        scores = WeightScorer().score(karate)
        res = match_locally_dominant(karate, scores)
        assert is_maximal_matching(karate, scores, res)

    def test_half_approximation(self, random_graph_factory):
        """Greedy matching weight >= 1/2 of max weight matching."""
        import networkx as nx

        g = random_graph_factory(n=16, m=40, seed=3)
        scores = weights_of(g)
        res = match_locally_dominant(g, scores)
        nxg = nx.Graph()
        e = g.edges
        for k in range(e.n_edges):
            nxg.add_edge(int(e.ei[k]), int(e.ej[k]), weight=float(e.w[k]))
        opt = nx.max_weight_matching(nxg)
        opt_weight = sum(nxg[u][v]["weight"] for u, v in opt)
        assert matching_weight(scores, res) >= 0.5 * opt_weight - 1e-9


class TestInvolution:
    @pytest.mark.parametrize("seed", range(4))
    def test_partner_is_symmetric_involution(self, random_graph_factory, seed):
        g = random_graph_factory(n=30, m=90, seed=seed)
        res = match_locally_dominant(g, weights_of(g))
        matched = np.flatnonzero(res.partner != NO_VERTEX)
        np.testing.assert_array_equal(res.partner[res.partner[matched]], matched)
        assert np.all(res.partner[matched] != matched)

    def test_matched_edges_consistent(self, karate):
        scores = ModularityScorer().score(karate)
        res = match_locally_dominant(karate, scores)
        e = karate.edges
        for k in res.matched_edges.tolist():
            assert res.partner[e.ei[k]] == e.ej[k]
            assert res.partner[e.ej[k]] == e.ei[k]


class TestLegacyEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_same_matching(self, random_graph_factory, seed):
        g = random_graph_factory(n=35, m=100, seed=seed)
        scores = ModularityScorer().score(g)
        new = match_locally_dominant(g, scores)
        old = match_full_sweep(g, scores)
        np.testing.assert_array_equal(new.partner, old.partner)
        np.testing.assert_array_equal(new.matched_edges, old.matched_edges)

    def test_legacy_records_more_scan_items(self, karate):
        scores = ModularityScorer().score(karate)
        rec_new, rec_old = TraceRecorder(), TraceRecorder()
        match_locally_dominant(karate, scores, rec_new)
        match_full_sweep(karate, scores, rec_old)
        assert rec_old.total_items("match_pass") >= rec_new.total_items(
            "match_pass"
        )

    def test_legacy_records_higher_contention(self, random_graph_factory):
        g = random_graph_factory(n=60, m=300, seed=1)
        scores = WeightScorer().score(g)
        rec_new, rec_old = TraceRecorder(), TraceRecorder()
        match_locally_dominant(g, scores, rec_new)
        match_full_sweep(g, scores, rec_old)
        mean = lambda rc: np.mean([r.contention for r in rc.by_name("match_pass")])
        assert mean(rec_old) > mean(rec_new)


class TestTies:
    def test_equal_scores_still_maximal(self):
        # A path of identical scores: priorities must break ties.
        n = 50
        i = np.arange(n - 1)
        g = from_edges(i, i + 1)
        scores = np.ones(n - 1)
        res = match_locally_dominant(g, scores)
        assert is_maximal_matching(g, scores, res)
        assert res.n_pairs >= (n - 1) // 3

    def test_tie_chain_passes_logarithmic(self):
        # The hashed tie-break must avoid O(n) passes on tie chains.
        n = 1000
        i = np.arange(n - 1)
        g = from_edges(i, i + 1)
        res = match_locally_dominant(g, np.ones(n - 1))
        assert res.passes <= 40

    def test_deterministic(self, karate):
        scores = ModularityScorer().score(karate)
        a = match_locally_dominant(karate, scores)
        b = match_locally_dominant(karate, scores)
        np.testing.assert_array_equal(a.partner, b.partner)


class TestScanFinish:
    """The worklist finishes long-chain levels with one sorted scan."""

    @pytest.fixture(scope="class")
    def planted(self):
        g = planted_partition_graph(2000, seed=0)
        return g, ModularityScorer().score(g)

    def test_pass_budget_counts_scan_rounds(self, planted):
        g, scores = planted
        tr = Tracer()
        full = match_locally_dominant(g, scores, tracer=tr)
        executed = len(tr.find("match_pass"))
        # Budgets the executed passes fit but the scan rounds overrun.
        for budget in (executed, (executed + full.passes) // 2, full.passes - 1):
            with pytest.raises(ConvergenceError, match="pass budget"):
                match_locally_dominant(g, scores, max_passes=budget)
        res = match_locally_dominant(g, scores, max_passes=full.passes)
        np.testing.assert_array_equal(res.matched_edges, full.matched_edges)

    def test_recorder_and_sweep_run_every_pass(self, planted):
        g, scores = planted
        plain = match_locally_dominant(g, scores)
        rec = TraceRecorder()
        tr = Tracer()
        recorded = match_locally_dominant(g, scores, rec, tracer=tr)
        assert not tr.find("match_scan")
        assert len(rec.by_name("match_pass")) == recorded.passes
        tr = Tracer()
        swept = match_full_sweep(g, scores, tracer=tr)
        assert not tr.find("match_scan")
        # Every sweep that opens a span finds a live edge.
        assert len(tr.find("match_pass")) == swept.passes
        assert all(s.attrs["live_edges"] for s in tr.find("match_pass"))
        for other in (recorded, swept):
            np.testing.assert_array_equal(other.partner, plain.partner)
            assert other.passes == plain.passes
            assert other.failed_claims == plain.failed_claims


class TestStarGraph:
    def test_star_one_pair(self, star):
        scores = WeightScorer().score(star)
        res = match_locally_dominant(star, scores)
        assert res.n_pairs == 1  # hub can match only one leaf
        assert is_maximal_matching(star, scores, res)

    def test_star_passes_small(self, star):
        res = match_locally_dominant(star, WeightScorer().score(star))
        assert res.passes <= 2


class TestApproximationCertificate:
    def test_upper_bounds_achieved(self, karate):
        from repro.core import approximation_certificate

        scores = ModularityScorer().score(karate)
        res = match_locally_dominant(karate, scores)
        achieved, upper = approximation_certificate(karate, scores, res)
        assert 0 < achieved <= upper

    def test_half_guarantee_holds(self, random_graph_factory):
        from repro.core import approximation_certificate

        for seed in range(5):
            g = random_graph_factory(n=30, m=90, seed=seed)
            scores = weights_of(g)
            res = match_locally_dominant(g, scores)
            achieved, upper = approximation_certificate(g, scores, res)
            # achieved >= optimum/2 >= ... but also certificate vs true
            # optimum: achieved must be at least half of ANY upper bound
            # that is itself >= optimum only when bound is tight; check
            # the provable relation achieved >= upper/2 - epsilon fails
            # only if the bound were loose, so assert the guaranteed
            # relation against the true optimum instead.
            import networkx as nx

            nxg = nx.Graph()
            e = g.edges
            for k in range(e.n_edges):
                if scores[k] > 0:
                    nxg.add_edge(int(e.ei[k]), int(e.ej[k]), weight=float(scores[k]))
            opt = sum(
                nxg[u][v]["weight"] for u, v in nx.max_weight_matching(nxg)
            )
            assert achieved >= 0.5 * opt - 1e-9
            assert upper >= opt - 1e-9  # the bound really bounds

    def test_perfect_on_disjoint_edges(self):
        from repro.core import approximation_certificate

        g = from_edges(np.array([0, 2]), np.array([1, 3]), np.array([2.0, 3.0]))
        scores = g.edges.w.astype(float)
        res = match_locally_dominant(g, scores)
        achieved, upper = approximation_certificate(g, scores, res)
        assert achieved == upper == 5.0

    def test_length_check(self, karate):
        from repro.core import approximation_certificate

        scores = ModularityScorer().score(karate)
        res = match_locally_dominant(karate, scores)
        with pytest.raises(ValueError):
            approximation_certificate(karate, scores[:-1], res)
