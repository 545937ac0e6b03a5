"""Property-based tests for the matching kernel: validity, maximality and
the 1/2-approximation guarantee on random graphs and scores, and identity
of the scan-finished worklist with the full pass loop."""

from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    ModularityScorer,
    is_maximal_matching,
    match_full_sweep,
    match_locally_dominant,
    matching_weight,
)
from repro.core import matching
from repro.generators import path_graph, planted_partition_graph, rmat_graph
from repro.graph import from_edges
from repro.obs import Tracer
from repro.types import NO_VERTEX


@st.composite
def graph_with_scores(draw):
    n = draw(st.integers(2, 30))
    m = draw(st.integers(1, 90))
    i = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    j = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    g = from_edges(i, j, None, n_vertices=n)
    scores = draw(
        hnp.arrays(
            np.float64,
            g.n_edges,
            elements=st.floats(-2.0, 2.0, allow_nan=False),
        )
    )
    return g, scores


class TestMatchingProperties:
    @given(graph_with_scores())
    @settings(max_examples=80, deadline=None)
    def test_valid_and_maximal(self, args):
        g, scores = args
        res = match_locally_dominant(g, scores)
        assert is_maximal_matching(g, scores, res)

    @given(graph_with_scores())
    @settings(max_examples=60, deadline=None)
    def test_matched_scores_positive(self, args):
        g, scores = args
        res = match_locally_dominant(g, scores)
        assert np.all(scores[res.matched_edges] > 0)

    @given(graph_with_scores())
    @settings(max_examples=60, deadline=None)
    def test_partner_involution(self, args):
        g, scores = args
        res = match_locally_dominant(g, scores)
        matched = np.flatnonzero(res.partner != NO_VERTEX)
        np.testing.assert_array_equal(
            res.partner[res.partner[matched]], matched
        )

    @given(graph_with_scores())
    @settings(max_examples=40, deadline=None)
    def test_legacy_sweep_identical(self, args):
        g, scores = args
        a = match_locally_dominant(g, scores)
        b = match_full_sweep(g, scores)
        np.testing.assert_array_equal(a.partner, b.partner)

    @given(graph_with_scores())
    @settings(max_examples=30, deadline=None)
    def test_half_approximation_vs_networkx(self, args):
        import networkx as nx

        g, scores = args
        res = match_locally_dominant(g, scores)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n_vertices))
        e = g.edges
        for k in range(e.n_edges):
            if scores[k] > 0:
                nxg.add_edge(int(e.ei[k]), int(e.ej[k]), weight=float(scores[k]))
        opt = nx.max_weight_matching(nxg)
        opt_weight = sum(nxg[u][v]["weight"] for u, v in opt)
        assert matching_weight(scores, res) >= 0.5 * opt_weight - 1e-9

    @given(graph_with_scores())
    @settings(max_examples=40, deadline=None)
    def test_pass_budget_reasonable(self, args):
        g, scores = args
        res = match_locally_dominant(g, scores)
        # Hashed priorities keep passes near-logarithmic; allow slack.
        assert res.passes <= g.n_vertices


# ------------------------------------------------ scan switch vs full loop
#: A scan cost no level ever reaches: the full worklist pass loop.
NEVER = 10**18


def _run_with_scan_cost(g, scores, cost, chunk=5):
    """Run with the given scan cost; the small scan chunk puts chunk
    boundaries inside every residual."""
    tr = Tracer()
    with mock.patch.object(matching, "_SCAN_COST", cost), mock.patch.object(
        matching, "_SCAN_CHUNK", chunk
    ):
        res = match_locally_dominant(g, scores, tracer=tr)
    return res, tr


def _assert_identical(res, ref):
    np.testing.assert_array_equal(res.partner, ref.partner)
    np.testing.assert_array_equal(res.matched_edges, ref.matched_edges)
    assert res.passes == ref.passes
    assert res.failed_claims == ref.failed_claims


def _assert_every_switch_point_identical(g, scores):
    """Switch after pass 0, 1, ... and compare each run with the full loop."""
    ref, tr = _run_with_scan_cost(g, scores, NEVER)
    assert not tr.find("match_scan")
    n_candidates = int(np.count_nonzero(scores > 0))
    visits = np.cumsum([0] + [s.attrs["live_edges"] for s in tr.find("match_pass")])
    assert len(visits) == ref.passes + 1
    for k, v in enumerate(visits[:-1].tolist()):
        # Exact fractional cost: the visit count reaches the budget right
        # after pass k, so the scan finishes the remaining passes.
        res, tr_k = _run_with_scan_cost(g, scores, Fraction(v, n_candidates))
        assert len(tr_k.find("match_pass")) == k
        (scan,) = tr_k.find("match_scan")
        assert k + scan.attrs["rounds"] == ref.passes
        _assert_identical(res, ref)


@st.composite
def graph_with_tied_scores(draw):
    """Random multigraphs whose scores are drawn from a few values: ties,
    unit weights, zeros and negatives."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 120))
    i = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    j = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    g = from_edges(i, j, None, n_vertices=n)
    palette = draw(
        st.sampled_from(
            [(1.0,), (0.5, 1.0), (-1.0, 0.0, 1.0, 2.0), (0.0, 0.25, 0.25, 3.0)]
        )
    )
    scores = draw(
        hnp.arrays(np.float64, g.n_edges, elements=st.sampled_from(palette))
    )
    return g, scores


class TestScanSwitchIdentity:
    @given(graph_with_scores())
    @settings(max_examples=40, deadline=None)
    def test_every_switch_point_mixed_sign_scores(self, args):
        _assert_every_switch_point_identical(*args)

    @given(graph_with_tied_scores())
    @settings(max_examples=40, deadline=None)
    def test_every_switch_point_tied_scores(self, args):
        _assert_every_switch_point_identical(*args)

    @given(st.integers(6, 9), st.integers(0, 2**16), st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_every_switch_point_rmat_skew(self, scale, seed, unit):
        g = rmat_graph(scale, 8, seed=seed)
        scores = (
            np.ones(g.n_edges) if unit else ModularityScorer().score(g)
        )
        _assert_every_switch_point_identical(g, scores)

    @given(st.integers(2, 300))
    @settings(max_examples=15, deadline=None)
    def test_every_switch_point_equal_score_chain(self, n):
        g = path_graph(n)
        _assert_every_switch_point_identical(g, np.ones(g.n_edges))

    @given(
        graph_with_scores(),
        st.one_of(
            st.just(0),
            st.floats(0.0, 30.0, allow_nan=False),
            st.just(NEVER),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_scan_cost_matches_full_loop(self, args, cost):
        g, scores = args
        ref, _ = _run_with_scan_cost(g, scores, NEVER)
        res, _ = _run_with_scan_cost(g, scores, cost)
        _assert_identical(res, ref)

    def test_planted_level0_crosses_real_budget(self):
        g = planted_partition_graph(2000, seed=0)
        scores = ModularityScorer().score(g)
        tr = Tracer()
        res = match_locally_dominant(g, scores, tracer=tr)
        (scan,) = tr.find("match_scan")
        executed = len(tr.find("match_pass"))
        assert 0 < executed < res.passes
        assert executed + scan.attrs["rounds"] == res.passes
        assert scan.attrs["residual_edges"] > 0
        assert scan.attrs["matched"] > 0
        ref, _ = _run_with_scan_cost(g, scores, NEVER)
        _assert_identical(res, ref)
        assert is_maximal_matching(g, scores, res)
