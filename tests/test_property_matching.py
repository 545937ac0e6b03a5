"""Property-based tests for the matching kernel: validity, maximality and
the 1/2-approximation guarantee on random graphs and scores, identity
of the scan-finished worklist with the full pass loop, and the per-vertex
claim pass against the reference and the records it replaced."""

import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
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
from repro.platform.kernels import TraceRecorder
from repro.reference import locally_dominant_matching_ref
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


def _run_with_predicate(g, scores, predicate, chunk=5):
    """Run with ``predicate`` in place of the scan switch's test."""
    tr = Tracer()
    with mock.patch.object(matching, "_scan_pays", predicate), mock.patch.object(
        matching, "_SCAN_CHUNK", chunk
    ):
        res = match_locally_dominant(g, scores, tracer=tr)
    return res, tr


def _assert_identical(res, ref):
    np.testing.assert_array_equal(res.partner, ref.partner)
    np.testing.assert_array_equal(res.matched_edges, ref.matched_edges)
    assert res.passes == ref.passes
    assert res.failed_claims == ref.failed_claims


def _live_per_pass(tr):
    """Live edges at the start of each executed pass, then 0."""
    return [s.attrs["live_edges"] for s in tr.find("match_pass")] + [0]


def _assert_every_switch_point_identical(g, scores):
    """Switch before pass 1, 2, ... and compare each run with the full loop."""
    asked = []
    ref, tr = _run_with_predicate(g, scores, lambda *a: asked.append(a) or False)
    assert not tr.find("match_scan")
    assert len(asked) == ref.passes
    # The test sees the visits so far, the live edges left and the last
    # pass's yield, as the executed passes' spans count them.
    live = _live_per_pass(tr)
    for k, (visits, n_live, retired) in enumerate(asked):
        assert visits == sum(live[:k])
        assert n_live == live[k]
        assert retired == (live[k - 1] - live[k] if k else 0)
    for k in range(ref.passes):
        # The test holds for the first time before pass k + 1, so the scan
        # finishes the remaining passes.
        calls = itertools.count()
        res, tr_k = _run_with_predicate(g, scores, lambda *a: next(calls) == k)
        assert len(tr_k.find("match_pass")) == k
        (scan,) = tr_k.find("match_scan")
        assert scan.attrs["residual_edges"] == live[k]
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

    def test_planted_level0_scans_at_first_paying_pass(self):
        g = planted_partition_graph(2000, seed=0)
        scores = ModularityScorer().score(g)
        _, full = _run_with_scan_cost(g, scores, NEVER)
        live = _live_per_pass(full)
        cost = matching._SCAN_COST
        # The first pass before which the visits so far reach the scan's
        # cost and the last pass retired under 1/_SCAN_COST of the edges.
        first = next(
            k
            for k in range(1, len(live) - 1)
            if sum(live[:k]) >= cost * live[k]
            and cost * (live[k - 1] - live[k]) < live[k]
        )
        tr = Tracer()
        match_locally_dominant(g, scores, tracer=tr)
        (scan,) = tr.find("match_scan")
        assert len(tr.find("match_pass")) == first
        assert scan.attrs["residual_edges"] == live[first]
        assert first < len(live) - 2

    def test_level_retiring_enough_each_pass_never_scans(self):
        # Random multigraphs whose every pass retires at least a
        # 1/_SCAN_COST share of its live edges; their visits reach the
        # scan's cost long before they drain, so only the yield test
        # keeps the passes going.
        cost = matching._SCAN_COST
        rng = np.random.default_rng(0)
        for n, m in ((1000, 8000), (1000, 3000), (200, 600)):
            i, j = rng.integers(0, n, (2, m))
            g = from_edges(i, j, None, n_vertices=n)
            scores = ModularityScorer().score(g)
            ref, full = _run_with_scan_cost(g, scores, NEVER)
            live = _live_per_pass(full)
            assert all(
                cost * (live[k] - live[k + 1]) >= live[k]
                for k in range(len(live) - 1)
            )
            assert any(
                sum(live[:k]) >= cost * live[k] for k in range(1, len(live) - 1)
            )
            tr = Tracer()
            res = match_locally_dominant(g, scores, tracer=tr)
            assert not tr.find("match_scan")
            assert len(tr.find("match_pass")) == res.passes
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


# ------------------------------------------------------- residual ranking
@st.composite
def residual_with_scores(draw):
    """Distinct, non-contiguous edge indices and their scores: tied
    palettes, distinct floats or infinities."""
    live = np.array(
        sorted(draw(st.lists(st.integers(0, 2**40), unique=True, max_size=300))),
        dtype=np.int64,
    )
    elements = draw(
        st.sampled_from(
            [
                st.just(1.0),
                st.sampled_from([0.5, 1.0, 2.0]),
                st.sampled_from([0.25, 3.0, np.inf]),
                st.floats(0.0, 1e300, exclude_min=True),
                st.floats(0.0, exclude_min=True, allow_nan=False),
            ]
        )
    )
    return live, draw(hnp.arrays(np.float64, len(live), elements=elements))


class TestResidualRanking:
    @given(residual_with_scores())
    @settings(max_examples=200, deadline=None)
    def test_two_argsorts_equal_lexsort(self, args):
        live, live_scores = args
        expected = live[np.lexsort((matching._edge_priority(live), -live_scores))]
        np.testing.assert_array_equal(
            matching._rank_residual(live, live_scores), expected
        )


# --------------------------------------------------- per-vertex claim pass
class TestClaimReadBack:
    """A pass reads each claimer's edge back from its priority and
    settles the claims per vertex instead of per live edge."""

    @given(hnp.arrays(np.int64, st.integers(0, 64), elements=st.integers(0, 2**62 - 1)))
    @settings(max_examples=200, deadline=None)
    def test_edge_of_inverts_edge_priority(self, index):
        np.testing.assert_array_equal(
            matching._edge_of(matching._edge_priority(index)), index
        )

    @given(graph_with_tied_scores(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_tied_scores_equal_reference(self, args, legacy_sweep):
        g, scores = args
        ref = locally_dominant_matching_ref(g, scores)
        if legacy_sweep:
            res = match_full_sweep(g, scores)
            # the sweep also counts its last pass, which finds no live edge
            ref = dataclasses.replace(ref, passes=ref.passes + (ref.passes > 0))
        else:
            # with the scan kept out, every pass settles its own claims
            res, _ = _run_with_scan_cost(g, scores, NEVER)
        _assert_identical(res, ref)


#: ``(items, mem_words, atomics, locks, contention)`` of each recorded
#: ``match_pass``, as the per-edge claim pass it replaced recorded them.
PINNED_PASS_RECORDS = {
    ("planted", "worklist"): [
        (465, 2367, 240, 42, 0.225),
        (291, 1479, 156, 24, 0.24358974358974358),
        (188, 954, 106, 14, 0.25471698113207547),
        (142, 722, 78, 12, 0.24358974358974358),
        (88, 454, 54, 14, 0.24074074074074073),
        (39, 201, 26, 6, 0.23076923076923078),
        (15, 77, 14, 2, 0.2857142857142857),
        (7, 37, 10, 2, 0.3),
        (2, 12, 6, 2, 0.16666666666666666),
    ],
    ("planted", "sweep"): [
        (465, 3297, 930, 42, 0.8709677419354839),
        (465, 2409, 582, 24, 0.865979381443299),
        (465, 1884, 376, 14, 0.8590425531914894),
        (465, 1652, 284, 12, 0.8626760563380281),
        (465, 1384, 176, 14, 0.8465909090909091),
        (465, 1131, 78, 6, 0.8333333333333334),
        (465, 1007, 30, 2, 0.7666666666666666),
        (465, 967, 14, 2, 0.6428571428571428),
        (465, 942, 4, 2, 0.25),
    ],
    ("rmat_unit", "worklist"): [
        (255, 1313, 124, 38, 0.16129032258064516),
        (34, 180, 42, 10, 0.19047619047619047),
        (8, 46, 20, 6, 0.15),
        (1, 7, 4, 2, 0.0),
    ],
    ("rmat_unit", "sweep"): [
        (255, 1823, 510, 38, 0.8784313725490196),
        (255, 690, 68, 10, 0.6911764705882353),
        (255, 556, 16, 6, 0.375),
        (255, 517, 2, 2, 0.0),
    ],
}


class TestPassRecords:
    @staticmethod
    def _input(name):
        if name == "planted":
            g = planted_partition_graph(120, seed=5)
            return g, ModularityScorer().score(g)
        g = rmat_graph(6, 8, seed=3)
        return g, np.ones(g.n_edges)

    @pytest.mark.parametrize("name, matcher", sorted(PINNED_PASS_RECORDS))
    def test_records_equal_pinned(self, name, matcher):
        g, scores = self._input(name)
        kernel = match_full_sweep if matcher == "sweep" else match_locally_dominant
        recorder = TraceRecorder()
        kernel(g, scores, recorder)
        assert [r.name for r in recorder.records] == ["match_pass"] * len(
            recorder.records
        )
        assert all(r.chain_ops == 0 and r.level == 0 for r in recorder.records)
        got = [
            (r.items, r.mem_words, r.atomics, r.locks, r.contention)
            for r in recorder.records
        ]
        assert got == PINNED_PASS_RECORDS[name, matcher]
