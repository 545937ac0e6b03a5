"""Invariant auditor: seeded corruption must be caught, loudly and located.

Each test runs one *real* level (score → match → contract on the karate
club), then corrupts a specific artifact — contracted edge weights, the
self-loop array, the relabel mapping, the matching — and asserts the
auditor raises :class:`InvariantViolation` carrying the right
level/phase/check context and array forensics.  Clean levels must pass
at every strictness.
"""

import numpy as np
import pytest

from repro.core import ModularityScorer
from repro.core.contraction import contract
from repro.core.matching import match_locally_dominant
from repro.errors import InvariantViolation
from repro.generators import karate_club
from repro.graph import from_edges
from repro.graph.graph import CommunityGraph
from repro.metrics import Partition, coverage, modularity
from repro.resilience import invariants
from repro.resilience.invariants import (
    AUDIT_MODES,
    InvariantAuditor,
    check_mapping_surjection,
    check_matching_maximality,
    check_matching_validity,
    check_self_loop_accounting,
    check_tracked_quality,
    check_weight_conservation,
    lower_audit_mode,
)
from repro.types import NO_VERTEX


@pytest.fixture
def level(karate):
    """One real contraction level: (graph, scores, matching, mapping, after)."""
    scores = ModularityScorer().score(karate)
    matching = match_locally_dominant(karate, scores)
    after, mapping = contract(karate, matching)
    return karate, scores, matching, mapping, after


def _copy_graph(graph):
    return CommunityGraph(graph.edges.copy(), graph.self_weights.copy())


def _audit(mode, level_data, level_idx=0, **overrides):
    graph, scores, matching, mapping, after = level_data
    kwargs = dict(
        graph_before=graph,
        scores=scores,
        matching=matching,
        mapping=mapping,
        graph_after=after,
    )
    kwargs.update(overrides)
    return InvariantAuditor(mode).audit_contraction(level_idx, **kwargs)


class TestCleanLevel:
    @pytest.mark.parametrize("mode", ["sample", "full"])
    def test_clean_level_passes(self, level, mode):
        n = _audit(mode, level)
        assert n >= 4  # all conservation checks actually executed

    def test_full_runs_more_checks_than_sample(self, level):
        assert _audit("full", level) > _audit("sample", level)

    def test_off_runs_nothing(self, level):
        assert _audit("off", level) == 0


class TestSeededCorruption:
    @pytest.mark.parametrize("mode", ["sample", "full"])
    def test_edge_weight_corruption_caught(self, level, mode):
        graph, scores, matching, mapping, after = level
        bad = _copy_graph(after)
        bad.edges.w[0] += 5.0  # silently inflate one contracted edge
        with pytest.raises(InvariantViolation) as ei:
            _audit(mode, level, graph_after=bad, level_idx=3)
        exc = ei.value
        assert exc.level == 3
        assert exc.phase == "contract"
        assert exc.check == "weight_conservation"
        # forensics: located context plus an array summary
        assert "level 3" in str(exc)
        assert "drift" in str(exc)
        assert "shape" in str(exc)

    @pytest.mark.parametrize("mode", ["sample", "full"])
    def test_self_loop_corruption_caught(self, level, mode):
        graph, scores, matching, mapping, after = level
        bad = _copy_graph(after)
        bad.self_weights[0] += 2.0
        with pytest.raises(InvariantViolation) as ei:
            _audit(mode, level, graph_after=bad)
        # total weight breaks first — either check is a correct catch,
        # but the context must always be stamped
        assert ei.value.phase == "contract"
        assert ei.value.check in (
            "weight_conservation",
            "self_loop_accounting",
        )

    def test_weight_shuffle_needs_full_strictness(self, level):
        """Moving self weight *between* communities preserves every
        aggregate; only full's per-community accounting sees it."""
        graph, scores, matching, mapping, after = level
        assert after.n_vertices >= 2
        bad = _copy_graph(after)
        bad.self_weights[0] += 1.0
        bad.self_weights[1] -= 1.0
        _audit("sample", level, graph_after=bad)  # aggregates all agree
        with pytest.raises(InvariantViolation) as ei:
            _audit("full", level, graph_after=bad)
        assert ei.value.check == "self_loop_accounting"
        assert "per-community" in str(ei.value)

    @pytest.mark.parametrize("mode", ["sample", "full"])
    def test_mapping_out_of_range_caught(self, level, mode):
        graph, scores, matching, mapping, after = level
        bad = mapping.copy()
        bad[0] = after.n_vertices  # escapes the contracted vertex set
        with pytest.raises(InvariantViolation) as ei:
            _audit(mode, level, mapping=bad)
        assert ei.value.check in ("self_loop_accounting", "mapping_surjection")

    @pytest.mark.parametrize("mode", ["sample", "full"])
    def test_mapping_not_surjective_caught(self, level, mode):
        graph, scores, matching, mapping, after = level
        bad = mapping.copy()
        # redirect every vertex of community 0 onto community 1: the
        # totals survive but community 0 is never hit
        bad[bad == 0] = 1
        with pytest.raises(InvariantViolation) as ei:
            _audit(mode, level, mapping=bad)
        assert ei.value.check in ("self_loop_accounting", "mapping_surjection")
        assert "level 0" in str(ei.value)

    @pytest.mark.parametrize("mode", ["sample", "full"])
    def test_overlapping_pairs_caught(self, level, mode):
        graph, scores, matching, mapping, after = level
        partner = matching.partner.copy()
        matched = np.flatnonzero(partner != NO_VERTEX)
        assert len(matched) >= 4
        # point a third vertex at an already-matched one: two pairs now
        # overlap and the involution breaks
        a, b = matched[0], matched[1]
        free = np.flatnonzero(partner == NO_VERTEX)
        victim = free[0] if len(free) else matched[2]
        partner[victim] = a
        bad = type(matching)(
            partner=partner,
            matched_edges=matching.matched_edges,
            passes=matching.passes,
            failed_claims=matching.failed_claims,
        )
        with pytest.raises(InvariantViolation) as ei:
            _audit(mode, level, matching=bad)
        assert ei.value.check == "matching_validity"


class TestIndividualChecks:
    def test_weight_conservation_direct(self, karate):
        bad = _copy_graph(karate)
        bad.edges.w[0] *= 2.0
        with pytest.raises(InvariantViolation):
            check_weight_conservation(karate, bad)

    def test_surjection_empty_mapping(self):
        check_mapping_surjection(np.array([], dtype=np.int64), 0, 0)
        with pytest.raises(InvariantViolation):
            check_mapping_surjection(np.array([], dtype=np.int64), 0, 1)

    def test_surjection_rejects_float_mapping(self):
        with pytest.raises(InvariantViolation, match="integral"):
            check_mapping_surjection(np.zeros(3, dtype=np.float64), 3, 1)

    def test_surjection_rejects_wrong_length(self):
        with pytest.raises(InvariantViolation, match="covers"):
            check_mapping_surjection(np.zeros(2, dtype=np.int64), 3, 1)

    def test_matching_self_match_caught(self, level):
        graph, scores, matching, mapping, after = level
        partner = matching.partner.copy()
        partner[0] = 0
        bad = type(matching)(
            partner=partner,
            matched_edges=matching.matched_edges,
            passes=matching.passes,
            failed_claims=matching.failed_claims,
        )
        with pytest.raises(InvariantViolation, match="self-matched"):
            check_matching_validity(graph, bad)

    def test_maximality_catches_unmatched_positive_edge(self, level):
        graph, scores, matching, mapping, after = level
        check_matching_maximality(graph, scores, matching)  # real one is maximal
        # un-match one pair: its positive edge now has both endpoints free
        idx = matching.matched_edges[0]
        partner = matching.partner.copy()
        i = graph.edges.ei[idx]
        j = graph.edges.ej[idx]
        partner[i] = NO_VERTEX
        partner[j] = NO_VERTEX
        bad = type(matching)(
            partner=partner,
            matched_edges=np.delete(matching.matched_edges, 0),
            passes=matching.passes,
            failed_claims=matching.failed_claims,
        )
        assert scores[idx] > 0
        with pytest.raises(InvariantViolation, match="not maximal"):
            check_matching_maximality(graph, scores, bad)

    def test_limited_matching_skips_maximality(self, level):
        graph, scores, matching, mapping, after = level
        idx = matching.matched_edges[0]
        partner = matching.partner.copy()
        partner[graph.edges.ei[idx]] = NO_VERTEX
        partner[graph.edges.ej[idx]] = NO_VERTEX
        bad = type(matching)(
            partner=partner,
            matched_edges=np.delete(matching.matched_edges, 0),
            passes=matching.passes,
            failed_claims=matching.failed_claims,
        )
        # truncation un-matches by design: a limited matching must not
        # be audited for maximality, the mapping no longer agrees though
        auditor = InvariantAuditor("full")
        after2, mapping2 = contract(graph, bad)
        auditor.audit_contraction(
            0,
            graph_before=graph,
            scores=scores,
            matching=bad,
            mapping=mapping2,
            graph_after=after2,
            limited=True,
        )

    def test_tracked_quality_agrees_and_drifts(self, karate):
        labels = np.zeros(karate.n_vertices, dtype=np.int64)
        labels[karate.n_vertices // 2 :] = 1
        part = Partition(labels)
        q = modularity(karate, part)
        cov = coverage(karate, part)
        check_tracked_quality(
            karate, part, tracked_modularity=q, tracked_coverage=cov
        )
        with pytest.raises(InvariantViolation, match="modularity"):
            check_tracked_quality(
                karate, part, tracked_modularity=q + 0.25, tracked_coverage=cov
            )
        with pytest.raises(InvariantViolation, match="coverage"):
            check_tracked_quality(
                karate, part, tracked_modularity=q, tracked_coverage=cov - 0.25
            )
        with pytest.raises(InvariantViolation):
            check_tracked_quality(
                karate,
                part,
                tracked_modularity=float("nan"),
                tracked_coverage=cov,
            )

    def test_tracked_quality_flags_a_nan_recompute(self):
        # A NaN edge weight makes the recompute NaN; finite tracked values
        # must not pass a comparison against it.
        g = from_edges([0, 1, 2], [1, 2, 3], [1.0, np.nan, 1.0], n_vertices=4)
        part = Partition(np.array([0, 0, 1, 1]))
        with pytest.raises(InvariantViolation, match="tracked modularity"):
            check_tracked_quality(
                g, part, tracked_modularity=0.1, tracked_coverage=0.5
            )

    def test_tracked_coverage_flags_a_nan_recompute(self, karate, monkeypatch):
        monkeypatch.setattr(
            invariants,
            "modularity_and_coverage",
            lambda graph, partition: (0.1, float("nan")),
        )
        part = Partition(np.zeros(karate.n_vertices, dtype=np.int64))
        with pytest.raises(InvariantViolation, match="tracked coverage"):
            check_tracked_quality(
                karate, part, tracked_modularity=0.1, tracked_coverage=0.5
            )

    def test_self_loop_accounting_clean(self, level):
        graph, scores, matching, mapping, after = level
        check_self_loop_accounting(graph, mapping, after, per_community=True)


class TestAuditorMechanics:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            InvariantAuditor("everything")
        with pytest.raises(ValueError):
            InvariantAuditor("sample", sample_every=0)

    def test_lower_audit_mode_ladder(self):
        assert lower_audit_mode("full") == "sample"
        assert lower_audit_mode("sample") == "off"
        assert lower_audit_mode("off") == "off"
        assert AUDIT_MODES == ("off", "sample", "full")

    def test_lower_in_place(self):
        auditor = InvariantAuditor("full")
        assert auditor.lower() == "sample"
        assert auditor.lower() == "off"
        assert auditor.lower() == "off"
        assert auditor.mode == "off"

    def test_quality_sampling_schedule(self):
        auditor = InvariantAuditor("sample", sample_every=4)
        due = [lvl for lvl in range(9) if auditor._quality_due(lvl)]
        assert due == [0, 4, 8]
        assert all(InvariantAuditor("full")._quality_due(lvl) for lvl in range(9))

    def test_quality_audit_skipped_off_sample(self, karate):
        part = Partition(np.zeros(karate.n_vertices, dtype=np.int64))
        auditor = InvariantAuditor("sample", sample_every=4)
        n = auditor.audit_quality(
            1,  # not a sampled level
            input_graph=karate,
            partition=part,
            tracked_modularity=0.0,
            tracked_coverage=1.0,
        )
        assert n == 0

    def test_counters_track_checks_and_violations(self, level):
        graph, scores, matching, mapping, after = level
        auditor = InvariantAuditor("sample")
        auditor.audit_contraction(
            0,
            graph_before=graph,
            scores=scores,
            matching=matching,
            mapping=mapping,
            graph_after=after,
        )
        ran = auditor.checks_run
        assert ran >= 4
        assert auditor.violations == 0
        bad = _copy_graph(after)
        bad.edges.w[0] += 1.0
        with pytest.raises(InvariantViolation):
            auditor.audit_contraction(
                1,
                graph_before=graph,
                scores=scores,
                matching=matching,
                mapping=mapping,
                graph_after=bad,
            )
        assert auditor.checks_run > ran
        assert auditor.violations == 1
