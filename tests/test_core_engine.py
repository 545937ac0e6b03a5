"""Unit tests for the phase-pipeline engine: RunContext, the kernel
registry, phase-kernel adapters, and the run-level span contract."""

import numpy as np
import pytest

from repro.core import (
    KERNEL_KINDS,
    AgglomerationEngine,
    RunContext,
    ScoreKernel,
    TerminationCriteria,
    create_kernel,
    detect_communities,
    kernel_names,
    register_kernel,
    unregister_kernel,
)
from repro.core.engine import _limit_matching
from repro.core.matching import MatchingResult, match_locally_dominant
from repro.errors import ScoreValidationError
from repro.obs.trace import NullTracer, Tracer
from repro.types import NO_VERTEX, SCORE_DTYPE


class TestRegistry:
    def test_builtins_discoverable(self):
        assert kernel_names("scorer") == ("conductance", "modularity", "weight")
        assert kernel_names("matcher") == ("sweep", "worklist")
        assert kernel_names("contractor") == ("bucket", "chains")

    def test_kernel_kinds(self):
        assert KERNEL_KINDS == ("scorer", "matcher", "contractor")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kernel kind"):
            kernel_names("optimizer")
        with pytest.raises(ValueError, match="kernel kind"):
            register_kernel("optimizer", "adam", lambda: None)

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="unknown matcher 'nope'"):
            create_kernel("matcher", "nope")
        with pytest.raises(ValueError, match="sweep, worklist"):
            create_kernel("matcher", "nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_kernel("scorer", "modularity", lambda: None)

    def test_register_replace_and_unregister(self):
        sentinel = object()
        register_kernel("matcher", "test-matcher", lambda: sentinel)
        try:
            assert create_kernel("matcher", "test-matcher") is sentinel
            other = object()
            register_kernel(
                "matcher", "test-matcher", lambda: other, replace=True
            )
            assert create_kernel("matcher", "test-matcher") is other
        finally:
            unregister_kernel("matcher", "test-matcher")
        assert "test-matcher" not in kernel_names("matcher")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            register_kernel("scorer", "", lambda: None)

    def test_custom_scorer_usable_by_name(self, karate):
        class HalfWeight:
            name = "half-weight"

            def score(self, graph, recorder=None):
                return (graph.edges.w / 2).astype(SCORE_DTYPE)

        register_kernel("scorer", "half-weight", HalfWeight)
        try:
            res = detect_communities(karate, "half-weight")
            assert res.scorer_name == "half-weight"
            assert res.n_levels >= 1
        finally:
            unregister_kernel("scorer", "half-weight")


class TestRunContext:
    def test_create_defaults(self):
        ctx = RunContext.create()
        assert isinstance(ctx.tracer, NullTracer)
        assert not hasattr(ctx, "backend")
        assert ctx.checkpoints is None
        assert ctx.recovery.retries == 0

    def test_checkpoint_every_validation(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            RunContext.create(checkpoint_every=0)

    def test_resume_requires_checkpoints(self, karate):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            AgglomerationEngine().run(karate, resume=True)


class TestScoreKernel:
    def test_builtin_skips_engine_side_validation(self):
        kernel = ScoreKernel(create_kernel("scorer", "modularity"))
        assert kernel._needs_validation is False

    def test_external_scorer_validated_once_by_engine(self, karate):
        class NaNScorer:
            name = "nan-scorer"

            def score(self, graph, recorder=None):
                out = np.zeros(graph.n_edges, dtype=SCORE_DTYPE)
                out[0] = np.nan
                return out

        kernel = ScoreKernel(NaNScorer())
        assert kernel._needs_validation is True
        with pytest.raises(ScoreValidationError, match="nan-scorer"):
            kernel.run(RunContext.create(), karate)

    def test_self_validating_external_scorer_trusted(self, karate):
        calls = []

        class TrustedScorer:
            name = "trusted"
            validates_output = True

            def score(self, graph, recorder=None):
                calls.append("score")
                return np.ones(graph.n_edges, dtype=SCORE_DTYPE)

        kernel = ScoreKernel(TrustedScorer())
        assert kernel._needs_validation is False
        scores = kernel.run(RunContext.create(), karate)
        assert calls == ["score"]
        assert scores.shape == (karate.n_edges,)


class TestCustomKernelCallables:
    def test_callable_matcher_and_contractor(self, karate):
        from repro.core.contraction import contract

        base = detect_communities(karate)
        res = detect_communities(
            karate, matcher=match_locally_dominant, contractor=contract
        )
        np.testing.assert_array_equal(
            base.partition.labels, res.partition.labels
        )


class TestRunSpan:
    def test_run_span_records_outcome(self, karate):
        tracer = Tracer()
        res = detect_communities(karate, tracer=tracer, matcher="sweep")
        (span,) = tracer.find("agglomeration")
        assert span.attrs["scorer"] == "modularity"
        assert span.attrs["matcher"] == "sweep"
        assert span.attrs["contractor"] == "bucket"
        assert "backend" not in span.attrs
        assert "n_workers" not in span.attrs
        assert span.attrs["terminated_by"] == res.terminated_by
        assert span.attrs["n_levels"] == res.n_levels
        assert span.items == karate.n_edges

    def test_level_spans_nest_under_run_span(self, karate):
        tracer = Tracer()
        detect_communities(karate, tracer=tracer)
        (run_span,) = tracer.find("agglomeration")
        for level_span in tracer.find("level"):
            assert level_span.parent_id == run_span.span_id

    def test_seed_stamped_on_run_span(self, karate):
        tracer = Tracer()
        ctx = RunContext.create(tracer=tracer, seed=42)
        AgglomerationEngine().run(karate, ctx)
        (span,) = tracer.find("agglomeration")
        assert span.attrs["seed"] == 42


class TestLimitMatching:
    def test_partner_array_rebuilt_consistently(self, karate):
        scores = np.ones(karate.n_edges, dtype=SCORE_DTYPE)
        matching = match_locally_dominant(karate, scores)
        assert matching.n_pairs > 2
        limited = _limit_matching(matching, scores, 2, karate.edges)
        assert limited.n_pairs == 2
        # Partner must be involutive and agree exactly with matched_edges.
        e = karate.edges
        expected = np.full_like(matching.partner, NO_VERTEX)
        for k in limited.matched_edges:
            expected[e.ei[k]] = e.ej[k]
            expected[e.ej[k]] = e.ei[k]
        np.testing.assert_array_equal(limited.partner, expected)
        matched = limited.partner != NO_VERTEX
        np.testing.assert_array_equal(
            limited.partner[limited.partner[matched]],
            np.flatnonzero(matched),
        )

    def test_noop_below_cap(self, karate):
        scores = np.ones(karate.n_edges, dtype=SCORE_DTYPE)
        matching = match_locally_dominant(karate, scores)
        assert _limit_matching(
            matching, scores, matching.n_pairs, karate.edges
        ) is matching

    def test_keeps_highest_scored_pairs(self):
        # Path 0-1-2-3 with edge scores 3, 1, 2: cap at 1 keeps edge (0,1).
        from repro.graph import from_edges

        g = from_edges([0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0], n_vertices=4)
        scores = np.array([3.0, 1.0, 2.0], dtype=SCORE_DTYPE)
        partner = np.array([1, 0, 3, 2])
        matching = MatchingResult(
            partner=partner,
            matched_edges=np.array([0, 2]),
            passes=1,
            failed_claims=0,
        )
        limited = _limit_matching(matching, scores, 1, g.edges)
        np.testing.assert_array_equal(limited.matched_edges, [0])
        assert limited.partner[0] == 1 and limited.partner[1] == 0
        assert limited.partner[2] == NO_VERTEX
        assert limited.partner[3] == NO_VERTEX


class TestTerminatedByOnSpan:
    @pytest.mark.parametrize(
        "termination, expected",
        [
            (TerminationCriteria(coverage=None, max_levels=1), "max_levels"),
            (TerminationCriteria(coverage=0.0), "coverage"),
        ],
    )
    def test_reasons_surface_on_span(self, karate, termination, expected):
        tracer = Tracer()
        res = detect_communities(
            karate, termination=termination, tracer=tracer
        )
        assert res.terminated_by == expected
        (span,) = tracer.find("agglomeration")
        assert span.attrs["terminated_by"] == expected
