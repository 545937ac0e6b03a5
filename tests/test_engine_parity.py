"""Golden parity: the engine, the legacy wrapper, and checkpoint resume
produce bit-identical partitions and dendrograms.

``detect_communities`` is a compatibility wrapper over
:class:`~repro.core.engine.AgglomerationEngine`; these tests pin that
the wrapper, a hand-built engine run, and runs across checkpoint
resume all agree exactly — partitions,
dendrogram maps, per-level stats and termination reason — on seeded
RMAT and planted-partition (SBM) workloads across every
matcher × contractor × scorer combination.
"""

import numpy as np
import pytest

from repro.core import (
    AgglomerationEngine,
    RunContext,
    TerminationCriteria,
    detect_communities,
)
from repro.generators import planted_partition_graph, rmat_graph

MATCHERS = ["worklist", "sweep"]
CONTRACTORS = ["bucket", "chains"]
SCORERS = ["modularity", "conductance", "weight"]


@pytest.fixture(scope="module")
def rmat():
    return rmat_graph(7, 8, seed=11)


@pytest.fixture(scope="module")
def sbm():
    return planted_partition_graph(600, seed=7)


def assert_runs_identical(a, b):
    """Bit-identical outcomes: partition, dendrogram, stats, termination."""
    np.testing.assert_array_equal(a.partition.labels, b.partition.labels)
    assert len(a.dendrogram.maps) == len(b.dendrogram.maps)
    for ma, mb in zip(a.dendrogram.maps, b.dendrogram.maps):
        np.testing.assert_array_equal(ma, mb)
    assert a.levels == b.levels
    assert a.terminated_by == b.terminated_by
    assert a.scorer_name == b.scorer_name


class TestWrapperEngineParity:
    @pytest.mark.parametrize("scorer", SCORERS)
    @pytest.mark.parametrize("contractor", CONTRACTORS)
    @pytest.mark.parametrize("matcher", MATCHERS)
    def test_all_kernel_combos_rmat(self, rmat, matcher, contractor, scorer):
        legacy = detect_communities(
            rmat, scorer, matcher=matcher, contractor=contractor
        )
        engine = AgglomerationEngine(
            scorer, matcher=matcher, contractor=contractor
        )
        direct = engine.run(rmat)
        assert_runs_identical(legacy, direct)

    @pytest.mark.parametrize("scorer", SCORERS)
    @pytest.mark.parametrize("contractor", CONTRACTORS)
    @pytest.mark.parametrize("matcher", MATCHERS)
    def test_all_kernel_combos_sbm(self, sbm, matcher, contractor, scorer):
        legacy = detect_communities(
            sbm, scorer, matcher=matcher, contractor=contractor
        )
        engine = AgglomerationEngine(
            scorer, matcher=matcher, contractor=contractor
        )
        direct = engine.run(sbm)
        assert_runs_identical(legacy, direct)

    def test_termination_criteria_pass_through(self, rmat):
        crit = TerminationCriteria(min_communities=5, max_levels=2)
        legacy = detect_communities(rmat, termination=crit)
        direct = AgglomerationEngine(termination=crit).run(rmat)
        assert_runs_identical(legacy, direct)

    def test_engine_is_reusable_and_deterministic(self, sbm):
        engine = AgglomerationEngine(matcher="sweep", contractor="chains")
        first = engine.run(sbm)
        second = engine.run(sbm)
        assert_runs_identical(first, second)


class TestResumeParity:
    def test_mid_run_resume_matches_uninterrupted(self, rmat, tmp_path):
        full = AgglomerationEngine().run(rmat)
        assert full.n_levels > 1, "fixture must produce a multi-level run"

        interrupted = AgglomerationEngine(
            termination=TerminationCriteria(max_levels=1)
        )
        ctx = RunContext.create(checkpoint_dir=tmp_path)
        interrupted.run(rmat, ctx)

        resume_ctx = RunContext.create(checkpoint_dir=tmp_path)
        resumed = AgglomerationEngine().run(rmat, resume_ctx, resume=True)
        assert resumed.recovery.resumed_from_level == 1
        assert_runs_identical(full, resumed)

    def test_resume_through_wrapper_matches_engine(self, rmat, tmp_path):
        detect_communities(
            rmat,
            termination=TerminationCriteria(max_levels=1),
            checkpoint_dir=tmp_path,
        )
        via_wrapper = detect_communities(
            rmat, checkpoint_dir=tmp_path, resume=True
        )
        full = detect_communities(rmat)
        assert_runs_identical(full, via_wrapper)
