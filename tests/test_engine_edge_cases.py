"""Degenerate inputs at the engine boundary: well-formed results, never
an exception or a NaN.

Empty graphs, single vertices, all-self-loop inputs, and fully
disconnected vertex sets all short-circuit somewhere in the driver loop;
each must still produce a complete :class:`AgglomerationResult` — valid
partition, sensible ``terminated_by``, finite quality numbers — with or
without a guardian attached.
"""

import warnings

import numpy as np
import pytest

from repro.core import detect_communities
from repro.graph import from_edges
from repro.metrics import average_conductance, coverage, modularity
from repro.obs import QualityTimeline, Tracer
from repro.resilience import RunGuardian


def _vertexless():
    empty = np.array([], dtype=np.int64)
    return from_edges(empty, empty, n_vertices=0)


def _edgeless(n):
    empty = np.array([], dtype=np.int64)
    return from_edges(empty, empty, n_vertices=n)


def _all_self_loops(n):
    idx = np.arange(n, dtype=np.int64)
    return from_edges(idx, idx, w=np.full(n, 2.0))


def _assert_well_formed(graph, result):
    """The contract every degenerate run must honor."""
    assert result.terminated_by in (
        "min_communities",
        "local_maximum",
        "coverage",
        "max_levels",
        "max_community_size",
    )
    labels = result.partition.labels
    assert len(labels) == graph.n_vertices
    assert result.partition.n_communities <= max(1, graph.n_vertices)
    for value in (
        modularity(graph, result.partition),
        coverage(graph, result.partition),
        average_conductance(graph, result.partition),
    ):
        assert np.isfinite(value)
    for stats in result.levels:
        assert np.isfinite(stats.modularity_after)
        assert np.isfinite(stats.coverage_after)


class TestVertexlessGraph:
    def test_runs_to_completion(self):
        graph = _vertexless()
        result = detect_communities(graph)
        _assert_well_formed(graph, result)
        assert result.terminated_by == "min_communities"
        assert result.partition.n_communities == 0
        assert result.n_levels == 0
        assert modularity(graph, result.partition) == 0.0
        assert coverage(graph, result.partition) == 1.0

    def test_with_guardian_and_tracer(self):
        graph = _vertexless()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no GuardianBreach, no NaN noise
            result = detect_communities(
                graph,
                guardian=RunGuardian("full"),
                tracer=Tracer(),
            )
        _assert_well_formed(graph, result)
        assert result.recovery.ladder == []
        assert QualityTimeline.from_result(result).n_levels == 0


class TestSingleVertex:
    def test_runs_to_completion(self):
        graph = _edgeless(1)
        result = detect_communities(graph)
        _assert_well_formed(graph, result)
        assert result.terminated_by == "min_communities"
        assert result.partition.n_communities == 1

    def test_with_guardian(self):
        graph = _edgeless(1)
        result = detect_communities(graph, guardian=RunGuardian("full"))
        _assert_well_formed(graph, result)


class TestAllSelfLoops:
    def test_runs_to_completion(self):
        graph = _all_self_loops(5)
        assert graph.n_edges == 0  # loops fold into self weights
        assert graph.internal_weight() == pytest.approx(10.0)
        result = detect_communities(graph)
        _assert_well_formed(graph, result)
        # no cross edges: every vertex stays its own community
        assert result.partition.n_communities == 5
        assert coverage(graph, result.partition) == pytest.approx(1.0)

    def test_with_guardian_no_breach(self):
        graph = _all_self_loops(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = detect_communities(
                graph, guardian=RunGuardian("full")
            )
        _assert_well_formed(graph, result)
        assert result.recovery.guardian_breaches == 0


class TestFullyDisconnected:
    @pytest.mark.parametrize("n", [2, 50])
    def test_runs_to_completion(self, n):
        graph = _edgeless(n)
        result = detect_communities(graph)
        _assert_well_formed(graph, result)
        assert result.terminated_by == "local_maximum"
        assert result.partition.n_communities == n

    def test_with_guardian_and_timeline(self):
        graph = _edgeless(50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = detect_communities(
                graph,
                guardian=RunGuardian("full"),
                tracer=Tracer(),
            )
        _assert_well_formed(graph, result)
        for sample in QualityTimeline.from_result(result).levels:
            assert np.isfinite(sample.modularity)
            assert np.isfinite(sample.coverage)


class TestIsolatedPlusComponent:
    def test_isolated_vertices_survive_agglomeration(self):
        # a triangle plus three isolated vertices: the isolates must ride
        # through every contraction level untouched
        i = np.array([0, 1, 2], dtype=np.int64)
        j = np.array([1, 2, 0], dtype=np.int64)
        graph = from_edges(i, j, n_vertices=6)
        result = detect_communities(graph, guardian=RunGuardian("full"))
        _assert_well_formed(graph, result)
        labels = result.partition.labels
        # triangle merges, isolates stay distinct singletons
        assert labels[0] == labels[1] == labels[2]
        assert len({int(labels[v]) for v in (3, 4, 5)}) == 3
