"""Unit tests for CommunityGraph."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro import detect_communities
from repro.errors import InvariantViolation
from repro.generators import planted_partition_graph
from repro.graph import CommunityGraph, from_edges
from repro.graph.edgelist import EdgeList
from repro.graph.io import load_npz, save_npz
from repro.metrics import average_conductance, coverage, modularity
from repro.resilience import RunGuardian


def make(i, j, w=None, n=None, selfw=None):
    g = from_edges(np.asarray(i), np.asarray(j), w, n_vertices=n)
    if selfw is not None:
        g.self_weights[:] = selfw
    return g


class TestConstruction:
    def test_default_self_weights_zero(self):
        g = make([0, 1], [1, 2])
        np.testing.assert_array_equal(g.self_weights, [0.0, 0.0, 0.0])

    def test_self_weights_length_checked(self):
        e = EdgeList.from_raw(np.array([0]), np.array([1]), None, 2)
        with pytest.raises(ValueError):
            CommunityGraph(e, np.zeros(3))

    def test_counts(self):
        g = make([0, 1, 2], [1, 2, 3])
        assert g.n_vertices == 4
        assert g.n_edges == 3


class TestWeights:
    def test_total_weight_includes_self(self):
        g = make([0, 1], [1, 2], w=[2.0, 3.0], selfw=[1.0, 0.0, 1.0])
        assert g.total_weight() == 7.0

    def test_internal_weight(self):
        g = make([0, 1], [1, 2], selfw=[1.0, 2.0, 0.0])
        assert g.internal_weight() == 3.0

    def test_coverage(self):
        g = make([0, 1], [1, 2], selfw=[1.0, 1.0, 0.0])
        assert g.coverage() == pytest.approx(0.5)

    def test_coverage_empty_graph(self):
        g = from_edges(np.empty(0, int), np.empty(0, int), n_vertices=3)
        assert g.coverage() == 1.0

    def test_strengths_convention(self):
        # strength = 2*self + incident: an internal edge counts twice.
        g = make([0], [1], w=[3.0], selfw=[2.0, 0.0])
        np.testing.assert_allclose(g.strengths(), [7.0, 3.0])

    def test_strength_sum_is_2w(self):
        g = make([0, 1, 0], [1, 2, 2], w=[1.0, 2.0, 4.0], selfw=[1.0, 0, 0])
        assert g.strengths().sum() == pytest.approx(2 * g.total_weight())


class TestMisc:
    def test_memory_words(self):
        g = make([0, 1], [1, 2])
        assert g.memory_words() == 3 * 2 + 2 * 3 + 3

    def test_copy_independent(self):
        g = make([0], [1])
        c = g.copy()
        c.self_weights[0] = 5.0
        assert g.self_weights[0] == 0.0

    def test_validate_negative_self_weight(self):
        g = make([0], [1])
        g.self_weights[0] = -1.0
        with pytest.raises(InvariantViolation):
            g.validate()

    def test_validate_nan_edge_weight(self):
        g = make([0], [1])
        g.edges.w[0] = np.nan
        with pytest.raises(InvariantViolation):
            g.validate()

    def test_validate_ok(self, karate):
        karate.validate()


def _fresh(g):
    """Strengths and total weight of a never-measured copy of ``g``."""
    c = CommunityGraph(g.edges.copy(), g.self_weights.copy())
    return c.strengths(), c.total_weight()


def _writable(g):
    e = g.edges
    return [a.flags.writeable for a in (e.ei, e.ej, e.w, g.self_weights)]


class TestAggregateCache:
    @pytest.fixture
    def g(self):
        return make([0, 1, 0], [1, 2, 2], w=[1.0, 2.0, 4.0], selfw=[1.0, 0, 0.5])

    @pytest.mark.parametrize("measure", ["strengths", "total_weight"])
    @pytest.mark.parametrize("name", ["w", "ei", "ej", "self_weights"])
    def test_in_place_write_after_measuring_raises(self, g, measure, name):
        getattr(g, measure)()
        arr = g.self_weights if name == "self_weights" else getattr(g.edges, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[1]

    def test_returned_strengths_are_read_only_and_cached(self, g):
        s = g.strengths()
        with pytest.raises(ValueError, match="read-only"):
            s[0] = 0.0
        assert g.strengths() is s

    def test_unmeasured_graph_stays_writable(self, g):
        assert _writable(g) == [True] * 4
        g.edges.w[0] = 3.0
        g.self_weights[1] = 2.0
        np.testing.assert_array_equal(g.strengths(), _fresh(g)[0])

    def test_total_weight_does_not_compute_strengths(self, g, monkeypatch):
        def fail(self):
            raise AssertionError("total_weight computed strengths")

        monkeypatch.setattr(EdgeList, "strengths", fail)
        assert g.total_weight() == 8.5

    def test_reassigning_self_weights_recomputes(self, g):
        g.strengths(), g.total_weight()
        selfw = g.self_weights + 1.0
        selfw.flags.writeable = False  # the new array is sealed too
        g.self_weights = selfw
        s, t = _fresh(g)
        np.testing.assert_array_equal(g.strengths(), s)
        assert g.total_weight() == t == 11.5

    def test_reassigning_edge_weights_recomputes(self, g):
        g.strengths(), g.total_weight()
        g.edges.w = g.edges.w * 2.0
        s, t = _fresh(g)
        np.testing.assert_array_equal(g.strengths(), s)
        assert g.total_weight() == t == 15.5

    def test_reassigning_edges_recomputes(self, g):
        g.strengths(), g.total_weight()
        other = make([0, 1, 0], [1, 2, 2], w=[10.0, 10.0, 10.0])
        other.strengths()  # measured, so its arrays are sealed
        g.edges = other.edges
        s, t = _fresh(g)
        np.testing.assert_array_equal(g.strengths(), s)
        assert g.total_weight() == t == 31.5

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
        ids=["deepcopy", "pickle"],
    )
    def test_cloned_graph_recomputes(self, g, clone):
        g.strengths(), g.total_weight()
        c = clone(g)
        assert _writable(c) == [True] * 4
        c.edges.w[0] = 7.0
        c.self_weights[2] = 3.0
        s, t = _fresh(c)
        np.testing.assert_array_equal(c.strengths(), s)
        assert c.total_weight() == t != 8.5
        assert g.total_weight() == 8.5

    def test_copy_is_writable_and_recomputes(self, g):
        g.strengths(), g.total_weight()
        c = g.copy()
        assert _writable(c) == [True] * 4
        c.edges.w[0] = 7.0
        s, t = _fresh(c)
        np.testing.assert_array_equal(c.strengths(), s)
        assert c.total_weight() == t != 8.5

    def test_measuring_a_view_freezes_its_base(self):
        base = np.array([1.0, 0.0, 0.5, 9.0])
        g = make([0, 1, 0], [1, 2, 2], w=[1.0, 2.0, 4.0])
        g.self_weights = base[:3]
        assert g.total_weight() == 8.5
        with pytest.raises(ValueError, match="read-only"):
            base[0] = 2.0
        # Writing again through the base drops the cache.
        base.flags.writeable = True
        base[0] = 2.0
        assert g.total_weight() == 9.5

    def test_loaded_graph_is_measured_once(self, karate, tmp_path, monkeypatch):
        # np.load hands out views of arrays private to the loader.
        save_npz(karate, tmp_path / "g.npz")
        g = load_npz(tmp_path / "g.npz")
        calls = []
        real = EdgeList.strengths
        monkeypatch.setattr(
            EdgeList, "strengths", lambda self: calls.append(1) or real(self)
        )
        assert g.strengths() is g.strengths()
        assert len(calls) == 1

    def test_cache_excluded_from_repr_and_eq_fields(self, g):
        g.strengths()
        assert "_aggregates" not in repr(g)
        assert "_aggregates" not in [
            f.name for f in dataclasses.fields(g) if f.compare or f.init
        ]

    def test_guarded_detect_measures_each_graph_once(self, monkeypatch):
        # Strengths once per distinct graph: the engine's level-0 copy,
        # every contracted level and the guardian's bound input.  The
        # summary metrics then reuse the input's.
        g = planted_partition_graph(600, seed=3)
        calls = []
        real = EdgeList.strengths

        def spy(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(EdgeList, "strengths", spy)
        res = detect_communities(g, guardian=RunGuardian("sample"))
        assert len(calls) == res.n_levels + 2
        modularity(g, res.partition)
        coverage(g, res.partition)
        average_conductance(g, res.partition)
        assert len(calls) == res.n_levels + 2
