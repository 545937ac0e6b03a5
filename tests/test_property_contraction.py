"""Property-based tests for contraction: weight conservation, modularity
delta exactness, dendrogram/partition consistency, and the fused-key
sort against the reference at the radix digit boundaries."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    ModularityScorer,
    MatchingResult,
    contract,
    contract_hash_chains,
    contraction,
    match_locally_dominant,
)
from repro.graph import from_edges
from repro.metrics import Partition, community_graph_modularity, modularity
from repro.reference import contract_ref
from repro.types import NO_VERTEX


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 30))
    m = draw(st.integers(1, 90))
    i = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    j = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    w = draw(
        hnp.arrays(np.float64, m, elements=st.floats(0.5, 10.0, allow_nan=False))
    )
    return from_edges(i, j, w, n_vertices=n)


class TestContractionProperties:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_weight_conserved_and_valid(self, g):
        scores = ModularityScorer().score(g)
        matching = match_locally_dominant(g, scores)
        new, mapping = contract(g, matching)
        new.validate()
        assert abs(new.total_weight() - g.total_weight()) < 1e-6 * max(
            1.0, g.total_weight()
        )

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_modularity_delta_exact(self, g):
        scores = ModularityScorer().score(g)
        matching = match_locally_dominant(g, scores)
        before = community_graph_modularity(g)
        new, _ = contract(g, matching)
        after = community_graph_modularity(new)
        gained = float(scores[matching.matched_edges].sum())
        assert abs((after - before) - gained) < 1e-9

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_hash_chain_equivalence(self, g):
        scores = ModularityScorer().score(g)
        matching = match_locally_dominant(g, scores)
        a, map_a = contract(g, matching)
        b, map_b = contract_hash_chains(g, matching)
        np.testing.assert_array_equal(map_a, map_b)
        np.testing.assert_array_equal(a.edges.w, b.edges.w)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_contracted_modularity_matches_partition_view(self, g):
        """Closed-form modularity of the contracted graph must equal the
        partition modularity on the original graph."""
        scores = ModularityScorer().score(g)
        matching = match_locally_dominant(g, scores)
        new, mapping = contract(g, matching)
        p = Partition.from_labels(mapping)
        assert abs(
            community_graph_modularity(new) - modularity(g, p)
        ) < 1e-9

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_vertex_count_arithmetic(self, g):
        scores = ModularityScorer().score(g)
        matching = match_locally_dominant(g, scores)
        new, mapping = contract(g, matching)
        assert new.n_vertices == g.n_vertices - matching.n_pairs
        assert mapping.max() == new.n_vertices - 1


# ------------------------------------------------- fused key vs reference
#: Community counts on either side of the radix sort's digit boundaries:
#: one 16-bit digit up to k = 256, two up to 65,536 and three above.
RADIX_KS = [0, 1, 2, 255, 256, 257, 65535, 65536, 65537]
#: Weights whose sums are exact in any order, so the kernel and the
#: reference must agree bit for bit.
EXACT_WEIGHTS = np.array([0.5, 1.0, 2.0, 3.0])


@st.composite
def level_with_k_communities(draw, loops):
    """A graph and a matching that contracts it to ``k`` vertices.

    ``loops`` shapes the edges: ``"none"`` puts no edge inside a matched
    pair, ``"only"`` puts every edge inside one, ``"mixed"`` draws both.
    """
    k = draw(st.sampled_from(RADIX_KS))
    n_pairs = draw(st.integers(int(loops == "only" and k > 0), min(k, 40)))
    n = k + n_pairs
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = rng.permutation(n)[: 2 * n_pairs].reshape(n_pairs, 2)
    partner = np.full(n, NO_VERTEX, dtype=np.int64)
    partner[pairs[:, 0]] = pairs[:, 1]
    partner[pairs[:, 1]] = pairs[:, 0]
    m = draw(st.integers(0, 150))
    if loops == "only":
        i, j = pairs[rng.integers(0, max(n_pairs, 1), m if n_pairs else 0)].T
    else:
        i, j = rng.integers(0, max(n, 1), (2, m if n > 1 else 0))
        v = np.arange(n)
        group = np.where(partner == NO_VERTEX, v, np.minimum(v, partner))
        cut = (i != j) & (group[i] != group[j])
        if loops == "none":
            i, j = i[cut], j[cut]
        elif n_pairs:
            extra = pairs[rng.integers(0, n_pairs, m // 4)].T
            i, j = np.concatenate([i, extra[0]]), np.concatenate([j, extra[1]])
    g = from_edges(i, j, rng.choice(EXACT_WEIGHTS, len(i)), n_vertices=n)
    g.self_weights[:] = rng.choice(EXACT_WEIGHTS, n)
    matching = MatchingResult(
        partner=partner,
        matched_edges=np.empty(0, dtype=np.int64),
        passes=0,
        failed_claims=0,
    )
    return g, matching, k


def _assert_equals_reference(g, matching, k):
    fast, map_fast = contract(g, matching)
    slow, map_slow = contract_ref(g, matching)
    assert fast.n_vertices == slow.n_vertices == k
    np.testing.assert_array_equal(map_fast, map_slow)
    for name in ("ei", "ej", "w", "bucket_start", "bucket_end"):
        a, b = getattr(fast.edges, name), getattr(slow.edges, name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(fast.self_weights, slow.self_weights)
    fast.validate()
    return fast


class TestFusedKeyContraction:
    @given(level_with_k_communities("none"))
    @settings(max_examples=40, deadline=None)
    def test_no_loops_equals_reference(self, args):
        g, matching, k = args
        fast = _assert_equals_reference(g, matching, k)
        # every edge survives as a cross edge
        np.testing.assert_array_equal(
            fast.self_weights.sum(), g.self_weights.sum()
        )

    @given(level_with_k_communities("only"))
    @settings(max_examples=40, deadline=None)
    def test_only_loops_equals_reference(self, args):
        fast = _assert_equals_reference(*args)
        assert fast.n_edges == 0

    @given(level_with_k_communities("mixed"))
    @settings(max_examples=40, deadline=None)
    def test_mixed_equals_reference(self, args):
        _assert_equals_reference(*args)

    @given(level_with_k_communities("mixed"))
    @settings(max_examples=25, deadline=None)
    def test_lexsort_fallback_equals_reference(self, args):
        # A key past int64 needs k above 3 * 10**9; lowering the limit
        # sends every level down the fallback instead.
        with mock.patch.object(contraction, "INT64_MAX", -1):
            _assert_equals_reference(*args)

    @pytest.mark.parametrize("k", [0, 1])
    def test_empty_and_single_vertex(self, k):
        g = from_edges(
            np.empty(0, np.int64), np.empty(0, np.int64), None, n_vertices=k
        )
        matching = MatchingResult(
            partner=np.full(k, NO_VERTEX, dtype=np.int64),
            matched_edges=np.empty(0, dtype=np.int64),
            passes=0,
            failed_claims=0,
        )
        _assert_equals_reference(g, matching, k)
