"""Unit tests for the parity-hashed bucketed edge list (§IV-A)."""

import numpy as np
import pytest

from repro.errors import InvariantViolation
from repro.graph.edgelist import EdgeList, parity_canonical
from repro.types import VERTEX_DTYPE


class TestParityCanonical:
    def test_same_parity_stores_min_first(self):
        first, second = parity_canonical(np.array([4]), np.array([2]))
        assert first[0] == 2 and second[0] == 4

    def test_same_parity_odd(self):
        first, second = parity_canonical(np.array([7]), np.array([3]))
        assert first[0] == 3 and second[0] == 7

    def test_mixed_parity_stores_max_first(self):
        first, second = parity_canonical(np.array([2]), np.array([5]))
        assert first[0] == 5 and second[0] == 2

    def test_mixed_parity_other_order(self):
        first, second = parity_canonical(np.array([5]), np.array([2]))
        assert first[0] == 5 and second[0] == 2

    def test_orientation_invariant(self):
        rng = np.random.default_rng(0)
        i = rng.integers(0, 100, 200)
        j = rng.integers(0, 100, 200)
        f1, s1 = parity_canonical(i, j)
        f2, s2 = parity_canonical(j, i)
        np.testing.assert_array_equal(f1, f2)
        np.testing.assert_array_equal(s1, s2)

    def test_scatters_hub_edges(self):
        """A hub's edges must land in multiple buckets, not one."""
        hub = np.zeros(10, dtype=np.int64)
        leaves = np.arange(1, 11, dtype=np.int64)
        first, _ = parity_canonical(hub, leaves)
        # Odd leaves store (leaf, hub): the hub does not own those edges.
        assert len(np.unique(first)) > 1


class TestFromRaw:
    def test_basic(self):
        e = EdgeList.from_raw(
            np.array([0, 1]), np.array([1, 2]), None, n_vertices=3
        )
        assert e.n_edges == 2
        assert e.n_vertices == 3
        e.validate()

    def test_duplicate_accumulation(self):
        e = EdgeList.from_raw(
            np.array([0, 1, 0]),
            np.array([1, 0, 1]),
            np.array([1.0, 2.0, 3.0]),
            n_vertices=2,
        )
        assert e.n_edges == 1
        assert e.w[0] == 6.0
        e.validate()

    def test_no_accumulate_keeps_duplicates_invalid(self):
        e = EdgeList.from_raw(
            np.array([0, 1]),
            np.array([1, 0]),
            None,
            n_vertices=2,
            accumulate=False,
        )
        with pytest.raises(InvariantViolation):
            e.validate()

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self loop"):
            EdgeList.from_raw(np.array([1]), np.array([1]), None, n_vertices=2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            EdgeList.from_raw(np.array([0]), np.array([5]), None, n_vertices=3)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            EdgeList.from_raw(np.array([0, 1]), np.array([1]), None, 3)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="weight"):
            EdgeList.from_raw(
                np.array([0]), np.array([1]), np.array([1.0, 2.0]), 2
            )

    def test_empty(self):
        e = EdgeList.from_raw(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), None, 5
        )
        assert e.n_edges == 0
        assert e.n_vertices == 5
        e.validate()

    def test_unit_weights_default(self):
        e = EdgeList.from_raw(np.array([0, 2]), np.array([1, 3]), None, 4)
        np.testing.assert_array_equal(e.w, [1.0, 1.0])


class TestBuckets:
    def test_bucket_contains_only_first_stored(self):
        rng = np.random.default_rng(1)
        i = rng.integers(0, 50, 300)
        j = rng.integers(0, 50, 300)
        keep = i != j
        e = EdgeList.from_raw(i[keep], j[keep], None, 50)
        for v in range(50):
            sl = e.bucket(v)
            assert np.all(e.ei[sl] == v)

    def test_buckets_tile_edge_array(self):
        rng = np.random.default_rng(2)
        i = rng.integers(0, 20, 100)
        j = rng.integers(0, 20, 100)
        keep = i != j
        e = EdgeList.from_raw(i[keep], j[keep], None, 20)
        total = int((e.bucket_end - e.bucket_start).sum())
        assert total == e.n_edges

    def test_bucket_out_of_range(self):
        e = EdgeList.from_raw(np.array([0]), np.array([1]), None, 2)
        with pytest.raises(IndexError):
            e.bucket(2)
        with pytest.raises(IndexError):
            e.bucket(-1)

    def test_edge_stored_exactly_once(self):
        e = EdgeList.from_raw(np.array([0, 1, 2]), np.array([1, 2, 0]), None, 3)
        # Each unordered pair appears in exactly one bucket.
        pairs = set()
        for v in range(3):
            sl = e.bucket(v)
            for a, b in zip(e.ei[sl], e.ej[sl]):
                pairs.add(frozenset((int(a), int(b))))
        assert len(pairs) == 3


class TestAccessors:
    def test_degrees(self):
        e = EdgeList.from_raw(np.array([0, 0, 1]), np.array([1, 2, 2]), None, 4)
        np.testing.assert_array_equal(e.degrees(), [2, 2, 2, 0])

    def test_strengths(self):
        e = EdgeList.from_raw(
            np.array([0, 1]), np.array([1, 2]), np.array([2.0, 3.0]), 3
        )
        np.testing.assert_allclose(e.strengths(), [2.0, 5.0, 3.0])

    def test_total_weight(self):
        e = EdgeList.from_raw(
            np.array([0, 1]), np.array([1, 2]), np.array([2.0, 3.0]), 3
        )
        assert e.total_weight() == 5.0

    def test_memory_words_matches_paper_accounting(self):
        e = EdgeList.from_raw(np.array([0, 1]), np.array([1, 2]), None, 3)
        assert e.memory_words() == 3 * 2 + 2 * 3

    def test_copy_is_deep(self):
        e = EdgeList.from_raw(np.array([0]), np.array([1]), None, 2)
        c = e.copy()
        c.w[0] = 99.0
        assert e.w[0] == 1.0


class TestValidate:
    def test_detects_parity_violation(self):
        e = EdgeList.from_raw(np.array([0]), np.array([2]), None, 3)
        e.ei, e.ej = e.ej.copy(), e.ei.copy()
        with pytest.raises(InvariantViolation, match="parity"):
            e.validate()

    def test_detects_self_loop(self):
        e = EdgeList.from_raw(np.array([0]), np.array([2]), None, 3)
        e.ej = e.ei.copy()
        with pytest.raises(InvariantViolation):
            e.validate()

    def test_detects_bad_bucket_sizes(self):
        e = EdgeList.from_raw(np.array([0, 2]), np.array([2, 4]), None, 5)
        e.bucket_end = e.bucket_end.copy()
        e.bucket_end[0] += 1
        with pytest.raises(InvariantViolation):
            e.validate()

    def test_detects_offsets_that_do_not_tile(self):
        # Sizes agree and offsets are in range, yet every bucket starts at
        # 0, so bucket(1) would hand out vertex 0's edge.
        e = EdgeList.from_raw(np.array([0, 1]), np.array([2, 3]), None, 5)
        counts = e.bucket_end - e.bucket_start
        e.bucket_start = np.zeros(5, dtype=VERTEX_DTYPE)
        e.bucket_end = counts.copy()
        with pytest.raises(InvariantViolation, match="tile"):
            e.validate()

    def test_detects_nonzero_offsets_on_empty_list(self):
        e = EdgeList.from_raw(
            np.empty(0, dtype=VERTEX_DTYPE), np.empty(0, dtype=VERTEX_DTYPE), None, 3
        )
        e.bucket_start = np.full(3, 4, dtype=VERTEX_DTYPE)
        e.bucket_end = e.bucket_start.copy()
        with pytest.raises(InvariantViolation, match="tile"):
            e.validate()

    def test_detects_length_mismatch(self):
        e = EdgeList.from_raw(np.array([0]), np.array([1]), None, 2)
        e.w = np.array([1.0, 2.0])
        with pytest.raises(InvariantViolation, match="length"):
            e.validate()

    def test_valid_empty(self):
        e = EdgeList.from_raw(
            np.empty(0, dtype=VERTEX_DTYPE), np.empty(0, dtype=VERTEX_DTYPE), None, 3
        )
        e.validate()
