"""Unit tests for the parity-hashed bucketed edge list (§IV-A)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import InvariantViolation
from repro.graph import edgelist
from repro.graph.edgelist import EdgeList, parity_canonical
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE
from repro.util.arrays import segment_starts


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

    @pytest.mark.parametrize("i, j", [([2], [-1]), ([-1], [2])])
    def test_rejects_negative_endpoint(self, i, j):
        with pytest.raises(ValueError, match="out of range"):
            EdgeList.from_raw(np.array(i), np.array(j), None, n_vertices=3)

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


def reference_from_raw(i, j, w, n, accumulate):
    """The construction ``from_raw`` replaced: both parity-ordered
    endpoint arrays, ``np.lexsort`` and a ``reduceat`` over the pairs."""
    first, second = parity_canonical(i, j)
    order = np.lexsort((second, first))
    first, second, w = first[order], second[order], w[order]
    if accumulate and len(first):
        starts = segment_starts(first * np.int64(n) + second)
        w = np.add.reduceat(w, starts)
        first, second = first[starts], second[starts]
    return EdgeList._from_grouped(first, second, w, n)


#: Weights whose sums are inexact in binary, so that a different
#: accumulation order shows in the bits.
WEIGHTS = [0.1, 0.2, 0.3, 1.0 / 3.0, 0.7, 1e-3, 2.5]


@st.composite
def raw_edges(draw):
    """Endpoint arrays without self loops, many pairs repeated in both
    orientations, and inexact float weights."""
    n = draw(st.sampled_from([2, 3, 17, 256, 257, 65_537, 3037000499]))
    m = draw(st.integers(0, 120))
    pool = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=12))
    ids = st.one_of(st.sampled_from(pool), st.integers(0, n - 1))
    i = draw(hnp.arrays(np.int64, m, elements=ids))
    j = draw(hnp.arrays(np.int64, m, elements=ids))
    keep = i != j
    i, j = i[keep], j[keep]
    if len(i):
        # Repeat some rows, half of them flipped.
        dup = draw(st.lists(st.integers(0, len(i) - 1), max_size=20))
        flip = draw(st.lists(st.booleans(), min_size=len(dup), max_size=len(dup)))
        a = np.where(flip, j[dup], i[dup]).astype(np.int64)
        b = np.where(flip, i[dup], j[dup]).astype(np.int64)
        i, j = np.concatenate([i, a]), np.concatenate([j, b])
    w = draw(hnp.arrays(np.float64, len(i), elements=st.sampled_from(WEIGHTS)))
    return i, j, w, n


def assert_edge_lists_identical(got, want):
    assert got.n_vertices == want.n_vertices
    for name in ("ei", "ej", "w", "bucket_start", "bucket_end"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


class TestFromRawEqualsLexsortBuild:
    """``from_raw`` sorts one packed key per edge and permutes only the
    weights; its arrays must equal the lexsort construction bit for bit."""

    @given(raw_edges(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, args, accumulate):
        i, j, w, n = args
        if n > 10**6:
            # Bucket offsets of 3 * 10**9 vertices do not fit in memory:
            # compare the sorted triples the two builds assemble.
            with mock.patch.object(
                EdgeList, "_from_grouped", side_effect=lambda *a: a
            ):
                got = EdgeList.from_raw(i, j, w, n, accumulate=accumulate)
                want = reference_from_raw(i, j, w, n, accumulate)
            for a, b in zip(got[:3], want[:3]):
                a = np.asarray(a, dtype=b.dtype)
                np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
            return
        got = EdgeList.from_raw(i, j, w, n, accumulate=accumulate)
        assert_edge_lists_identical(got, reference_from_raw(i, j, w, n, accumulate))
        if accumulate:
            got.validate()

    @given(raw_edges(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_lexsort_fallback_bit_identical(self, args, accumulate):
        # A key past int64 needs n above 3 * 10**9; lowering the limit
        # sends every build down the fallback instead.
        i, j, w, n = args
        if n > 10**6:
            return
        with mock.patch.object(edgelist, "INT64_MAX", -1):
            got = EdgeList.from_raw(i, j, w, n, accumulate=accumulate)
        assert_edge_lists_identical(got, reference_from_raw(i, j, w, n, accumulate))

    def test_duplicates_in_both_orientations_sum_in_input_order(self):
        i = np.array([3, 8, 3, 8, 4])
        j = np.array([8, 3, 8, 3, 1])
        w = np.array([0.1, 0.2, 0.3, 1.0 / 3.0, 0.7])
        got = EdgeList.from_raw(i, j, w, 9)
        assert_edge_lists_identical(got, reference_from_raw(i, j, w, 9, True))
        # (3, 8) is a mixed-parity pair, stored larger endpoint first.
        in_input_order = np.add.reduceat(w[:4], [0])[0]
        assert got.w[list(got.ei).index(8)] == in_input_order
        assert got.w.dtype == WEIGHT_DTYPE


@st.composite
def presorted_edges(draw):
    """A canonical list's arrays in stored order, and in half the draws
    some rows repeated next to themselves, half of those flipped."""
    i, j, w, n = draw(raw_edges().filter(lambda a: a[3] < 10**6))
    e = EdgeList.from_raw(i, j, w, n)
    i, j, w = e.ei, e.ej, e.w
    if len(i) and draw(st.booleans()):
        rows = np.array(sorted(draw(
            st.lists(st.integers(0, len(i) - 1), min_size=1, max_size=20)
        )))
        flip = np.array(draw(
            st.lists(st.booleans(), min_size=len(rows), max_size=len(rows))
        ))
        extra = draw(
            hnp.arrays(np.float64, len(rows), elements=st.sampled_from(WEIGHTS))
        )
        i, j, w = (
            np.insert(i, rows + 1, np.where(flip, j[rows], i[rows])),
            np.insert(j, rows + 1, np.where(flip, i[rows], j[rows])),
            np.insert(w, rows + 1, extra),
        )
    return i, j, w, n


class TestFromRawPresorted:
    """Strictly increasing keys skip the sort; the list built must equal
    the sort path's bit for bit."""

    @given(presorted_edges(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_skip_bit_identical_to_sort(self, args, accumulate):
        i, j, w, n = args
        got = EdgeList.from_raw(i, j, w, n, accumulate=accumulate)
        with mock.patch.object(edgelist, "strictly_increasing", return_value=False):
            want = EdgeList.from_raw(i, j, w, n, accumulate=accumulate)
        for name in ("ei", "ej", "w", "bucket_start", "bucket_end"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_skip_copies_the_weights(self):
        from repro.graph.graph import CommunityGraph

        i, j = np.array([0, 2, 3]), np.array([2, 1, 0])  # parity order
        w = np.array([0.1, 0.2, 0.3])
        with mock.patch.object(edgelist, "sort_keys", side_effect=AssertionError):
            e = EdgeList.from_raw(i, j, w, 4)
        assert not np.shares_memory(e.w, w)
        CommunityGraph(e).total_weight()  # freezes the graph's arrays
        assert w.flags.writeable


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

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_parity_verdict_equals_canonical_comparison(self, data):
        # Random orientations, or a canonical list with one edge flipped:
        # the check must reject exactly the lists whose endpoints differ
        # from their parity-canonical order.
        n = data.draw(st.integers(2, 40))
        m = data.draw(st.integers(1, 60))
        ids = hnp.arrays(np.int64, m, elements=st.integers(0, n - 1))
        i, j = data.draw(ids), data.draw(ids)
        keep = i != j
        if not keep.any():
            return
        e = EdgeList.from_raw(i[keep], j[keep], None, n)
        ei, ej = e.ei.copy(), e.ej.copy()
        if data.draw(st.booleans()):
            flip = data.draw(
                hnp.arrays(bool, len(ei), elements=st.booleans())
            )
        else:
            flip = np.zeros(len(ei), dtype=bool)
            flip[data.draw(st.integers(0, len(ei) - 1))] = True
        ei[flip], ej[flip] = e.ej[flip], e.ei[flip]
        first, second = parity_canonical(ei, ej)
        # validate checks the parity order before the grouping, which a
        # flipped edge may also break.
        flipped = EdgeList._from_grouped(ei, ej, e.w, n)
        if np.array_equal(first, ei) and np.array_equal(second, ej):
            flipped.validate()
        else:
            with pytest.raises(InvariantViolation, match="parity"):
                flipped.validate()

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
