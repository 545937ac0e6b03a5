"""Property tests for the sorted-key primitives and their callers.

Each fast path is compared with the NumPy call or the fold it replaced:
``pair_order`` with ``np.lexsort``, ``renumber_dense`` with
``np.unique(return_inverse=True)``, ``EdgeList.validate``'s duplicate
check with a ``np.unique`` count, and ``EdgeStore.apply`` with the
``unique`` + ``bincount`` fold kept below as the reference.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import InvariantViolation
from repro.graph.edgelist import EdgeList
from repro.stream import delta
from repro.stream.delta import WEIGHT_EPS, EdgeBatch, EdgeStore
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE
from repro.util.arrays import pair_order, renumber_dense, strictly_increasing

#: ``k`` on both sides of every 16-bit digit boundary of the fused key
#: (key bits 16, 32 and 48), of ``k = 2**16`` and ``2**32``, and of the
#: largest ``k`` whose ``k * k`` fits in int64.
BOUNDARY_K = [
    1, 2, 255, 256, 257,
    2**16 - 1, 2**16, 2**16 + 1,
    2**24 - 1, 2**24, 2**24 + 1,
    2**32 - 1, 2**32, 2**32 + 1,
    3037000499, 3037000500,
]


@st.composite
def pairs(draw):
    k = draw(st.one_of(st.sampled_from(BOUNDARY_K), st.integers(1, 2**40)))
    n = draw(st.integers(0, 80))
    # A small pool of values forces ties in first, in second and in both.
    pool = draw(
        st.lists(st.integers(0, k - 1), min_size=1, max_size=max(1, n // 3 + 1))
    )
    values = st.one_of(st.sampled_from(pool), st.integers(0, k - 1))
    first = draw(hnp.arrays(np.int64, n, elements=values))
    second = draw(hnp.arrays(np.int64, n, elements=values))
    return first, second, k


class TestPairOrder:
    @given(pairs())
    @settings(max_examples=300, deadline=None)
    def test_equals_lexsort(self, args):
        first, second, k = args
        got = pair_order(first, second, k)
        want = np.lexsort((second, first))
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("k", BOUNDARY_K)
    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_one_row(self, k, n):
        first = np.full(n, k - 1, dtype=np.int64)
        second = np.full(n, k // 2, dtype=np.int64)
        got = pair_order(first, second, k)
        np.testing.assert_array_equal(got, np.lexsort((second, first)))
        assert got.dtype == np.intp

    def test_all_ties_keep_input_order(self):
        first = np.full(70000, 3, dtype=np.int64)
        np.testing.assert_array_equal(
            pair_order(first, first, 2**20), np.arange(70000)
        )


class TestStrictlyIncreasing:
    @given(hnp.arrays(np.int64, st.integers(0, 40), elements=st.integers(-5, 5)))
    @settings(max_examples=150, deadline=None)
    def test_equals_sorted_and_unique(self, key):
        want = bool(np.array_equal(key, np.sort(key))) and len(
            np.unique(key)
        ) == len(key)
        assert strictly_increasing(key) == want


def _labels():
    small = st.integers(0, 60)
    return st.one_of(
        hnp.arrays(np.int64, st.integers(0, 60), elements=small),
        hnp.arrays(np.int64, st.integers(0, 60), elements=st.integers(-30, 30)),
        # Sparse: the maximum far above the length.
        hnp.arrays(
            np.int64, st.integers(0, 20), elements=st.integers(0, 2**40)
        ),
        hnp.arrays(np.uint32, st.integers(0, 40), elements=st.integers(0, 50)),
        hnp.arrays(
            np.float64,
            st.integers(0, 40),
            elements=st.sampled_from([0.0, 0.5, 1.0, -2.25, 7.0, 1e300]),
        ),
    )


class TestRenumberDense:
    @given(_labels())
    @settings(max_examples=300, deadline=None)
    def test_equals_unique_inverse(self, labels):
        got, k = renumber_dense(labels)
        uniq, inv = np.unique(labels, return_inverse=True)
        assert k == len(uniq)
        assert got.dtype == VERTEX_DTYPE
        np.testing.assert_array_equal(got, inv)


# ------------------------------------------------------------------ validate
@st.composite
def edge_lists(draw):
    """A canonical edge list, optionally shuffled within buckets and with
    duplicated pairs; offsets are rebuilt so that they tile."""
    n = draw(st.integers(2, 30))
    m = draw(st.integers(1, 90))
    i = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    j = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    keep = i != j
    e = EdgeList.from_raw(i[keep], j[keep], None, n)
    ei, ej, w = e.ei, e.ej, e.w
    if len(ei) and draw(st.booleans()):
        dup = draw(
            st.lists(st.integers(0, len(ei) - 1), min_size=1, max_size=4)
        )
        ei = np.concatenate([ei, ei[dup]])
        ej = np.concatenate([ej, ej[dup]])
        w = np.concatenate([w, w[dup]])
    # Regroup by first endpoint, in a drawn order inside each bucket.
    shuffle = draw(st.permutations(range(len(ei))))
    order = np.asarray(shuffle, dtype=np.intp)
    order = order[np.argsort(ei[order], kind="stable")]
    return EdgeList._from_grouped(ei[order], ej[order], w[order], n)


class TestValidateVerdict:
    @given(edge_lists())
    @settings(max_examples=200, deadline=None)
    def test_duplicate_verdict_matches_unique_count(self, e):
        key = e.ei * np.int64(e.n_vertices) + e.ej
        has_duplicates = len(np.unique(key)) != len(key)
        if has_duplicates:
            with pytest.raises(InvariantViolation, match="duplicate"):
                e.validate()
        else:
            e.validate()


# --------------------------------------------------------------- store apply
def reference_apply(store, batch):
    """The store fold before the merge: one ``np.unique`` over the store
    and batch keys, then one ``bincount`` (store rows first)."""
    n_new = max(
        store.n_vertices, int(max(int(batch.i.max()), int(batch.j.max()))) + 1
    )
    lo_b = np.minimum(batch.i, batch.j).astype(np.int64)
    hi_b = np.maximum(batch.i, batch.j).astype(np.int64)
    signed = batch.w * batch.op.astype(WEIGHT_DTYPE)
    keys = np.concatenate(
        [store.lo.astype(np.int64) * n_new + store.hi, lo_b * n_new + hi_b]
    )
    vals = np.concatenate([store.w, signed])
    uk, inv = np.unique(keys, return_inverse=True)
    acc = np.bincount(inv, weights=vals, minlength=len(uk))
    n_unmatched = int(np.count_nonzero(acc < -WEIGHT_EPS))
    kept = uk[acc > WEIGHT_EPS]
    out = EdgeStore(
        n_new,
        (kept // n_new).astype(VERTEX_DTYPE),
        (kept % n_new).astype(VERTEX_DTYPE),
        acc[acc > WEIGHT_EPS].astype(WEIGHT_DTYPE),
    )
    return out, n_unmatched


#: Weights whose sums are inexact in binary, so that a different
#: accumulation order shows in the bits.
WEIGHTS = [0.1, 0.2, 0.3, 1.0 / 3.0, 0.5, 1.0, 2.5, 1e-3]

#: ``EdgeStore.apply`` splices batches of up to ``_SPLICE_MAX_KEYS``
#: distinct keys and assembles wider ones through shared masks.  A
#: crossover of 0 sends every batch through the second, and one above
#: any batch through the first.
FORCED = {"vectorised": 0, "splice": 10**9}


def _distinct_keys(batch):
    lo = np.minimum(batch.i, batch.j)
    hi = np.maximum(batch.i, batch.j)
    return len(set(zip(lo.tolist(), hi.tolist())))


@st.composite
def batch_streams(draw):
    batches = []
    n = draw(st.integers(1, 12))
    for seq in range(1, draw(st.integers(1, 6)) + 1):
        # The vertex universe may grow with each batch.
        n += draw(st.integers(0, 4))
        if draw(st.integers(0, 4)) == 0:
            # About one batch in five is wider than the crossover: a few
            # hundred rows over at least 64 vertices, drawn by a seeded
            # generator so that most of their keys are distinct.
            n = max(n, 64)
            rows = draw(st.integers(300, 700))
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            i = rng.integers(0, n, rows).tolist()
            j = rng.integers(0, n, rows).tolist()
            w = rng.choice(WEIGHTS, rows).tolist()
            op = rng.choice([1, 1, -1], rows).tolist()
        else:
            rows = draw(st.integers(1, 24))
            pool = st.integers(0, n - 1)
            i = draw(st.lists(pool, min_size=rows, max_size=rows))
            j = draw(st.lists(pool, min_size=rows, max_size=rows))
            w = draw(
                st.lists(st.sampled_from(WEIGHTS), min_size=rows, max_size=rows)
            )
            op = draw(
                st.lists(st.sampled_from([1, 1, -1]), min_size=rows, max_size=rows)
            )
        if draw(st.booleans()):
            # Repeat rows in the same batch, with the opposite op: inserts
            # and deletes that cancel, and deletes that over-delete.
            extra = draw(st.lists(st.integers(0, rows - 1), max_size=6))
            i += [i[r] for r in extra]
            j += [j[r] for r in extra]
            w += [w[r] for r in extra]
            op += [-op[r] for r in extra]
        batches.append(EdgeBatch(seq=seq, i=i, j=j, w=w, op=op))
    return batches


def apply_and_compare(store, ref, batch):
    """Apply ``batch`` to ``store`` and return the reference's next state,
    after checking that the two agree bit for bit and that the arrays the
    store held before the batch still hold the same bytes."""
    held = (store.lo, store.hi, store.w)
    before = [a.tobytes() for a in held]
    ref, want_unmatched = reference_apply(ref, batch)
    stats = store.apply(batch)
    assert [a.tobytes() for a in held] == before
    assert stats.n_unmatched_deletes == want_unmatched
    assert store.n_vertices == ref.n_vertices
    np.testing.assert_array_equal(store.lo, ref.lo)
    np.testing.assert_array_equal(store.hi, ref.hi)
    assert store.lo.dtype == store.hi.dtype == VERTEX_DTYPE
    assert store.w.dtype == WEIGHT_DTYPE
    np.testing.assert_array_equal(store.w.view(np.uint64), ref.w.view(np.uint64))
    store.validate()
    return ref


def _events(seq, rows):
    i, j, w, op = zip(*rows)
    return EdgeBatch(seq=seq, i=i, j=j, w=w, op=op)


def fold_and_compare(batches, crossover):
    store, ref = EdgeStore.empty(), EdgeStore.empty()
    with mock.patch.object(delta, "_SPLICE_MAX_KEYS", crossover):
        for batch in batches:
            ref = apply_and_compare(store, ref, batch)
    return store


class TestStoreApply:
    @given(batch_streams())
    @settings(max_examples=300, deadline=None)
    def test_equals_unique_bincount_fold(self, batches):
        fold_and_compare(batches, delta._SPLICE_MAX_KEYS)

    @pytest.mark.parametrize("assembly", sorted(FORCED))
    @given(batches=batch_streams())
    @settings(max_examples=150, deadline=None)
    def test_each_assembly_equals_unique_bincount_fold(self, assembly, batches):
        fold_and_compare(batches, FORCED[assembly])

    def test_streams_draw_batches_wider_than_the_crossover(self):
        find(
            batch_streams(),
            lambda bs: any(
                _distinct_keys(b) > delta._SPLICE_MAX_KEYS for b in bs
            ),
            settings=settings(max_examples=200, database=None),
        )

    def test_named_cases_equal_reference(self):
        events = [
            # Repeated keys in one batch, in both orientations.
            [(0, 1, 0.1, 1), (1, 0, 0.2, 1), (0, 1, 0.3, 1), (2, 3, 0.1, 1),
             (4, 5, 0.2, 1), (6, 6, 1.0, 1)],
            # A delete that cancels, an over-delete, a self loop, and an
            # insert and delete of one new key in the same batch.
            [(3, 2, 0.1, -1), (4, 5, 0.5, -1), (6, 6, 1.0 / 3.0, 1),
             (7, 8, 0.3, 1), (8, 7, 0.3, -1)],
            # The vertex universe grows, and a key is deleted below zero.
            [(40, 1, 2.5, 1), (9, 9, 1e-3, -1), (0, 1, 0.6, -1)],
        ]
        batches = [_events(seq, rows) for seq, rows in enumerate(events, 1)]
        ref, unmatched = EdgeStore.empty(), []
        for batch in batches:
            ref, want = reference_apply(ref, batch)
            unmatched.append(want)
        assert unmatched == [0, 1, 1]
        for crossover in [delta._SPLICE_MAX_KEYS, *FORCED.values()]:
            store = fold_and_compare(batches, crossover)
            assert store.equals(ref) and store.n_vertices == 41

    #: A base store of five rows, then one batch each.
    BASE = [(1, 2, 0.5, 1), (1, 4, 1.0, 1), (2, 3, 0.1, 1), (3, 3, 2.5, 1),
            (4, 6, 0.3, 1)]
    SPLICES = {
        # (1, 3) goes before row (1, 4), which the same batch drops.
        "delete-and-insert-at-one-row": [(4, 1, 1.0, -1), (1, 3, 0.2, 1)],
        "insert-before-first-and-after-last-row": [
            (0, 0, 0.1, 1), (0, 5, 0.2, 1), (6, 5, 1.0 / 3.0, 1)],
        "drop-every-row": [(1, 2, 0.5, -1), (4, 1, 1.0, -1), (2, 3, 0.1, -1),
                           (3, 3, 2.5, -1), (6, 4, 0.3, -1)],
        "update-only": [(2, 1, 0.2, 1), (3, 3, 0.3, -1), (6, 4, 0.1, 1)],
        # (1, 3) goes before row (1, 4), whose weight the batch updates.
        "insert-before-an-updated-row": [(1, 3, 0.2, 1), (1, 4, 0.5, 1)],
        "only-new-vertices": [(9, 8, 0.3, 1), (7, 7, 0.1, 1), (12, 7, 0.2, 1)],
    }

    @pytest.mark.parametrize("assembly", sorted(FORCED))
    @pytest.mark.parametrize("case", sorted(SPLICES))
    def test_change_points(self, assembly, case):
        batches = [_events(1, self.BASE), _events(2, self.SPLICES[case])]
        store = fold_and_compare(batches, FORCED[assembly])
        rows = {"drop-every-row": 0, "update-only": 5}.get(case)
        if rows is not None:
            assert store.n_edges == rows

    def test_touched_vertices_sorted_unique(self):
        batch = EdgeBatch.inserts(1, [5, 0, 5, 9], [0, 5, 9, 9])
        np.testing.assert_array_equal(batch.touched_vertices(), [0, 5, 9])
        empty = EdgeBatch.inserts(1, [], [])
        assert empty.touched_vertices().dtype == VERTEX_DTYPE
        assert len(empty.touched_vertices()) == 0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_touched_vertices_equal_unique(self, data):
        # Dense ids (the largest near the id count, repeats likely) and
        # sparse ones (the largest far above it).
        m = data.draw(st.integers(1, 60))
        top = data.draw(st.sampled_from([0, m, 2 * 2 * m, 10**6]))
        ids = hnp.arrays(np.int64, m, elements=st.integers(0, top))
        i, j = data.draw(ids), data.draw(ids)
        if data.draw(st.booleans()):
            i[0] = top
        got = EdgeBatch.inserts(1, i, j).touched_vertices()
        np.testing.assert_array_equal(got, np.unique(np.concatenate([i, j])))
        assert got.dtype == VERTEX_DTYPE
