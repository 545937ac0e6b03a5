"""Unit tests for the merge dendrogram."""

import numpy as np
import pytest

from repro import TerminationCriteria, detect_communities
from repro.core import Dendrogram
from repro.metrics import Partition


class TestDendrogram:
    def test_empty(self):
        d = Dendrogram(5)
        assert d.n_levels == 0
        np.testing.assert_array_equal(d.labels_at(0), np.arange(5))
        assert d.communities_at(0) == 5

    def test_push_and_compose(self):
        d = Dendrogram(4)
        d.push(np.array([0, 0, 1, 1]))  # 4 -> 2
        d.push(np.array([0, 0]))  # 2 -> 1
        assert d.n_levels == 2
        np.testing.assert_array_equal(d.labels_at(1), [0, 0, 1, 1])
        np.testing.assert_array_equal(d.labels_at(2), [0, 0, 0, 0])
        assert d.communities_at(2) == 1

    def test_wrong_length_rejected(self):
        d = Dendrogram(4)
        with pytest.raises(ValueError, match="covers"):
            d.push(np.array([0, 0, 1]))

    def test_non_shrinking_rejected(self):
        d = Dendrogram(2)
        with pytest.raises(ValueError, match="shrink"):
            d.push(np.array([0, 2]))

    def test_level_out_of_range(self):
        d = Dendrogram(3)
        with pytest.raises(IndexError):
            d.labels_at(1)
        with pytest.raises(IndexError):
            d.communities_at(-1)

    def test_partition_at(self):
        d = Dendrogram(3)
        d.push(np.array([0, 1, 0]))
        p = d.partition_at(1)
        assert p.n_communities == 2

    def test_from_driver_levels_consistent(self, karate):
        res = detect_communities(
            karate, termination=TerminationCriteria.local_maximum()
        )
        d = res.dendrogram
        assert d.n_levels == res.n_levels
        # Community counts along the dendrogram match the level stats.
        for k, stats in enumerate(res.levels):
            assert d.communities_at(k) == stats.n_vertices
        assert d.final_partition() == res.partition

    def test_intermediate_partitions_valid(self, cliques):
        res = detect_communities(
            cliques, termination=TerminationCriteria.local_maximum()
        )
        for lvl in range(res.n_levels + 1):
            p = res.dendrogram.partition_at(lvl)
            assert p.n_vertices == cliques.n_vertices


def _shrinking_maps(n, seed=0):
    """A chain of random contraction maps from ``n`` communities down to 1."""
    rng = np.random.default_rng(seed)
    maps = []
    while n > 1:
        k = max(1, n // 2)
        targets = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        maps.append(rng.permutation(targets))
        n = k
    return maps


class TestNewestLabels:
    def test_final_partition_matches_composition_after_every_push(self):
        d = Dendrogram(40)
        assert d.final_partition() == Partition(d.labels_at(0))
        for mapping in _shrinking_maps(40):
            d.push(mapping)
            composed = np.arange(40)
            for m in d.maps:
                composed = m[composed]
            assert d.final_partition() == Partition(composed)
            assert d.final_partition() == Partition(d.labels_at(d.n_levels))

    def test_earlier_partition_unchanged_by_later_pushes(self):
        maps = _shrinking_maps(40)
        d = Dendrogram(40)
        d.push(maps[0])
        early = d.final_partition()
        before = early.labels.copy()
        for mapping in maps[1:]:
            d.push(mapping)
        np.testing.assert_array_equal(early.labels, before)
        assert d.final_partition().n_communities == 1

    def test_caller_writes_cannot_reach_the_newest_labels(self):
        d = Dendrogram(40)
        maps = _shrinking_maps(40)
        d.push(maps[0])
        expected = d.final_partition().labels.copy()
        with pytest.raises(ValueError, match="read-only"):
            d.final_partition().labels[0] = 1
        labels = d.labels_at(d.n_levels)
        labels[:] = 0
        np.testing.assert_array_equal(d.final_partition().labels, expected)
        d.push(maps[1])
        np.testing.assert_array_equal(d.labels_at(2), maps[1][expected])

    def test_rebuilt_dendrogram_agrees(self):
        d = Dendrogram(40)
        for mapping in _shrinking_maps(40, seed=1):
            d.push(mapping)
        rebuilt = Dendrogram(40)
        for mapping in d.maps:
            rebuilt.push(mapping)
        from_maps = Dendrogram(40, maps=list(d.maps))
        for other in (rebuilt, from_maps):
            assert other.final_partition() == d.final_partition()
            for lvl in range(d.n_levels + 1):
                np.testing.assert_array_equal(
                    other.labels_at(lvl), d.labels_at(lvl)
                )
