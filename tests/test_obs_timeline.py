"""Unit and integration tests for the per-level quality timeline."""

import numpy as np
import pytest

from repro.core import detect_communities
from repro.generators import planted_partition_graph
from repro.metrics import coverage, modularity
from repro.obs import (
    NULL_TIMELINE,
    NullTimeline,
    QualityTimeline,
    as_timeline,
)
from repro.obs.timeline import (
    SIZE_HISTOGRAM_EDGES,
    TIMELINE_SCHEMA_VERSION,
    LevelQuality,
)


class TestRecordLevel:
    def test_sample_fields(self):
        tl = QualityTimeline()
        s = tl.record_level(
            level=0,
            n_vertices_entering=100,
            n_pairs=40,
            matching_passes=3,
            n_communities=60,
            modularity=0.25,
            coverage=0.4,
            member_counts=np.array([1, 2, 4, 1]),
        )
        assert s.level == 0
        assert s.n_communities == 60
        assert s.merge_fraction == pytest.approx(0.4)
        assert s.mirror_coverage == pytest.approx(0.6)
        assert s.matching_passes == 3
        assert tl.n_levels == 1
        assert tl.final is s

    def test_size_histogram_shape(self):
        tl = QualityTimeline()
        s = tl.record_level(
            level=0,
            n_vertices_entering=10,
            n_pairs=2,
            matching_passes=1,
            n_communities=8,
            modularity=0.0,
            coverage=0.0,
            member_counts=np.array([1, 1, 2, 3, 5, 8]),
        )
        h = s.community_sizes
        assert h["edges"] == list(SIZE_HISTOGRAM_EDGES)
        assert len(h["counts"]) == len(SIZE_HISTOGRAM_EDGES) + 1
        assert h["total"] == 6
        assert h["sum"] == 20.0
        assert h["max"] == 8

    def test_empty_entering_vertices(self):
        tl = QualityTimeline()
        s = tl.record_level(
            level=0,
            n_vertices_entering=0,
            n_pairs=0,
            matching_passes=0,
            n_communities=0,
            modularity=0.0,
            coverage=1.0,
            member_counts=np.array([]),
        )
        assert s.merge_fraction == 0.0
        assert s.community_sizes["max"] == 0

    def test_empty_timeline(self):
        tl = QualityTimeline()
        assert tl.final is None
        assert tl.n_levels == 0
        assert tl.as_dict()["levels"] == []


class TestRoundTrip:
    def test_dict_round_trip(self):
        tl = QualityTimeline()
        for lvl in range(3):
            tl.record_level(
                level=lvl,
                n_vertices_entering=100 >> lvl,
                n_pairs=30 >> lvl,
                matching_passes=lvl + 1,
                n_communities=70 >> lvl,
                modularity=0.1 * lvl,
                coverage=0.2 * lvl,
                member_counts=np.arange(1, 5),
            )
        d = tl.as_dict()
        assert d["version"] == TIMELINE_SCHEMA_VERSION
        tl2 = QualityTimeline.from_dict(d)
        assert tl2.levels == tl.levels
        assert isinstance(tl2.final, LevelQuality)

    def test_from_dict_rejects_bad_version(self):
        with pytest.raises(ValueError, match="version"):
            QualityTimeline.from_dict({"version": 999, "levels": []})


class TestNullTimeline:
    def test_noop(self):
        nt = NullTimeline()
        assert nt.record_level(level=0) is None
        assert nt.final is None
        assert nt.levels == ()
        assert nt.as_dict()["levels"] == []
        assert not nt.enabled

    def test_as_timeline(self):
        assert as_timeline(None) is NULL_TIMELINE
        tl = QualityTimeline()
        assert as_timeline(tl) is tl


class TestDetectIntegration:
    def test_timeline_matches_level_stats(self):
        graph = planted_partition_graph(500, seed=7)
        tl = QualityTimeline()
        result = detect_communities(graph, timeline=tl)
        assert tl.n_levels == result.n_levels > 0
        for sample, stats in zip(tl.levels, result.levels):
            assert sample.level == stats.level
            assert sample.modularity == stats.modularity_after
            assert sample.coverage == stats.coverage_after
            assert sample.mirror_coverage == pytest.approx(
                1.0 - stats.coverage_after
            )
            assert sample.matching_passes == stats.matching_passes
            assert sample.merge_fraction == pytest.approx(
                stats.n_pairs / stats.n_vertices
            )
        # The final sample describes the returned partition.
        final = tl.final
        assert final.n_communities == result.n_communities
        assert final.modularity == pytest.approx(
            modularity(graph, result.partition), abs=1e-9
        )
        assert final.coverage == pytest.approx(
            coverage(graph, result.partition), abs=1e-9
        )

    def test_community_sizes_sum_to_input_vertices(self):
        graph = planted_partition_graph(300, seed=3)
        tl = QualityTimeline()
        detect_communities(graph, timeline=tl)
        for sample in tl.levels:
            h = sample.community_sizes
            assert h["sum"] == graph.n_vertices
            assert h["total"] == sample.n_communities

    def test_default_is_null_timeline(self):
        graph = planted_partition_graph(200, seed=1)
        result = detect_communities(graph)  # must not record anything
        assert result.n_levels > 0


class TestTunerField:
    def test_pre_tuner_dict_still_loads(self):
        # A timeline serialized before the tuner field existed has no
        # "tuner" key per level, the same as one written today.
        tl = QualityTimeline()
        tl.record_level(
            level=0,
            n_vertices_entering=10,
            n_pairs=2,
            matching_passes=1,
            n_communities=8,
            modularity=0.1,
            coverage=0.3,
            member_counts=np.array([1, 1, 2]),
        )
        d = tl.as_dict()
        assert all("tuner" not in lvl for lvl in d["levels"])
        tl2 = QualityTimeline.from_dict(d)
        assert tl2.levels == tl.levels


class TestOldTimelines:
    def test_committed_kernel_ledger_timelines_load(self):
        # The retired kernel-shootout ledger (BENCH_kernels.json) was
        # written while every level carried a "tuner" key; these are its
        # first two levels of repetition 0.  from_dict drops that key
        # and no other.
        def level(i, counts, cov, passes, frac, mod, n):
            return {
                "community_sizes": {
                    "counts": counts + [0] * (22 - len(counts)),
                    "edges": [float(2**k) for k in range(21)],
                    "max": 2 ** i * 2,
                    "sum": 999.0,
                    "total": n,
                },
                "coverage": cov,
                "level": i,
                "matching_passes": passes,
                "merge_fraction": frac,
                "mirror_coverage": 1.0 - cov,
                "modularity": mod,
                "n_communities": n,
                "tuner": None,
            }

        quality = {
            "version": 1,
            "levels": [
                level(0, [69, 465], 0.20224719101123595, 9,
                      0.46546546546546547, 0.19806222672902474, 534),
                level(1, [20, 28, 243], 0.26270151441133366, 7,
                      0.4550561797752809, 0.25513911567418235, 291),
            ],
        }
        levels = quality["levels"]
        tl = QualityTimeline.from_dict(quality)
        assert tl.n_levels == len(levels) == 2
        assert tl.final.modularity == levels[-1]["modularity"]
        assert tl.final.n_communities == 291
        levels[0]["wibble"] = 1
        with pytest.raises(TypeError):
            QualityTimeline.from_dict(quality)
