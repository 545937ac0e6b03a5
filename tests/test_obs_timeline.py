"""Unit and integration tests for the per-level quality timeline."""

import numpy as np
import pytest

from repro.core import detect_communities
from repro.core.dendrogram import Dendrogram
from repro.core.engine import AgglomerationResult, LevelStats
from repro.core.termination import TerminationCriteria
from repro.generators import planted_partition_graph
from repro.metrics import coverage, modularity
from repro.obs import QualityTimeline
from repro.obs.timeline import (
    SIZE_HISTOGRAM_EDGES,
    TIMELINE_SCHEMA_VERSION,
    LevelQuality,
)
from repro.types import VERTEX_DTYPE


def _result(n_vertices, levels):
    """An AgglomerationResult from ``(mapping, stats kwargs)`` per level."""
    dendrogram = Dendrogram(n_vertices)
    stats = []
    for k, (mapping, kw) in enumerate(levels):
        dendrogram.push(np.asarray(mapping, dtype=VERTEX_DTYPE))
        fields = dict(
            n_edges=0,
            n_positive_scores=0,
            modularity_after=0.0,
            coverage_after=0.0,
        )
        fields.update(kw)
        stats.append(LevelStats(level=k, **fields))
    return AgglomerationResult(
        partition=dendrogram.final_partition(),
        dendrogram=dendrogram,
        levels=stats,
    )


class TestFromResult:
    def test_sample_fields(self):
        result = _result(
            100,
            [
                (
                    # 40 pairs among the first 80 vertices, 20 singletons
                    np.r_[np.arange(80) // 2, np.arange(40, 60)],
                    dict(
                        n_vertices=100,
                        n_pairs=40,
                        matching_passes=3,
                        modularity_after=0.25,
                        coverage_after=0.4,
                    ),
                )
            ],
        )
        tl = QualityTimeline.from_result(result)
        s = tl.levels[0]
        assert s.level == 0
        assert s.n_communities == 60
        assert s.modularity == 0.25
        assert s.coverage == 0.4
        assert s.merge_fraction == pytest.approx(0.4)
        assert s.mirror_coverage == pytest.approx(0.6)
        assert s.matching_passes == 3
        assert tl.n_levels == 1
        assert tl.final is s

    def test_size_histogram_shape(self):
        # Two levels: 20 vertices -> 6 communities -> 3; sizes fold
        # through both maps.
        level0 = [0] * 8 + [1] * 5 + [2] * 3 + [3, 3, 4, 5]
        level1 = [0, 1, 1, 2, 2, 0]
        result = _result(
            20,
            [
                (level0, dict(n_vertices=20, n_pairs=7, matching_passes=1)),
                (level1, dict(n_vertices=6, n_pairs=3, matching_passes=2)),
            ],
        )
        tl = QualityTimeline.from_result(result)
        first, last = tl.levels
        assert first.n_communities == 6
        assert first.community_sizes["max"] == 8
        h = last.community_sizes
        assert last.n_communities == 3
        assert h["edges"] == list(SIZE_HISTOGRAM_EDGES)
        assert len(h["counts"]) == len(SIZE_HISTOGRAM_EDGES) + 1
        assert h["total"] == 3
        assert h["sum"] == 20.0
        assert h["max"] == 9  # 8 + 1 (communities 0 and 5)

    def test_empty_entering_vertices(self):
        result = _result(0, [([], dict(n_vertices=0, n_pairs=0,
                                       matching_passes=0))])
        s = QualityTimeline.from_result(result).levels[0]
        assert s.merge_fraction == 0.0
        assert s.n_communities == 0
        assert s.community_sizes["max"] == 0

    def test_empty_timeline(self):
        for tl in (
            QualityTimeline(),
            QualityTimeline.from_result(_result(4, [])),
        ):
            assert tl.final is None
            assert tl.n_levels == 0
            assert tl.as_dict()["levels"] == []


class TestRoundTrip:
    def test_dict_round_trip(self):
        result = detect_communities(planted_partition_graph(300, seed=2))
        tl = QualityTimeline.from_result(result)
        assert tl.n_levels == result.n_levels > 1
        d = tl.as_dict()
        assert d["version"] == TIMELINE_SCHEMA_VERSION
        tl2 = QualityTimeline.from_dict(d)
        assert tl2.levels == tl.levels
        assert isinstance(tl2.final, LevelQuality)

    def test_from_dict_rejects_bad_version(self):
        with pytest.raises(ValueError, match="version"):
            QualityTimeline.from_dict({"version": 999, "levels": []})


class TestDetectIntegration:
    def test_timeline_matches_level_stats(self):
        graph = planted_partition_graph(500, seed=7)
        result = detect_communities(graph)
        tl = QualityTimeline.from_result(result)
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
        result = detect_communities(graph)
        for sample in QualityTimeline.from_result(result).levels:
            h = sample.community_sizes
            assert h["sum"] == graph.n_vertices
            assert h["total"] == sample.n_communities

    @pytest.mark.parametrize("interrupt_after", [1, 3])
    def test_resumed_run_timeline_equals_uninterrupted(
        self, tmp_path, interrupt_after
    ):
        # The result of a resumed run holds the levels it restored, so
        # its timeline covers the whole run, not just the levels this
        # process executed.
        graph = planted_partition_graph(500, seed=7)
        full = QualityTimeline.from_result(detect_communities(graph))
        assert full.n_levels > interrupt_after
        ckpt = tmp_path / f"ckpt{interrupt_after}"
        detect_communities(
            graph,
            termination=TerminationCriteria(max_levels=interrupt_after),
            checkpoint_dir=ckpt,
        )
        resumed = detect_communities(graph, checkpoint_dir=ckpt, resume=True)
        assert resumed.recovery.resumed_from_level == interrupt_after
        timeline = QualityTimeline.from_result(resumed)
        assert timeline.levels == full.levels
        assert timeline.as_dict() == full.as_dict()


class TestTunerField:
    def test_pre_tuner_dict_still_loads(self):
        # A timeline serialized before the tuner field existed has no
        # "tuner" key per level, the same as one written today.
        tl = QualityTimeline.from_result(
            _result(
                10,
                [
                    (
                        [0, 0, 1, 1, 2, 3, 4, 5, 6, 7],
                        dict(
                            n_vertices=10,
                            n_pairs=2,
                            matching_passes=1,
                            modularity_after=0.1,
                            coverage_after=0.3,
                        ),
                    )
                ],
            )
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
