"""Tests for level-granular checkpoint/resume of the agglomeration loop."""

import numpy as np
import pytest

from repro.core import detect_communities
from repro.core.termination import TerminationCriteria
from repro.errors import CheckpointError
from repro.generators import planted_partition_graph, rmat_graph
from repro.resilience import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointManager,
    CheckpointState,
    quarantine_file,
    truncate_file,
)
from repro.types import VERTEX_DTYPE


def _state_for(graph, level=0, maps=None):
    return CheckpointState(
        level=level,
        graph=graph,
        maps=maps or [],
        member_counts=np.ones(graph.n_vertices, dtype=VERTEX_DTYPE),
        level_stats=[{"level": k} for k in range(level)],
        scorer_name="modularity",
    )


class TestSaveLoad:
    def test_round_trip(self, karate, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = manager.save(_state_for(karate))
        assert path.exists()
        state = manager.load_level(0)
        assert state.level == 0
        assert state.scorer_name == "modularity"
        assert state.graph.n_vertices == karate.n_vertices
        np.testing.assert_array_equal(state.graph.edges.w, karate.edges.w)

    def test_no_tmp_files_left_behind(self, karate, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(_state_for(karate))
        leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_level_map_count_mismatch_rejected_at_save(self, karate, tmp_path):
        manager = CheckpointManager(tmp_path)
        with pytest.raises(ValueError):
            manager.save(_state_for(karate, level=2, maps=[]))

    def test_prune_keeps_newest(self, karate, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        n = karate.n_vertices
        for level in range(1, 5):
            manager.save(
                CheckpointState(
                    level=level,
                    graph=karate,
                    maps=[np.arange(n, dtype=VERTEX_DTYPE)] * level,
                    member_counts=np.ones(n, dtype=VERTEX_DTYPE),
                    level_stats=[{} for _ in range(level)],
                )
            )
        assert manager.levels_on_disk() == [3, 4]

    def test_missing_level_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        with pytest.raises(CheckpointError):
            manager.load_level(7)

    def test_keep_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)


class TestValidationOnLoad:
    def test_truncated_file_is_checkpoint_error(self, karate, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = manager.save(_state_for(karate))
        truncate_file(path, keep_fraction=0.5)
        with pytest.raises(CheckpointError, match="truncated|unreadable"):
            manager.load_level(0)

    def test_garbage_file_is_checkpoint_error(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.path_for(1).write_bytes(b"not an npz at all")
        with pytest.raises(CheckpointError):
            manager.load_level(1)

    def test_schema_version_is_enforced(self, karate, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = manager.save(_state_for(karate))
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["schema"] = np.int64(CHECKPOINT_SCHEMA_VERSION + 1)
        np.savez_compressed(path, **arrays)
        with pytest.raises(CheckpointError, match="schema"):
            manager.load_level(0)

    def test_corrupt_member_counts_rejected(self, karate, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = manager.save(_state_for(karate))
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["member_counts"] = arrays["member_counts"] * 2
        np.savez_compressed(path, **arrays)
        with pytest.raises(CheckpointError, match="member_counts"):
            manager.load_level(0)

    def test_load_latest_skips_invalid_and_falls_back(self, karate, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(_state_for(karate))  # level 0, valid
        n = karate.n_vertices
        newest = manager.save(
            CheckpointState(
                level=1,
                graph=karate,
                maps=[np.arange(n)],
                member_counts=np.ones(n, dtype=VERTEX_DTYPE),
                level_stats=[{}],
            )
        )
        truncate_file(newest, keep_fraction=0.3)
        state, n_invalid = manager.load_latest()
        assert state is not None and state.level == 0
        assert n_invalid == 1

    def test_load_latest_empty_dir(self, tmp_path):
        state, n_invalid = CheckpointManager(tmp_path).load_latest()
        assert state is None and n_invalid == 0


class TestQuarantine:
    def _save_two_levels_and_break_newest(self, karate, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(_state_for(karate))
        n = karate.n_vertices
        newest = manager.save(
            CheckpointState(
                level=1,
                graph=karate,
                maps=[np.arange(n)],
                member_counts=np.ones(n, dtype=VERTEX_DTYPE),
                level_stats=[{}],
            )
        )
        truncate_file(newest, keep_fraction=0.3)
        return manager, newest

    def test_invalid_file_is_renamed_to_corrupt(self, karate, tmp_path):
        manager, newest = self._save_two_levels_and_break_newest(
            karate, tmp_path
        )
        state, n_invalid = manager.load_latest()
        assert n_invalid == 1 and state.level == 0
        assert not newest.exists()
        assert newest.with_name(newest.name + ".corrupt").exists()

    def test_known_bad_file_is_validated_at_most_once(self, karate, tmp_path):
        manager, _ = self._save_two_levels_and_break_newest(karate, tmp_path)
        _, first = manager.load_latest()
        state, second = manager.load_latest()
        assert first == 1
        assert second == 0  # quarantine removed it from discovery
        assert state is not None and state.level == 0

    def test_quarantine_is_logged_once_per_resume(
        self, karate, tmp_path, caplog
    ):
        manager, _ = self._save_two_levels_and_break_newest(karate, tmp_path)
        with caplog.at_level("WARNING", logger="repro.resilience.checkpoint"):
            manager.load_latest()
        warnings = [
            r for r in caplog.records if "quarantined" in r.getMessage()
        ]
        assert len(warnings) == 1

    def test_quarantine_file_never_overwrites_forensics(self, tmp_path):
        for k, expected in enumerate(
            ["x.npz.corrupt", "x.npz.corrupt.1", "x.npz.corrupt.2"]
        ):
            victim = tmp_path / "x.npz"
            victim.write_bytes(f"crash-{k}".encode())
            target = quarantine_file(victim)
            assert target.name == expected
            assert target.read_bytes() == f"crash-{k}".encode()
        assert not (tmp_path / "x.npz").exists()


class TestResume:
    def test_resume_requires_checkpoint_dir(self, karate):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            detect_communities(karate, resume=True)

    def test_checkpoint_every_validation(self, karate, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            detect_communities(
                karate, checkpoint_dir=tmp_path, checkpoint_every=0
            )

    def test_interrupted_run_resumes_to_identical_partition(
        self, karate, tmp_path
    ):
        full = detect_communities(karate)
        # "Interrupt" after one level by capping max_levels, then resume.
        partial = detect_communities(
            karate,
            termination=TerminationCriteria(max_levels=1),
            checkpoint_dir=tmp_path,
        )
        assert partial.recovery.checkpoints_written == 1
        resumed = detect_communities(
            karate, checkpoint_dir=tmp_path, resume=True
        )
        assert resumed.recovery.resumed_from_level == 1
        np.testing.assert_array_equal(
            resumed.partition.labels, full.partition.labels
        )
        assert resumed.n_levels == full.n_levels
        # Restored per-level stats match the uninterrupted run's exactly.
        assert resumed.levels == full.levels

    def test_torn_newest_checkpoint_resumes_one_level_back(
        self, karate, tmp_path
    ):
        baseline = detect_communities(karate)
        partial = detect_communities(
            karate,
            termination=TerminationCriteria(max_levels=2),
            checkpoint_dir=tmp_path,
        )
        assert partial.recovery.checkpoints_written == 2
        # Tear the newest checkpoint mid-byte: resume must fall back to
        # the previous level and still reproduce the uninterrupted answer.
        manager = CheckpointManager(tmp_path)
        truncate_file(
            manager.path_for(max(manager.levels_on_disk())),
            keep_fraction=0.4,
        )
        resumed = detect_communities(
            karate, checkpoint_dir=tmp_path, resume=True
        )
        assert resumed.recovery.checkpoints_invalid == 1
        assert resumed.recovery.resumed_from_level == 1
        np.testing.assert_array_equal(
            resumed.partition.labels, baseline.partition.labels
        )
        assert resumed.levels == baseline.levels

    def _assert_resume_from_final_checkpoint_stops(
        self, graph, termination, tmp_path, terminated_by
    ):
        full = detect_communities(
            graph, termination=termination, checkpoint_dir=tmp_path
        )
        assert full.terminated_by == terminated_by
        assert CheckpointManager(tmp_path).levels_on_disk()[-1] == full.n_levels
        resumed = detect_communities(
            graph, termination=termination, checkpoint_dir=tmp_path, resume=True
        )
        assert resumed.recovery.resumed_from_level == full.n_levels
        np.testing.assert_array_equal(
            resumed.partition.labels, full.partition.labels
        )
        assert resumed.levels == full.levels
        assert resumed.terminated_by == full.terminated_by

    def test_resume_after_coverage_stop_runs_no_further_level(self, tmp_path):
        # 5 levels reach coverage 0.5 (109 communities); the criterion
        # must also hold for the level the resume restores.
        self._assert_resume_from_final_checkpoint_stops(
            planted_partition_graph(3000, seed=5),
            TerminationCriteria(coverage=0.5),
            tmp_path,
            "coverage",
        )

    def test_resume_after_stall_runs_no_further_level(self, tmp_path):
        # Level 9 merges under a tenth of its communities.
        self._assert_resume_from_final_checkpoint_stops(
            rmat_graph(10, 8, seed=1),
            TerminationCriteria.paper_experiments(),
            tmp_path,
            "stalled",
        )

    def test_resume_from_empty_dir_runs_fresh(self, karate, tmp_path):
        full = detect_communities(karate)
        resumed = detect_communities(
            karate, checkpoint_dir=tmp_path, resume=True
        )
        assert resumed.recovery.resumed_from_level is None
        np.testing.assert_array_equal(
            resumed.partition.labels, full.partition.labels
        )

    def test_resume_rejects_mismatched_graph(self, karate, cliques, tmp_path):
        detect_communities(
            karate,
            termination=TerminationCriteria(max_levels=1),
            checkpoint_dir=tmp_path,
        )
        with pytest.raises(CheckpointError, match="input"):
            detect_communities(cliques, checkpoint_dir=tmp_path, resume=True)

    def test_checkpoint_every_skips_levels(self, karate, tmp_path):
        result = detect_communities(
            karate, checkpoint_dir=tmp_path, checkpoint_every=2
        )
        manager = CheckpointManager(tmp_path)
        assert result.recovery.checkpoints_written == len(
            manager.levels_on_disk()
        )
        assert all(lvl % 2 == 0 for lvl in manager.levels_on_disk())
