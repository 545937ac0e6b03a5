"""Tests for the kernel shootout harness (`repro.bench.shootout`)."""

import numpy as np
import pytest

from repro.bench.ledger import read_ledger
from repro.bench.shootout import main, run_shootout, suite_graphs
from repro.core.registry import kernel_names


class TestSuiteGraphs:
    def test_three_shape_diverse_workloads(self):
        graphs = suite_graphs(scale=0.1, seed=3)
        assert [name for name, _ in graphs] == ["sbm", "ba", "rmat"]
        for _, g in graphs:
            assert g.n_vertices > 0 and g.n_edges > 0

    def test_scale_grows_the_suite(self):
        small = suite_graphs(scale=0.1)
        large = suite_graphs(scale=1.0)
        for (_, gs), (_, gl) in zip(small, large):
            assert gl.n_vertices >= gs.n_vertices

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError, match="scale"):
            suite_graphs(scale=0.0)


class TestRunShootout:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("shootout")
        return run_shootout(
            name="kernels-test",
            scale=0.1,
            seed=2,
            directory=directory,
            matchers=["worklist", "sweep"],
            contractors=["bucket", "chains"],
        )

    def test_one_repetition_per_cell(self, result):
        record, _ = result
        assert len(record.repetitions) == 4
        cells = record.config["cells"]
        assert {(c["matcher"], c["contractor"]) for c in cells} == {
            ("worklist", "bucket"),
            ("worklist", "chains"),
            ("sweep", "bucket"),
            ("sweep", "chains"),
        }
        for rep in record.repetitions:
            assert rep.total_s > 0
            assert rep.phases.get("match", 0) > 0
            assert rep.phases.get("contract", 0) > 0
            assert rep.terminated_by == "suite"

    def test_ledger_round_trips(self, result):
        _, path = result
        loaded = read_ledger(path)
        assert loaded.name == "kernels-test"
        assert len(loaded.repetitions) == 4
        assert loaded.config["matcher"] == "worklistxsweep"

    def test_default_pools_are_the_registry(self):
        # No kernel pool args: the sweep covers every registered kernel
        # (checked without running — the cells come from kernel_names).
        assert set(kernel_names("matcher")) == {"worklist", "sweep", "gmm"}
        assert set(kernel_names("contractor")) == {
            "bucket",
            "chains",
            "shard",
        }


class TestMain:
    def test_cli_renders_cells_and_writes_ledger(self, tmp_path, capsys):
        rc = main(
            [
                "--scale",
                "0.1",
                "--seed",
                "2",
                "--out-dir",
                str(tmp_path),
                "--matchers",
                "worklist",
                "--contractors",
                "bucket",
                "chains",
                "--append-ledger-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "kernel shootout" in captured.out
        assert "chains" in captured.out
        assert "ledger written to" in captured.err
        names = sorted(p.name for p in tmp_path.iterdir())
        assert "BENCH_kernels.json" in names
        assert any(n.startswith("BENCH_kernels-") for n in names)


class TestParityGate:
    def test_divergent_cell_raises(self, monkeypatch, tmp_path):
        # Corrupt one matcher's output post hoc: the parity gate must
        # name the offending cell instead of silently ledgering it.
        import repro.bench.shootout as shootout_mod

        real = shootout_mod.run_with_trace

        def crooked(graph, *, matcher="worklist", **kw):
            run = real(graph, matcher=matcher, **kw)
            if matcher == "sweep":
                labels = run.result.partition.labels
                labels = np.where(labels == 0, 1, labels)
                run.result.partition.labels[:] = labels
            return run

        monkeypatch.setattr(shootout_mod, "run_with_trace", crooked)
        with pytest.raises(AssertionError, match=r"\(sweep, bucket\)"):
            run_shootout(
                scale=0.1,
                seed=2,
                directory=tmp_path,
                matchers=["worklist", "sweep"],
                contractors=["bucket"],
            )
