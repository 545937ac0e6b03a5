"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.errors import GuardianBreach
from repro.generators import karate_club, planted_partition_graph
from repro.graph import write_edgelist, save_npz


def _fresh_modules(statement, package):
    """Sorted ``sys.modules`` entries of top-level *package* after
    *statement* runs in a fresh interpreter."""
    import os
    import subprocess
    import sys

    code = (
        f"import sys; {statement}; "
        f"print(*sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return out.split()


@pytest.fixture
def karate_file(tmp_path):
    path = tmp_path / "karate.txt"
    write_edgelist(karate_club(), path)
    return str(path)


class TestDetect:
    def test_default_parallel(self, karate_file, tmp_path, capsys):
        out = tmp_path / "labels.txt"
        rc = main(["detect", karate_file, "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 34
        v, c = lines[0].split("\t")
        assert v == "0"
        err = capsys.readouterr().err
        assert "modularity" in err

    def test_stdout_output(self, karate_file, capsys):
        rc = main(["detect", karate_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 34

    @pytest.mark.parametrize("algo", ["cnm", "louvain", "labelprop"])
    def test_baseline_algorithms(self, karate_file, tmp_path, algo):
        out = tmp_path / "labels.txt"
        rc = main(["detect", karate_file, "-o", str(out), "--algorithm", algo])
        assert rc == 0
        assert len(out.read_text().strip().splitlines()) == 34

    def test_conductance_scorer(self, karate_file, capsys):
        rc = main(["detect", karate_file, "--scorer", "conductance"])
        assert rc == 0

    def test_refine_flag(self, karate_file, capsys):
        rc = main(["detect", karate_file, "--refine"])
        assert rc == 0
        assert "refinement" in capsys.readouterr().err

    def test_coverage_and_limits(self, karate_file, capsys):
        rc = main(
            [
                "detect",
                karate_file,
                "--coverage",
                "0.5",
                "--min-communities",
                "2",
                "--max-levels",
                "3",
            ]
        )
        assert rc == 0

    def test_legacy_kernels(self, karate_file, capsys):
        rc = main(
            [
                "detect",
                karate_file,
                "--matcher",
                "sweep",
                "--contractor",
                "chains",
            ]
        )
        assert rc == 0

    def test_resume_requires_checkpoint_dir(self, karate_file, capsys):
        rc = main(["detect", karate_file, "--resume"])
        assert rc == 2
        assert "requires --checkpoint-dir" in capsys.readouterr().err

    def test_checkpoint_and_resume_reproduce_full_run(
        self, karate_file, tmp_path, capsys
    ):
        full = main(["detect", karate_file])
        full_out = capsys.readouterr().out
        assert full == 0
        ck = str(tmp_path / "ck")
        rc = main(
            ["detect", karate_file, "--checkpoint-dir", ck, "--max-levels", "1"]
        )
        assert rc == 0
        assert "resilience:" in capsys.readouterr().err
        rc = main(["detect", karate_file, "--checkpoint-dir", ck, "--resume"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "resumed_from_level=1" in captured.err
        assert captured.out == full_out

    @pytest.mark.parametrize(
        "extra", [["--workers", "2"], ["--backend", "serial"]]
    )
    def test_pool_options_are_gone(self, karate_file, extra, capsys):
        from repro.bench.smoke import main as smoke_main

        for entry, argv in (
            (main, ["detect", karate_file, *extra]),
            (smoke_main, extra),
        ):
            with pytest.raises(SystemExit) as exc:
                entry(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_import_loads_no_multiprocessing(self):
        assert _fresh_modules("import repro.cli", "multiprocessing") == []

    def test_import_loads_only_the_detect_pipeline(self):
        # Package __init__s defer what detect does not run, and the CLI
        # imports the other subcommands' modules inside them.
        assert _fresh_modules("import repro", "repro") == ["repro"]
        loaded = _fresh_modules("import repro.cli", "repro")
        assert len(loaded) <= 50, loaded
        deferred = (
            "repro.analysis",
            "repro.baselines",
            "repro.bench",
            "repro.generators",
            "repro.reference",
            "repro.stream",
            "repro.platform.machine",
            "repro.platform.sim",
            "repro.platform.noise",
            "repro.platform.whatif",
            "repro.platform.utilization",
            "repro.obs.attribution",
            "repro.obs.perfetto",
            "repro.obs.report",
            "repro.obs.timeline",
        )
        unexpected = [
            m for m in loaded if m in deferred or m.rsplit(".", 1)[0] in deferred
        ]
        assert unexpected == []

    def test_npz_input(self, tmp_path, capsys):
        path = tmp_path / "k.npz"
        save_npz(karate_club(), path)
        rc = main(["detect", str(path)])
        assert rc == 0


class TestMemoryBudget:
    """A memory-budget breach walks the guardian's ladder to
    checkpoint-and-abort; the checkpoint resumes to the plain labels."""

    def test_breach_aborts_with_resumable_checkpoint(
        self, tmp_path, monkeypatch, capsys
    ):
        import itertools
        import tempfile

        import repro.resilience.guardian as guardian_module

        graph_file = str(tmp_path / "planted.txt")
        write_edgelist(planted_partition_graph(2000, seed=7), graph_file)
        plain = tmp_path / "plain.txt"
        assert main(["detect", graph_file, "-o", str(plain)]) == 0
        assert "8 levels" in capsys.readouterr().err

        # Three RSS samples per level (after score, match and contract):
        # levels 0 and 1 sit under the budget, level 2 is far over it.
        sample = itertools.count(1)

        def fake_rss():
            return 10.0 if next(sample) <= 6 else 10_000.0

        made = []
        real_mkdtemp = tempfile.mkdtemp

        def recording_mkdtemp(*args, **kwargs):
            path = real_mkdtemp(*args, **kwargs)
            made.append(path)
            return path

        monkeypatch.setattr(guardian_module, "_rss_mb", fake_rss)
        monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
        ck = tmp_path / "ck"
        with pytest.warns(GuardianBreach, match="memory_budget@level2"):
            rc = main(
                [
                    "detect",
                    graph_file,
                    "-o",
                    str(tmp_path / "aborted.txt"),
                    "--memory-budget",
                    "100",
                    "--checkpoint-dir",
                    str(ck),
                ]
            )
        err = capsys.readouterr().err
        assert rc == 3
        assert (
            "ladder=[lower-audit(memory_budget@level2) -> "
            "abort(memory_budget@level2)]"
        ) in err
        assert "level_00002.ckpt.npz" in err
        assert "--resume" in err
        assert not any("repro-spill-" in path for path in made)

        resumed = tmp_path / "resumed.txt"
        rc = main(
            [
                "detect",
                graph_file,
                "-o",
                str(resumed),
                "--checkpoint-dir",
                str(ck),
                "--resume",
            ]
        )
        assert rc == 0
        assert "resumed_from_level=2" in capsys.readouterr().err
        assert resumed.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--backend", "sharded"],
            ["--matcher", "gmm"],
            ["--contractor", "shard"],
            ["--spill-dir", "sp"],
            ["--shards", "4"],
        ],
    )
    def test_out_of_core_options_are_gone(self, karate_file, extra, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", karate_file, *extra])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments" in err


class TestOldArtifacts:
    def test_spill_era_status_and_ledger_render(self, tmp_path, capsys):
        import json

        from repro.bench.ledger import read_ledger, render_ledger, write_ledger
        from tests.test_bench_ledger import make_record

        # A status.json as written by a run that spilled, before the
        # out-of-core tier was removed: it carries the spill counters
        # and guardian.spills, which the renderer must ignore.
        status = {
            "schema": "repro-status",
            "version": 1,
            "pid": 5647,
            "state": "stopped",
            "started_unix": 1792220191.5399692,
            "updated_unix": 1792220191.5843832,
            "interval_s": 0.05,
            "phase": "done",
            "level": None,
            "levels_done": 5,
            "n_communities": 25,
            "rss_mb": 21.4296875,
            "rss_source": "rss_anon",
            "peak_rss_mb": 21.4296875,
            "ramp_mb_s": None,
            "gc_collections": 75,
            "spill_bytes": 125208,
            "spilled_levels": 4,
            "open_level_stores": 1,
            "workers_alive": 0,
            "n_samples": 1,
            "guardian": {
                "breaches": 1,
                "spills": 1,
                "ladder": ["spill(memory_budget@level0)"],
            },
            "meta": {"command": "detect"},
        }
        status_path = tmp_path / "status.json"
        status_path.write_text(json.dumps(status, indent=1) + "\n")
        assert main(["watch", str(status_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "[STOPPED]" in out
        assert "5 level(s) done, 25 communities" in out
        assert (
            "guardian : 1 breach(es), ladder: spill(memory_budget@level0)"
            in out
        )

        # A ledger repetition whose recovery block is the one the spill
        # rung's smoke baseline recorded.
        path = write_ledger(make_record(name="spill"), directory=tmp_path)
        doc = json.loads(path.read_text())
        doc["config"]["memory_budget_mb"] = 150.0
        doc["repetitions"][0]["recovery"] = {
            "checkpoints_invalid": 0,
            "checkpoints_written": 0,
            "chunk_failures": 0,
            "chunk_timeouts": 0,
            "degraded_chunks": 0,
            "guardian_breaches": 1,
            "invalid_chunks": 0,
            "ladder": ["spill(memory_budget@level0)"],
            "resumed_from_level": None,
            "retries": 0,
            "spills": 1,
            "worker_deaths": 0,
        }
        path.write_text(json.dumps(doc))
        record = read_ledger(path)
        assert record.repetitions[0].recovery["spills"] == 1
        text = render_ledger(record)
        assert (
            "rep 0: guardian_breaches=1, "
            "ladder=[spill(memory_budget@level0)]"
        ) in text

    def test_committed_smoke_ledgers_load_and_render(self):
        from pathlib import Path

        from repro.bench.ledger import read_ledger, render_ledger

        # Both ledgers were written while the process pool existed: their
        # configs carry backend/n_workers and their attribution blocks
        # carry workers/serial/amdahl.
        bench = Path(__file__).resolve().parents[1] / "benchmarks"
        base = str(bench / "baselines" / "smoke.json")
        dated = str(bench / "ledgers" / "BENCH_smoke-2026-08-08.json")
        for path in (base, dated):
            text = render_ledger(read_ledger(path))
            assert "  hotspots: " in text
            assert "  consistency: OK" in text
            assert "Amdahl" not in text
        assert (
            main(
                [
                    "compare",
                    base,
                    dated,
                    "--tolerance",
                    "5.0",
                    "--noise-floor",
                    "1.0",
                    "--quality-tolerance",
                    "0.05",
                ]
            )
            == 0
        )
        assert main(["trend", base, dated]) == 0


class TestGenerate:
    def test_rmat(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        rc = main(
            ["generate", "rmat", "-o", str(out), "--scale", "6", "--seed", "1"]
        )
        assert rc == 0
        assert out.exists()
        assert "edges" in capsys.readouterr().err

    def test_planted(self, tmp_path, capsys):
        out = tmp_path / "g.npz"
        rc = main(
            ["generate", "planted", "-o", str(out), "--vertices", "200"]
        )
        assert rc == 0
        from repro.graph import load_npz

        g = load_npz(out)
        assert g.n_vertices == 200

    def test_webgraph_metis(self, tmp_path):
        out = tmp_path / "g.metis"
        rc = main(
            ["generate", "webgraph", "-o", str(out), "--vertices", "300"]
        )
        assert rc == 0
        from repro.graph import read_metis

        assert read_metis(out).n_edges > 0


class TestInfoAndBench:
    def test_info(self, karate_file, capsys):
        rc = main(["info", karate_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert "vertices      : 34" in out
        assert "components    : 1" in out

    def test_bench_table1(self, capsys):
        rc = main(["bench", "table1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "XMT2" in out and "E7-8870" in out

    def test_bench_table2(self, capsys):
        rc = main(["bench", "table2", "--scale", "0.125", "--seed", "0"])
        assert rc == 0
        assert "uk-2007-05" in capsys.readouterr().out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_roundtrip_detect_generated(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        main(["generate", "planted", "-o", str(graph_file), "--vertices", "150"])
        labels_file = tmp_path / "labels.txt"
        rc = main(["detect", str(graph_file), "-o", str(labels_file)])
        assert rc == 0
        assert len(labels_file.read_text().strip().splitlines()) == 150


class TestAnalyze:
    def test_analyze_roundtrip(self, karate_file, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        main(["detect", karate_file, "-o", str(labels)])
        capsys.readouterr()
        rc = main(["analyze", karate_file, str(labels), "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "modularity" in out
        assert "DIMACS performance" in out
        assert "largest 3 communities" in out

    def test_analyze_one_vertex_graph(self, tmp_path, capsys):
        # A one-line labels file must still load as a 1-D array.
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("0 0 1\n")
        labels = tmp_path / "l.txt"
        assert main(["detect", str(graph_file), "-o", str(labels)]) == 0
        capsys.readouterr()
        rc = main(["analyze", str(graph_file), str(labels)])
        assert rc == 0
        assert "communities            : 1" in capsys.readouterr().out

    def test_analyze_length_mismatch(self, karate_file, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("0\t0\n1\t0\n")
        rc = main(["analyze", karate_file, str(labels)])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestTraceAndProfile:
    def test_trace_out_writes_valid_jsonl(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        main(
            [
                "generate",
                "rmat",
                "-o",
                str(graph_file),
                "--scale",
                "7",
                "--seed",
                "2",
            ]
        )
        trace_file = tmp_path / "trace.jsonl"
        labels = tmp_path / "labels.txt"
        rc = main(
            [
                "detect",
                str(graph_file),
                "-o",
                str(labels),
                "--trace-out",
                str(trace_file),
            ]
        )
        assert rc == 0
        assert "trace:" in capsys.readouterr().err

        from repro.obs import read_trace

        data = read_trace(trace_file)
        assert data.complete
        assert data.meta["command"] == "detect"
        assert data.meta["n_vertices"] > 0
        levels = data.find("level")
        assert levels
        # every completed level carries its three phase spans
        completed = {s.level for s in levels if "n_pairs" in s.attrs}
        for phase in ("score", "match", "contract"):
            have = {s.level for s in data.find(phase)}
            assert completed <= have

    def test_profile_prints_phase_table(self, karate_file, capsys):
        rc = main(["detect", karate_file, "--profile"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "phase profile" in err
        assert "contract %" in err
        assert "contraction share of phase time:" in err

    def test_trace_out_and_profile_together(self, karate_file, tmp_path, capsys):
        trace_file = tmp_path / "t.jsonl"
        rc = main(
            ["detect", karate_file, "--trace-out", str(trace_file), "--profile"]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert trace_file.exists()
        assert "phase profile" in err

    def test_untraced_detect_has_no_trace_output(self, karate_file, capsys):
        rc = main(["detect", karate_file])
        assert rc == 0
        err = capsys.readouterr().err
        assert "phase profile" not in err
        assert "trace:" not in err

    def test_bench_profile(self, tmp_path, capsys):
        trace_file = tmp_path / "bench.jsonl"
        rc = main(
            [
                "bench",
                "figure1",
                "--scale",
                "0.02",
                "--trace-out",
                str(trace_file),
                "--profile",
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "phase profile — rmat-24-16" in err

        from repro.obs import read_trace

        data = read_trace(trace_file)
        assert data.meta["command"] == "bench"
        runs = data.find("run")
        assert {s.attrs["graph"] for s in runs} == {
            "rmat-24-16",
            "soc-LiveJournal1",
        }


class TestVerbose:
    def test_verbose_logs_levels(self, karate_file, capsys):
        rc = main(["--verbose", "detect", karate_file])
        assert rc == 0
        # (log handler writes to stderr via logging; presence of the
        # normal summary suffices — the flag must not break anything)
        assert "communities" in capsys.readouterr().err


class TestReplayVerify:
    def test_verify_prints_every_check(self, tmp_path, capsys):
        rc = main(
            [
                "replay",
                "--data-dir",
                str(tmp_path / "state"),
                "--log",
                str(tmp_path / "e.log"),
                "--generate",
                "--batches",
                "6",
                "--batch-size",
                "16",
                "--vertices",
                "48",
                "--snapshot-every",
                "4",
                "--verify",
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "verify: ok (" in err
        assert "quality_matches=ok" in err
        assert "community_graph_matches=ok" in err


class TestMetricsOut:
    def test_detect_writes_prometheus_text(self, karate_file, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        rc = main(["detect", karate_file, "--metrics-out", str(out)])
        assert rc == 0
        assert "metrics:" in capsys.readouterr().err
        text = out.read_text()
        assert "# TYPE " in text
        assert "repro_match_worklist_edges" in text
        assert "repro_contract_bucket_occupancy_bucket" in text

    def test_prometheus_and_trace_records_come_from_the_spans(
        self, karate_file, tmp_path
    ):
        from repro.obs import read_trace, render_prometheus, run_metrics

        prom, trace = tmp_path / "m.prom", tmp_path / "t.jsonl"
        rc = main(
            ["detect", karate_file, "--audit", "full", "--metrics-out",
             str(prom), "--trace-out", str(trace)]
        )
        assert rc == 0
        data = read_trace(trace)
        records = {
            "counters": data.counters,
            "gauges": data.gauges,
            "histograms": data.histograms,
        }
        assert records == run_metrics(data.spans)
        assert records["counters"]["guardian.checks"] > 0
        assert prom.read_text() == render_prometheus(records)

    def test_bench_accepts_metrics_out(self, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        rc = main(
            ["bench", "figure1", "--scale", "0.02",
             "--metrics-out", str(out)]
        )
        assert rc == 0
        assert "# TYPE " in out.read_text()


class TestCompare:
    @pytest.fixture()
    def ledgers(self, tmp_path):
        from repro.bench.ledger import write_ledger
        from tests.test_bench_ledger import make_record

        base = write_ledger(make_record(name="base"), directory=tmp_path)
        same = write_ledger(make_record(name="same"), directory=tmp_path)
        slow = write_ledger(
            make_record(name="slow", match=2.0, totals=(2.5, 2.9)),
            directory=tmp_path,
        )
        return base, same, slow

    def test_no_regression_exits_zero(self, ledgers, capsys):
        base, same, _ = ledgers
        rc = main(["compare", str(base), str(same)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no regression" in out
        assert "phase.match" in out

    def test_regression_exits_one(self, ledgers, capsys):
        base, _, slow = ledgers
        rc = main(["compare", str(base), str(slow)])
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_tolerance_flag_suppresses_regression(self, ledgers):
        base, _, slow = ledgers
        rc = main(
            ["compare", str(base), str(slow),
             "--tolerance", "100", "--quality-tolerance", "1"]
        )
        assert rc == 0

    def test_unreadable_ledger_exits_two(self, tmp_path, capsys, ledgers):
        rc = main(["compare", str(ledgers[0]), str(tmp_path / "missing.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestPerfettoOut:
    def test_detect_perfetto_out_writes_trace_events(
        self, karate_file, tmp_path, capsys
    ):
        import json

        out = tmp_path / "trace.perfetto.json"
        rc = main(
            ["detect", karate_file, "--perfetto-out", str(out)]
        )
        assert rc == 0
        assert "perfetto:" in capsys.readouterr().err
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "score" for e in events)
        assert any(e["ph"] == "M" for e in events)

    def test_perfetto_out_alone_enables_tracing(self, karate_file, tmp_path):
        # no --trace-out needed: --perfetto-out must switch the tracer on
        out = tmp_path / "t.json"
        rc = main(["detect", karate_file, "--perfetto-out", str(out)])
        assert rc == 0
        assert out.exists()


class TestReport:
    @pytest.fixture()
    def trace_file(self, karate_file, tmp_path):
        trace = tmp_path / "trace.jsonl"
        labels = tmp_path / "labels.txt"
        assert (
            main(
                [
                    "detect",
                    karate_file,
                    "-o",
                    str(labels),
                    "--trace-out",
                    str(trace),
                ]
            )
            == 0
        )
        return trace

    def test_report_to_stdout(self, trace_file, capsys):
        rc = main(["report", str(trace_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "## Phase breakdown" in out
        assert "## Trace consistency" in out

    def test_report_to_file(self, trace_file, tmp_path):
        out = tmp_path / "report.md"
        rc = main(["report", str(trace_file), "-o", str(out)])
        assert rc == 0
        assert "## Hotspots" in out.read_text()

    def test_report_html(self, trace_file, tmp_path):
        out = tmp_path / "report.html"
        rc = main(["report", str(trace_file), "-o", str(out), "--html"])
        assert rc == 0
        assert out.read_text().startswith("<!DOCTYPE html>")

    def test_report_with_ledger(self, trace_file, tmp_path, capsys):
        from repro.bench.ledger import write_ledger
        from tests.test_bench_ledger import make_record

        ledger = write_ledger(make_record(name="run"), directory=tmp_path)
        rc = main(["report", str(trace_file), "--ledger", str(ledger)])
        assert rc == 0
        assert "## Benchmark ledger" in capsys.readouterr().out

    def test_unreadable_trace_exits_two(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "missing.jsonl")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestTrend:
    @pytest.fixture()
    def ledger_series(self, tmp_path):
        from repro.bench.ledger import write_ledger
        from tests.test_bench_ledger import make_record

        paths = []
        for k, match in enumerate((0.5, 0.5, 2.0)):
            record = make_record(
                name=f"run{k}", match=match,
                totals=(1.0 + match, 1.2 + match),
            )
            record.created_unix = float(k)
            paths.append(
                str(write_ledger(record, tmp_path / f"BENCH_run{k}.json"))
            )
        return paths

    def test_trend_tabulates_and_plots(self, ledger_series, capsys):
        rc = main(["trend", *ledger_series])
        assert rc == 0
        out = capsys.readouterr().out
        assert "run0" in out and "run2" in out
        assert "end_to_end" in out

    def test_trend_flags_regression_without_strict(self, ledger_series, capsys):
        rc = main(["trend", *ledger_series])
        assert rc == 0  # informational by default
        assert "regressions between consecutive runs" in capsys.readouterr().out
        # run0 -> run2 doubles end-to-end time

    def test_trend_strict_exits_one_on_regression(self, ledger_series):
        assert main(["trend", *ledger_series, "--strict"]) == 1

    def test_trend_strict_clean_exits_zero(self, ledger_series):
        assert main(["trend", *ledger_series[:2], "--strict"]) == 0

    def test_trend_metric_selection(self, ledger_series, capsys):
        rc = main(["trend", *ledger_series, "--metric", "score"])
        assert rc == 0
        assert "score" in capsys.readouterr().out

    def test_trend_unreadable_ledger_exits_two(self, tmp_path, capsys):
        rc = main(["trend", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestKernels:
    def test_lists_all_kinds(self, capsys):
        rc = main(["kernels"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scorers (3 registered)" in out
        assert "matchers (2 registered)" in out
        assert "contractors (2 registered)" in out
        for name in ("worklist", "sweep", "bucket", "chains"):
            assert name in out
        assert "deterministic" not in out

    def test_kind_filter(self, capsys):
        rc = main(["kernels", "--kind", "contractor"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bucket" in out and "chains" in out
        assert "worklist" not in out


class TestCompareConfigDrift:
    @pytest.fixture()
    def drifted(self, tmp_path):
        import json

        from repro.bench.ledger import write_ledger
        from tests.test_bench_ledger import make_record

        base = write_ledger(make_record(name="base"), directory=tmp_path)
        new = tmp_path / "BENCH_new.json"
        doc = json.loads(base.read_text())
        doc["name"] = "new"
        doc["config"]["matcher"] = "sweep"
        new.write_text(json.dumps(doc))
        return base, new

    def test_drift_exits_two_with_diagnostic(self, drifted, capsys):
        base, new = drifted
        rc = main(["compare", str(base), str(new)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "different" in err
        assert "config.matcher" in err
        assert "--ignore-config" in err

    def test_ignore_config_warns_and_proceeds(self, drifted, capsys):
        base, new = drifted
        rc = main(["compare", str(base), str(new), "--ignore-config"])
        assert rc == 0  # identical numbers: no regression
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert "config.matcher" in captured.err
        assert "no regression" in captured.out

    def test_matching_configs_do_not_trip_the_gate(self, tmp_path, capsys):
        from repro.bench.ledger import write_ledger
        from tests.test_bench_ledger import make_record

        a = write_ledger(make_record(name="a"), directory=tmp_path)
        b = write_ledger(make_record(name="b"), directory=tmp_path)
        assert main(["compare", str(a), str(b)]) == 0
        assert "warning" not in capsys.readouterr().err
