"""Tests for the benchmark ledger: records, atomic I/O, comparison."""

import json
import os

import pytest

from repro.bench.ledger import (
    LEDGER_SCHEMA_VERSION,
    LedgerComparison,
    Repetition,
    RunRecord,
    compare_ledgers,
    config_drift,
    host_info,
    ledger_path,
    peak_rss_bytes,
    read_ledger,
    render_comparison,
    render_ledger,
    repetition_from_run,
    write_ledger,
)
from repro.bench.smoke import run_smoke
from repro.errors import ReproError


def make_record(
    name="a", totals=(1.0, 1.2), score=0.1, match=0.5, contract=0.4,
    modularity=0.3,
) -> RunRecord:
    reps = []
    for k, t in enumerate(totals):
        # Later repetitions slightly slower, so min-of-N picks index 0.
        f = 1.0 + 0.1 * k
        reps.append(
            Repetition(
                total_s=t,
                phases={
                    "score": score * f,
                    "match": match * f,
                    "contract": contract * f,
                    "total": (score + match + contract) * f,
                },
                quality={
                    "version": 1,
                    "levels": [
                        {
                            "level": 0,
                            "n_communities": 10,
                            "modularity": modularity,
                            "coverage": 0.5,
                            "mirror_coverage": 0.5,
                            "merge_fraction": 0.45,
                            "matching_passes": 3,
                            "community_sizes": {
                                "edges": [1.0, 2.0],
                                "counts": [5, 5, 0],
                                "total": 10,
                                "sum": 20.0,
                                "max": 2,
                            },
                        }
                    ],
                },
                peak_rss_bytes=1 << 20,
                n_levels=1,
                n_communities=10,
                terminated_by="coverage",
            )
        )
    return RunRecord(
        name=name,
        graph={"name": "toy", "n_vertices": 20, "n_edges": 40},
        config={"matcher": "worklist"},
        host=host_info(),
        repetitions=reps,
        created_unix=123.0,
    )


class TestRecord:
    def test_min_of_n(self):
        rec = make_record(totals=(2.0, 1.5, 1.9))
        assert rec.min_total_s() == 1.5
        assert rec.min_phase_s("match") == pytest.approx(0.5)
        assert rec.min_phase_s("nonexistent") is None

    def test_no_repetitions(self):
        rec = RunRecord(name="empty")
        with pytest.raises(ValueError, match="no repetitions"):
            rec.min_total_s()
        assert rec.best_final_modularity() is None

    def test_final_quality(self):
        rec = make_record(modularity=0.42)
        assert rec.best_final_modularity() == pytest.approx(0.42)
        assert rec.repetitions[0].final_quality()["modularity"] == 0.42
        assert Repetition(total_s=1.0).final_quality() is None


class TestIO:
    def test_round_trip(self, tmp_path):
        rec = make_record()
        path = write_ledger(rec, directory=tmp_path)
        assert path == ledger_path("a", tmp_path)
        assert path.name == "BENCH_a.json"
        loaded = read_ledger(path)
        assert loaded.name == rec.name
        assert loaded.version == LEDGER_SCHEMA_VERSION
        assert loaded.as_dict() == rec.as_dict()

    def test_explicit_path(self, tmp_path):
        path = write_ledger(make_record(), tmp_path / "sub" / "x.json")
        assert path.exists()
        assert read_ledger(path).name == "a"

    def test_no_tmp_residue(self, tmp_path):
        write_ledger(make_record(), directory=tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_a.json"]

    def test_atomic_on_serialization_failure(self, tmp_path):
        """A failing write must leave the previous ledger intact."""
        path = write_ledger(make_record(name="a", modularity=0.3),
                            directory=tmp_path)
        bad = make_record(name="a")
        bad.config = {"unserializable": object()}
        with pytest.raises(TypeError):
            write_ledger(bad, directory=tmp_path)
        loaded = read_ledger(path)  # old content survived, parseable
        assert loaded.best_final_modularity() == pytest.approx(0.3)
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_a.json"]

    def test_read_rejects_missing(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            read_ledger(tmp_path / "nope.json")

    def test_read_rejects_non_json(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("not json")
        with pytest.raises(ReproError, match="not valid JSON"):
            read_ledger(p)

    def test_read_rejects_wrong_schema(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text(json.dumps({"schema": "other", "version": 1}))
        with pytest.raises(ReproError, match="not a repro-bench-ledger"):
            read_ledger(p)

    def test_read_rejects_wrong_version(self, tmp_path):
        d = make_record().as_dict()
        d["version"] = 999
        p = tmp_path / "x.json"
        p.write_text(json.dumps(d))
        with pytest.raises(ReproError, match="unsupported ledger version"):
            read_ledger(p)

    def test_read_rejects_malformed_repetition(self, tmp_path):
        d = make_record().as_dict()
        del d["repetitions"][0]["total_s"]
        p = tmp_path / "x.json"
        p.write_text(json.dumps(d))
        with pytest.raises(ReproError, match="malformed ledger"):
            read_ledger(p)


class TestCompare:
    def test_identical_is_ok(self):
        cmp = compare_ledgers(make_record(), make_record(name="b"))
        assert isinstance(cmp, LedgerComparison)
        assert not cmp.regressed
        assert {r.status for r in cmp.rows} == {"ok"}

    def test_regression_beyond_tolerance(self):
        base = make_record()
        slow = make_record(name="b", match=0.8, totals=(1.4, 1.6))
        cmp = compare_ledgers(base, slow, tolerance=0.05)
        assert cmp.regressed
        assert "phase.match" in [r.metric for r in cmp.regressions()]
        # score/contract unchanged → still ok
        by_metric = {r.metric: r.status for r in cmp.rows}
        assert by_metric["phase.score"] == "ok"
        assert by_metric["phase.contract"] == "ok"

    def test_noise_floor_suppresses_tiny_absolute_deltas(self):
        base = make_record(score=0.0001)
        new = make_record(name="b", score=0.0004)  # 4x slower but 0.3 ms
        cmp = compare_ledgers(base, new, tolerance=0.05, noise_floor_s=0.005)
        by_metric = {r.metric: r.status for r in cmp.rows}
        assert by_metric["phase.score"] == "ok"

    def test_tolerance_suppresses_small_relative_deltas(self):
        base = make_record(match=10.0)
        new = make_record(name="b", match=10.2)  # 2% slower but 200 ms
        cmp = compare_ledgers(base, new, tolerance=0.05, noise_floor_s=0.005)
        by_metric = {r.metric: r.status for r in cmp.rows}
        assert by_metric["phase.match"] == "ok"

    def test_improvement_flagged(self):
        base = make_record(match=1.0)
        new = make_record(name="b", match=0.5, totals=(0.6, 0.7))
        cmp = compare_ledgers(base, new)
        by_metric = {r.metric: r.status for r in cmp.rows}
        assert by_metric["phase.match"] == "improved"
        assert not cmp.regressed

    def test_min_of_n_uses_best_repetition(self):
        # New ledger has one slow outlier rep but a best rep equal to base:
        # min-of-N must not regress.
        base = make_record(totals=(1.0,))
        new = make_record(name="b", totals=(1.0, 5.0))
        cmp = compare_ledgers(base, new)
        assert not cmp.regressed

    def test_quality_regression(self):
        base = make_record(modularity=0.40)
        worse = make_record(name="b", modularity=0.30)
        cmp = compare_ledgers(base, worse, quality_tolerance=0.02)
        by_metric = {r.metric: r.status for r in cmp.rows}
        assert by_metric["final_modularity"] == "regression"
        assert cmp.regressed

    def test_quality_improvement_and_na(self):
        base = make_record(modularity=0.30)
        better = make_record(name="b", modularity=0.40)
        cmp = compare_ledgers(base, better)
        assert {r.metric: r.status for r in cmp.rows}[
            "final_modularity"
        ] == "improved"
        no_q = make_record(name="c")
        for rep in no_q.repetitions:
            rep.quality = None
        cmp2 = compare_ledgers(base, no_q)
        assert {r.metric: r.status for r in cmp2.rows}[
            "final_modularity"
        ] == "n/a"
        assert not cmp2.regressed

    def test_missing_phases_are_na(self):
        base = make_record()
        bare = make_record(name="b")
        for rep in bare.repetitions:
            rep.phases = {}
        cmp = compare_ledgers(base, bare)
        statuses = {r.metric: r.status for r in cmp.rows}
        assert statuses["phase.score"] == "n/a"
        assert statuses["end_to_end"] == "ok"  # total_s still present
        assert not cmp.regressed

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            compare_ledgers(make_record(), make_record(), tolerance=-1)


class TestRender:
    def test_render_ledger_contains_tables(self):
        text = render_ledger(make_record())
        assert "benchmark ledger — a" in text
        assert "per-phase seconds" in text
        assert "quality timeline" in text
        assert "peak RSS" in text

    def test_render_comparison_verdicts(self):
        ok = compare_ledgers(make_record(), make_record(name="b"))
        assert "no regression" in render_comparison(ok)
        bad = compare_ledgers(
            make_record(), make_record(name="b", match=5.0, totals=(6.0,))
        )
        out = render_comparison(bad)
        assert "REGRESSION" in out
        assert "phase.match" in out


class TestHelpers:
    def test_host_info_keys(self):
        info = host_info()
        assert {"platform", "python", "cpu_count", "hostname"} <= set(info)

    def test_peak_rss_positive(self):
        rss = peak_rss_bytes()
        assert rss is None or rss > 0


class TestSmoke:
    def test_run_smoke_writes_valid_ledger(self, tmp_path):
        record, path = run_smoke(
            name="smoketest", n_vertices=400, reps=2, directory=tmp_path
        )
        assert path == tmp_path / "BENCH_smoketest.json"
        loaded = read_ledger(path)
        assert len(loaded.repetitions) == 2
        rep = loaded.repetitions[0]
        assert set(rep.phases) >= {"score", "match", "contract", "total"}
        assert rep.quality["levels"], "quality timeline missing"
        assert rep.total_s > 0
        assert loaded.best_final_modularity() is not None
        # A smoke ledger must compare cleanly against itself.
        cmp = compare_ledgers(loaded, loaded)
        assert not cmp.regressed

    def test_run_smoke_rejects_zero_reps(self, tmp_path):
        with pytest.raises(ValueError):
            run_smoke(reps=0, directory=tmp_path)

    def test_repetition_from_run_without_tracer(self, tmp_path):
        from repro.bench import run_with_trace
        from repro.generators import planted_partition_graph

        run = run_with_trace(
            planted_partition_graph(200, seed=1), graph_name="g"
        )
        rep = repetition_from_run(run, 0.5)
        assert rep.total_s == 0.5
        assert rep.phases == {}
        assert rep.quality is None
        assert rep.n_levels == run.result.n_levels


class TestAttributionInLedger:
    """Repetition.attribution: computed from the tracer, persisted, rendered."""

    def test_repetition_from_run_with_tracer(self):
        from repro.bench import run_with_trace
        from repro.generators import planted_partition_graph
        from repro.obs import Tracer

        run = run_with_trace(
            planted_partition_graph(200, seed=1),
            graph_name="g",
            tracer=Tracer(),
        )
        rep = repetition_from_run(run, 0.5)
        assert rep.attribution is not None
        assert rep.attribution["version"] == 1
        assert set(rep.attribution) >= {
            "phases", "levels", "hotspots", "consistency",
        }
        assert not {"workers", "serial", "amdahl"} & set(rep.attribution)
        assert rep.attribution["consistency"]["violations"] == []

    def test_attribution_round_trips_through_ledger_io(self, tmp_path):
        record = make_record()
        record.repetitions[0].attribution = {
            "version": 1,
            "hotspots": [{"name": "match_pass", "self_s": 0.2}],
        }
        path = tmp_path / "BENCH_a.json"
        write_ledger(record, path)
        loaded = read_ledger(path)
        assert loaded.repetitions[0].attribution == (
            record.repetitions[0].attribution
        )
        assert loaded.repetitions[1].attribution is None

    def test_render_ledger_shows_attribution_block(self):
        # A block as ledgers recorded it while the process pool existed:
        # its worker-lane and Amdahl keys are ignored.
        record = make_record()
        record.repetitions[0].attribution = {
            "version": 1,
            "hotspots": [
                {"name": "match_pass", "self_s": 0.2, "share": 0.5, "n_spans": 3}
            ],
            "workers": {
                "source": "worker_chunk",
                "n_lanes": 2,
                "n_chunks": 4,
                "busy_s": {"1": 0.1, "2": 0.1},
                "imbalance": 1.0,
                "queue_wait_s": 0.01,
                "exec_s": 0.2,
            },
            "serial": {"fraction": 0.25},
            "amdahl": {
                "serial_fraction": 0.25,
                "n_workers": 2,
                "ceiling_at_n": 1.6,
                "ceiling_inf": 4.0,
            },
            "consistency": {"checked": True, "violations": []},
        }
        text = render_ledger(record)
        assert "attribution (repetition 0):" in text
        assert "hotspots: match_pass" in text
        assert "consistency: OK" in text
        assert "Amdahl" not in text

    def test_render_ledger_without_attribution_omits_block(self):
        text = render_ledger(make_record())
        assert "attribution" not in text


class TestTunerBlock:
    def test_pre_tuner_ledger_still_loads(self, tmp_path):
        # Ledgers written before the per-level kernel tuner, and since it
        # was removed, have no "tuner" key per repetition; ones written
        # while it existed do.  Both load to the same repetitions.
        rec = make_record()
        path = write_ledger(rec, directory=tmp_path)
        doc = json.loads(path.read_text())
        assert all("tuner" not in rep for rep in doc["repetitions"])
        assert read_ledger(path).repetitions == rec.repetitions
        for rep in doc["repetitions"]:
            rep["tuner"] = None
        path.write_text(json.dumps(doc))
        assert read_ledger(path).repetitions == rec.repetitions


class TestConfigDrift:
    def test_no_drift_on_equal_configs(self):
        assert config_drift(make_record(), make_record(name="b")) == []

    def test_detects_each_drifting_key(self):
        base = make_record()
        new = make_record(name="b")
        new.config = dict(new.config, matcher="sweep", contractor="chains")
        lines = config_drift(base, new)
        assert len(lines) == 2
        joined = "\n".join(lines)
        assert "config.matcher" in joined
        assert "'worklist'" in joined and "'sweep'" in joined
        assert "config.contractor" in joined

    def test_key_absent_on_both_sides_never_drifts(self):
        base, new = make_record(), make_record(name="b")
        assert "contractor" not in base.config
        assert config_drift(base, new) == []

    def test_scorer_drift_detected(self):
        base = make_record()
        new = make_record(name="b")
        new.config = dict(new.config, scorer="conductance")
        lines = config_drift(base, new)
        assert len(lines) == 1
        assert "config.scorer" in lines[0]

    def test_custom_keys(self):
        base = make_record()
        new = make_record(name="b")
        new.config = dict(new.config, seed=99)
        assert config_drift(base, new) == []
        lines = config_drift(base, new, keys=("seed",))
        assert len(lines) == 1 and "config.seed" in lines[0]
