"""Unit tests for JSONL trace export/import and the profile renderer."""

import json

import pytest

from repro.errors import ReproError
from repro.obs.metrics import run_metrics
from repro.obs.sinks import (
    UnknownTraceRecordWarning,
    phase_totals,
    read_trace,
    render_profile,
    write_trace,
)
from repro.obs.trace import SCHEMA_VERSION, NullTracer, Span, Tracer


def make_tracer(n_levels: int = 2) -> Tracer:
    tr = Tracer()
    with tr.span("run", graph="toy"):
        for lvl in range(n_levels):
            with tr.span(
                "level", level=lvl, n_vertices=100 >> lvl, n_edges=400 >> lvl
            ):
                with tr.span("score", level=lvl) as sp:
                    sp.set(items=400 >> lvl)
                with tr.span("match", level=lvl) as sp:
                    with tr.span("match_pass", pass_index=1) as pp:
                        pp.set(live_edges=37 >> lvl)
                    sp.set(passes=1)
                with tr.span("contract", level=lvl):
                    pass
    with tr.span("guardian_breach", level=0, kind="phase_deadline"):
        pass
    return tr


class TestRoundTrip:
    def test_spans_survive(self, tmp_path):
        tr = make_tracer()
        path = tmp_path / "t.jsonl"
        n = write_trace(tr, path, meta={"who": "test"})
        data = read_trace(path)
        assert data.complete
        assert data.version == SCHEMA_VERSION
        assert data.meta == {"who": "test"}
        assert len(data.spans) == n == len(tr.spans)
        for orig, loaded in zip(tr.spans, data.spans):
            assert loaded.name == orig.name
            assert loaded.span_id == orig.span_id
            assert loaded.parent_id == orig.parent_id
            assert loaded.level == orig.level
            assert loaded.start_ns == orig.start_ns
            assert loaded.end_ns == orig.end_ns
            assert loaded.items == orig.items
            assert loaded.attrs == orig.attrs

    def test_metrics_survive(self, tmp_path):
        tr = make_tracer()
        path = tmp_path / "t.jsonl"
        write_trace(tr, path)
        data = read_trace(path)
        assert data.counters == {"guardian.breaches": 1}
        assert data.gauges["match.worklist_edges"] == {
            "value": 18.0, "min": 18.0, "max": 37.0, "n_sets": 2,
        }
        h = data.histograms["agglomeration.matching_passes"]
        assert h["counts"][0] == h["total"] == 2
        # The records are the spans' metrics, and they survive a read.
        assert {
            "counters": data.counters,
            "gauges": data.gauges,
            "histograms": data.histograms,
        } == run_metrics(tr.spans) == run_metrics(data.spans)

    def test_jsonl_one_object_per_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(make_tracer(), path)
        lines = path.read_text().strip().splitlines()
        events = [json.loads(ln) for ln in lines]
        assert events[0]["event"] == "header"
        assert events[0]["schema"] == "repro-run-trace"
        assert events[-1]["event"] == "end"

    def test_null_tracer_writes_valid_empty_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert write_trace(NullTracer(), path) == 0
        data = read_trace(path)
        assert data.complete
        assert data.spans == []

    def test_find(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(make_tracer(3), path)
        data = read_trace(path)
        assert len(data.find("contract")) == 3

    def test_counter_samples_survive(self, tmp_path):
        tr = make_tracer()
        tr.record_counter("rss_anon_mb", 12.5, ts_ns=100, unit="MiB")
        tr.record_counter("rss_anon_mb", 13.0, ts_ns=200, unit="MiB")
        path = tmp_path / "t.jsonl"
        write_trace(tr, path)
        data = read_trace(path)
        series = data.sample_series("rss_anon_mb")
        assert [(s.ts_ns, s.value) for s in series] == [
            (100, 12.5),
            (200, 13.0),
        ]
        assert all(s.unit == "MiB" for s in series)

    def test_unknown_record_kinds_skipped_with_warning(self, tmp_path):
        # Forward compatibility within a known version: record kinds
        # this reader has never heard of are skipped and counted, and
        # the file still loads.
        tr = make_tracer(1)
        path = tmp_path / "t.jsonl"
        write_trace(tr, path)
        lines = path.read_text().splitlines()
        lines.insert(1, json.dumps({"event": "wibble", "x": 1}))
        lines.insert(2, json.dumps({"event": "wibble", "x": 2}))
        lines.insert(
            3,
            json.dumps(
                {
                    "event": "counter_sample",
                    "type": "flamegraph",  # unknown inner type
                    "name": "n",
                    "ts_ns": 1,
                    "value": 0,
                }
            ),
        )
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(UnknownTraceRecordWarning, match="wibble"):
            data = read_trace(path)
        assert data.complete
        assert data.skipped_records == 3
        assert len(data.spans) == len(tr.spans)
        assert data.samples == []


class TestReadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            read_trace(tmp_path / "nope.jsonl")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text("")
        with pytest.raises(ReproError, match="empty"):
            read_trace(p)

    def test_not_jsonl(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text("this is not json\n")
        with pytest.raises(ReproError, match="not valid JSONL"):
            read_trace(p)

    def test_wrong_schema(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text(json.dumps({"event": "header", "schema": "other"}) + "\n")
        with pytest.raises(ReproError, match="not a repro-run-trace"):
            read_trace(p)

    def test_newer_version_loads_best_effort(self, tmp_path):
        # Forward compatibility: a v99 header warns but does not refuse.
        p = tmp_path / "t.jsonl"
        p.write_text(
            json.dumps(
                {"event": "header", "schema": "repro-run-trace", "version": 99}
            )
            + "\n"
        )
        with pytest.warns(UnknownTraceRecordWarning, match="newer than"):
            data = read_trace(p)
        assert data.version == 99
        assert data.spans == []

    def test_non_integer_version_rejected(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text(
            json.dumps(
                {
                    "event": "header",
                    "schema": "repro-run-trace",
                    "version": "zzz",
                }
            )
            + "\n"
        )
        with pytest.raises(ReproError, match="unsupported trace version"):
            read_trace(p)

    def test_truncated_trace_not_complete(self, tmp_path):
        full = tmp_path / "full.jsonl"
        write_trace(make_tracer(), full)
        lines = full.read_text().strip().splitlines()
        cut = tmp_path / "cut.jsonl"
        cut.write_text("\n".join(lines[:-1]) + "\n")  # drop the trailer
        assert not read_trace(cut).complete

    def test_span_count_mismatch(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text(
            json.dumps(
                {"event": "header", "schema": "repro-run-trace", "version": 1}
            )
            + "\n"
            + json.dumps({"event": "end", "n_spans": 7})
            + "\n"
        )
        with pytest.raises(ReproError, match="trailer"):
            read_trace(p)


class TestPhaseTotals:
    def test_sums_and_share(self):
        tr = make_tracer()
        totals = phase_totals(list(tr.spans))
        assert set(totals) == {
            "score",
            "match",
            "contract",
            "total",
            "contract_share",
        }
        assert totals["total"] == pytest.approx(
            totals["score"] + totals["match"] + totals["contract"]
        )
        assert 0.0 <= totals["contract_share"] <= 1.0

    def test_empty(self):
        totals = phase_totals([])
        assert totals["total"] == 0.0
        assert totals["contract_share"] == 0.0


class TestRenderProfile:
    def test_table_contents(self):
        tr = make_tracer(2)
        out = render_profile(list(tr.spans))
        assert "phase profile — toy" in out
        assert "score ms" in out
        assert "contract %" in out
        assert "contraction share of phase time:" in out
        # one row per level plus the totals row
        assert out.count("\n") >= 5

    def test_level_attrs_rendered(self):
        tr = make_tracer(1)
        out = render_profile(list(tr.spans))
        assert "100" in out  # n_vertices of level 0
        assert "400" in out  # n_edges of level 0

    def test_no_spans(self):
        assert "no spans" in render_profile([])

    def test_spans_without_phases(self):
        tr = Tracer()
        with tr.span("something_else"):
            pass
        assert "no phase spans" in render_profile(list(tr.spans))

    def test_multiple_runs_get_separate_tables(self):
        tr = Tracer()
        for gname in ("g1", "g2"):
            with tr.span("run", graph=gname):
                with tr.span("level", level=0):
                    with tr.span("score", level=0):
                        pass
                    with tr.span("match", level=0):
                        pass
                    with tr.span("contract", level=0):
                        pass
        out = render_profile(list(tr.spans))
        assert "phase profile — g1" in out
        assert "phase profile — g2" in out


class TestAtomicWrite:
    def test_no_tmp_residue(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(make_tracer(), path)
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]

    def test_failed_export_leaves_previous_trace_intact(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(make_tracer(n_levels=1), path)
        bad = Tracer()
        with bad.span("run", blob=object()):  # not JSON-serializable
            pass
        with pytest.raises(TypeError):
            write_trace(bad, path)
        # the old file survived the failed overwrite, still complete
        data = read_trace(path, require_complete=True)
        assert data.complete
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]


class TestEmptyAndTruncated:
    def test_null_tracer_round_trips_empty(self, tmp_path):
        path = tmp_path / "t.jsonl"
        n = write_trace(NullTracer(), path)
        assert n == 0
        data = read_trace(path, require_complete=True)
        assert data.spans == []
        assert data.counters == {}
        # zero-span summaries degrade gracefully
        totals = phase_totals(data.spans)
        assert totals["total"] == 0.0
        assert totals["contract_share"] == 0.0
        assert "no spans" in render_profile(data.spans)

    def test_require_complete_rejects_trailerless_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(make_tracer(), path)
        lines = path.read_text().splitlines()
        assert json.loads(lines[-1])["event"] == "end"
        path.write_text("\n".join(lines[:-1]) + "\n")
        # the default is lenient: truncated traces still load...
        assert not read_trace(path).complete
        # ...but an explicit completeness demand rejects them.
        with pytest.raises(ReproError, match="no end trailer"):
            read_trace(path, require_complete=True)


class TestSchemaV2:
    """v2 traces carry pid/tid/epoch_ns; v1 files still load."""

    def test_round_trip_preserves_identity_fields(self, tmp_path):
        tr = Tracer()
        with tr.span("pool_run") as handle:
            pass
        # A span recorded by another process keeps its own pid and tid.
        tr.spans.append(
            Span(
                name="worker_chunk",
                span_id=handle.span.span_id + 1,
                parent_id=handle.span.span_id,
                start_ns=1,
                end_ns=2,
                pid=4242,
                tid=4242,
                epoch_ns=tr.epoch_ns,
                attrs={"queue_wait_s": 0.1},
            )
        )
        path = tmp_path / "t.jsonl"
        write_trace(tr, path)
        loaded = read_trace(path).spans
        by_name = {s.name: s for s in loaded}
        lane = by_name["worker_chunk"]
        assert lane.pid == 4242 and lane.tid == 4242
        root = by_name["pool_run"]
        assert root.pid == handle.span.pid
        assert root.tid == handle.span.tid
        assert root.epoch_ns == tr.epoch_ns

    def test_v1_file_loads_with_defaults(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        lines = [
            json.dumps(
                {
                    "event": "header",
                    "schema": "repro-run-trace",
                    "version": 1,
                    "meta": {"command": "old"},
                }
            ),
            json.dumps(
                {
                    "event": "span",
                    "id": 0,
                    "parent": None,
                    "name": "run",
                    "level": None,
                    "start_ns": 0,
                    "end_ns": 100,
                    "duration_s": 1e-7,
                    "items": 0,
                    "attrs": {},
                }
            ),
            json.dumps({"event": "end", "n_spans": 1}),
        ]
        path.write_text("\n".join(lines) + "\n")
        data = read_trace(path)
        span = data.spans[0]
        assert span.pid is None
        assert span.tid is None
        assert span.epoch_ns == 0

    def test_written_meta_declares_v3(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(make_tracer(1), path)
        meta = json.loads(path.read_text().splitlines()[0])
        assert meta["version"] == SCHEMA_VERSION == 3
