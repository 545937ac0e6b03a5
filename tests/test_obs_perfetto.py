"""Tests for Chrome trace-event (Perfetto) export (`repro.obs.perfetto`)."""

from __future__ import annotations

import json

import pytest

from repro.obs import Tracer, to_chrome_trace, write_perfetto
from repro.obs.trace import Span


def make_trace():
    tr = Tracer()
    with tr.span("level", level=0):
        with tr.span("score", level=0) as sp:
            sp.set(items=7, scorer="modularity")
    # A span recorded by another process lands on its own pid's track.
    tr.spans.append(
        Span(
            name="worker_chunk",
            span_id=len(tr.spans),
            start_ns=tr.spans[0].start_ns,
            end_ns=tr.spans[0].end_ns,
            pid=999_999,
            tid=999_999,
            epoch_ns=tr.epoch_ns,
            attrs={"lo": 0, "hi": 7},
        )
    )
    return tr


def complete_events(doc):
    return [e for e in doc["traceEvents"] if e["ph"] == "X"]


def metadata_events(doc):
    return [e for e in doc["traceEvents"] if e["ph"] == "M"]


class TestToChromeTrace:
    def test_one_x_event_per_span(self):
        tr = make_trace()
        doc = to_chrome_trace(tr.spans)
        assert len(complete_events(doc)) == len(tr.spans)

    def test_event_schema(self):
        doc = to_chrome_trace(make_trace().spans)
        for ev in complete_events(doc):
            assert set(ev) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
            assert ev["ts"] >= 0
            assert ev["dur"] >= 0
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)

    def test_timestamps_microseconds_relative_to_origin(self):
        tr = make_trace()
        doc = to_chrome_trace(tr.spans)
        origin_ns = min(s.start_ns for s in tr.spans)
        by_name = {e["name"]: e for e in complete_events(doc)}
        score = next(s for s in tr.spans if s.name == "score")
        assert by_name["score"]["ts"] == pytest.approx(
            (score.start_ns - origin_ns) / 1e3
        )
        assert by_name["score"]["dur"] == pytest.approx(
            score.duration_ns / 1e3
        )

    def test_args_carry_span_identity_level_items_attrs(self):
        doc = to_chrome_trace(make_trace().spans)
        score = next(
            e for e in complete_events(doc) if e["name"] == "score"
        )
        assert score["args"]["level"] == 0
        assert score["args"]["items"] == 7
        assert score["args"]["scorer"] == "modularity"
        assert "span_id" in score["args"] and "parent_id" in score["args"]

    def test_worker_lane_gets_own_process_track(self):
        doc = to_chrome_trace(make_trace().spans)
        lane = next(
            e for e in complete_events(doc) if e["name"] == "worker_chunk"
        )
        assert lane["pid"] == 999_999
        names = {
            (e["pid"], e["args"]["name"])
            for e in metadata_events(doc)
            if e["name"] == "process_name"
        }
        assert (999_999, "worker 999999") in names
        assert any(label == "repro (parent)" for _, label in names)

    def test_thread_name_metadata_per_lane(self):
        doc = to_chrome_trace(make_trace().spans)
        thread_meta = [
            e for e in metadata_events(doc) if e["name"] == "thread_name"
        ]
        lanes = {
            (e["pid"], e["tid"]) for e in complete_events(doc)
        }
        assert {(e["pid"], e["tid"]) for e in thread_meta} == lanes

    def test_v1_spans_without_pid_land_on_one_lane(self):
        spans = [
            Span(name="a", span_id=0, start_ns=0, end_ns=100),
            Span(name="b", span_id=1, parent_id=0, start_ns=10, end_ns=50),
        ]
        doc = to_chrome_trace(spans)
        pids = {e["pid"] for e in complete_events(doc)}
        assert len(pids) == 1

    def test_empty_span_list(self):
        doc = to_chrome_trace([])
        assert complete_events(doc) == []
        assert doc["displayTimeUnit"] == "ms"

    def test_meta_lands_in_other_data(self):
        doc = to_chrome_trace([], meta={"graph": "karate"})
        assert doc["otherData"] == {"graph": "karate"}


class TestWritePerfetto:
    def test_writes_valid_json(self, tmp_path):
        tr = make_trace()
        out = tmp_path / "trace.perfetto.json"
        n = write_perfetto(list(tr.spans), out)
        doc = json.loads(out.read_text())
        assert len(doc["traceEvents"]) == n
        assert len(complete_events(doc)) == len(tr.spans)

    def test_no_tmp_residue(self, tmp_path):
        out = tmp_path / "t.json"
        write_perfetto(list(make_trace().spans), out)
        assert [p.name for p in tmp_path.iterdir()] == ["t.json"]

    def test_failed_write_leaves_no_final_file(self, tmp_path):
        target = tmp_path / "missing-dir" / "t.json"
        with pytest.raises(OSError):
            write_perfetto(list(make_trace().spans), target)
        assert not target.exists()
