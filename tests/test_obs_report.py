"""Tests for the run report renderer (`repro.obs.report`)."""

from __future__ import annotations

import pytest

from repro.bench.ledger import Repetition, RunRecord
from repro.obs import (
    Tracer,
    markdown_to_html,
    read_trace,
    render_report,
    write_report,
    write_trace,
)
from repro.obs.sinks import TraceData


def traced_run():
    tr = Tracer()
    with tr.span("run", graph="toy"):
        with tr.span("level", level=0):
            with tr.span("score", level=0):
                pass
            with tr.span("match", level=0):
                with tr.span("match_pass", level=0):
                    pass
            with tr.span("contract", level=0):
                pass
    return tr


def toy_ledger():
    return RunRecord(
        name="toy",
        graph={"name": "toy", "n_vertices": 34, "n_edges": 78},
        host={"hostname": "box", "cpu_count": 4, "python": "3.12.0"},
        repetitions=[
            Repetition(
                total_s=0.5,
                phases={
                    "score": 0.1,
                    "match": 0.2,
                    "contract": 0.15,
                    "total": 0.45,
                },
                quality={
                    "version": 1,
                    "levels": [
                        {
                            "level": 0,
                            "n_communities": 4,
                            "modularity": 0.41,
                            "coverage": 0.7,
                            "mirror_coverage": 0.3,
                            "merge_fraction": 0.5,
                            "matching_passes": 3,
                            "community_sizes": {"max": 12},
                        }
                    ],
                },
            )
        ],
        created_unix=1.0,
    )


def trace_data(tr):
    return TraceData(meta={"command": "test"}, spans=list(tr.spans))


class TestRenderReport:
    def test_sections_present(self):
        md = render_report(trace_data(traced_run()))
        for heading in (
            "# repro run report",
            "## Run context",
            "## Phase breakdown",
            "## Per-level timeline",
            "## Hotspots (by self-time)",
            "## Trace consistency",
        ):
            assert heading in md
        assert "## Parallel efficiency" not in md
        assert "imbalance" not in md

    def test_ledger_fuses_quality_and_repetitions(self):
        md = render_report(trace_data(traced_run()), ledger=toy_ledger())
        assert "## Benchmark ledger" in md
        assert "0.41" in md  # modularity column
        assert "modularity" in md
        assert "repetitions" in md

    def test_clean_trace_reports_consistent(self):
        md = render_report(trace_data(traced_run()))
        assert "satisfy the timing invariants" in md

    def test_violations_surface_in_report(self):
        from repro.obs.trace import Span

        spans = [
            Span(name="child", span_id=1, parent_id=0, start_ns=0, end_ns=int(5e9)),
            Span(name="parent", span_id=0, start_ns=0, end_ns=int(1e9)),
        ]
        md = render_report(TraceData(spans=spans))
        assert "invariant violation(s)" in md

    def test_custom_title(self):
        md = render_report(trace_data(traced_run()), title="my run")
        assert md.startswith("# my run")

    def test_empty_trace(self):
        md = render_report(TraceData())
        assert "## Trace consistency" in md


class TestMarkdownToHtml:
    def test_structure(self):
        md = render_report(trace_data(traced_run()), ledger=toy_ledger())
        html = markdown_to_html(md, title="t")
        assert html.startswith("<!DOCTYPE html>")
        assert "<table>" in html and "<th>" in html and "<td>" in html
        assert "<h1>" in html and "<h2>" in html

    def test_self_contained(self):
        html = markdown_to_html(render_report(TraceData()), title="t")
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html

    def test_escapes_html(self):
        html = markdown_to_html("plain <b>not bold</b> text", title="t")
        assert "<b>not bold</b>" not in html
        assert "&lt;b&gt;" in html

    def test_inline_code_and_bold(self):
        html = markdown_to_html("use `repro` and **this**", title="t")
        assert "<code>repro</code>" in html
        assert "<strong>this</strong>" in html

    def test_bullets(self):
        html = markdown_to_html("- one\n- two", title="t")
        assert "<ul><li>one</li><li>two</li></ul>" in html


class TestWriteReport:
    def test_markdown_file(self, tmp_path):
        out = tmp_path / "r.md"
        md = write_report(trace_data(traced_run()), out)
        assert out.read_text() == md

    def test_html_file(self, tmp_path):
        out = tmp_path / "r.html"
        write_report(trace_data(traced_run()), out, as_html=True)
        assert out.read_text().startswith("<!DOCTYPE html>")

    def test_no_tmp_residue(self, tmp_path):
        out = tmp_path / "r.md"
        write_report(TraceData(), out)
        assert [p.name for p in tmp_path.iterdir()] == ["r.md"]

    def test_round_trip_from_disk(self, tmp_path):
        tr = traced_run()
        trace_path = tmp_path / "t.jsonl"
        write_trace(tr, trace_path, meta={"command": "test"})
        md = render_report(read_trace(trace_path))
        assert "## Phase breakdown" in md
        assert "match_pass" in md

    def test_failed_write_leaves_no_final_file(self, tmp_path):
        target = tmp_path / "missing" / "r.md"
        with pytest.raises(OSError):
            write_report(TraceData(), target)
        assert not target.exists()
