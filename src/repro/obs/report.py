"""Self-contained run reports: trace + timeline + ledger + attribution.

``repro report`` (see :mod:`repro.cli`) turns one run's artifacts into a
single human-readable document — the repro evidence a PR or a paper
comparison attaches:

* the per-phase breakdown (total and self time, contraction share — the
  paper's §IV-C 40–80 % claim, checked on *this* run);
* the per-level table: phase seconds and — when a benchmark ledger
  rides along — the quality curve (modularity / coverage per level);
* the hotspot ranking by self-time (the optimization worklist);
* the consistency-invariant verdict, so a report built from a skewed or
  mis-parented trace says so on its face.

Output is GitHub-flavoured Markdown; ``--html`` additionally wraps it
via a small built-in converter (headings, pipe tables, code fences,
inline code — the subset the report uses) so the HTML file is fully
self-contained: no JavaScript, no external assets, openable offline.

The ledger argument is duck-typed (anything shaped like
:class:`repro.bench.ledger.RunRecord`) so this module never imports the
bench layer — observability stays importable on its own.
"""

from __future__ import annotations

import html as _html
import os
import re
from typing import Any, Sequence

from repro.obs.attribution import attribute_run
from repro.obs.sinks import TraceData, phase_totals
from repro.util.atomicio import atomic_write_text

__all__ = ["render_report", "write_report", "markdown_to_html"]


def _fmt_s(v: float) -> str:
    return f"{v:.4f}"


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """A GitHub-flavoured Markdown pipe table."""
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    lines.extend("| " + " | ".join(r) + " |" for r in rows)
    return "\n".join(lines)


def render_report(
    trace: TraceData,
    *,
    ledger: Any = None,
    title: str = "repro run report",
    attribution: dict | None = None,
) -> str:
    """Render one run's Markdown report.

    ``trace`` is a parsed JSONL trace (:func:`repro.obs.read_trace`);
    ``ledger`` an optional loaded benchmark ledger (duck-typed
    ``RunRecord``) whose repetition statistics and quality curve are
    folded in; ``attribution`` a precomputed block from
    :func:`~repro.obs.attribution.attribute_run` (computed from the
    trace's spans when omitted).
    """
    attr = (
        attribution
        if attribution is not None
        else attribute_run(trace.spans)
    )
    out: list[str] = [f"# {title}", ""]

    # ------------------------------------------------------------- context
    ctx_rows: list[list[str]] = []
    for key, value in sorted(trace.meta.items()):
        ctx_rows.append([str(key), f"`{value}`"])
    if ledger is not None:
        g = getattr(ledger, "graph", {}) or {}
        h = getattr(ledger, "host", {}) or {}
        reps = getattr(ledger, "repetitions", []) or []
        ctx_rows.append(
            [
                "graph",
                f"`{g.get('name', '?')}` "
                f"(\\|V\\|={g.get('n_vertices', '?')}, "
                f"\\|E\\|={g.get('n_edges', '?')})",
            ]
        )
        ctx_rows.append(
            [
                "host",
                f"{h.get('hostname', '?')} ({h.get('cpu_count', '?')} cpus, "
                f"python {h.get('python', '?')})",
            ]
        )
        ctx_rows.append(["repetitions", str(len(reps))])
    ctx_rows.append(["spans", str(len(trace.spans))])
    ctx_rows.append(["trace schema", f"v{trace.version}"])
    out += ["## Run context", "", _table(["key", "value"], ctx_rows), ""]

    # ------------------------------------------------------------- phases
    totals = phase_totals(trace.spans)
    phase_rows = []
    for name in ("score", "match", "contract"):
        p = attr["phases"][name]
        share = totals[name] / totals["total"] if totals["total"] > 0 else 0.0
        phase_rows.append(
            [
                name,
                _fmt_s(p["total_s"]),
                _fmt_s(p["self_s"]),
                str(p["n_spans"]),
                f"{100.0 * share:.1f}%",
            ]
        )
    phase_rows.append(
        ["total", _fmt_s(totals["total"]), "", "", "100.0%"]
    )
    out += [
        "## Phase breakdown",
        "",
        _table(
            ["phase", "total s", "self s", "spans", "share"], phase_rows
        ),
        "",
        f"Contraction share of phase time: "
        f"**{100.0 * totals['contract_share']:.1f}%** "
        f"(the paper reports 40–80% on its inputs).",
        "",
    ]

    # ------------------------------------------------------------- levels
    quality_by_level: dict[int, dict] = {}
    if ledger is not None:
        reps = getattr(ledger, "repetitions", []) or []
        if reps and getattr(reps[0], "quality", None):
            for s in reps[0].quality.get("levels", []):
                quality_by_level[s["level"]] = s
    if attr["levels"]:
        has_quality = bool(quality_by_level)
        headers = ["level", "score s", "match s", "contract s"]
        if has_quality:
            headers += ["communities", "modularity", "coverage"]
        rows = []
        for lv in attr["levels"]:
            row = [
                str(lv["level"]),
                _fmt_s(lv["score_s"]),
                _fmt_s(lv["match_s"]),
                _fmt_s(lv["contract_s"]),
            ]
            if has_quality:
                q = quality_by_level.get(lv["level"])
                row += (
                    [
                        str(q["n_communities"]),
                        f"{q['modularity']:.4f}",
                        f"{q['coverage']:.4f}",
                    ]
                    if q
                    else ["-", "-", "-"]
                )
            rows.append(row)
        out += ["## Per-level timeline", "", _table(headers, rows), ""]

    # ------------------------------------------------------------ hotspots
    if attr["hotspots"]:
        out += [
            "## Hotspots (by self-time)",
            "",
            _table(
                ["rank", "span", "self s", "spans", "share"],
                [
                    [
                        str(i + 1),
                        f"`{h['name']}`",
                        _fmt_s(h["self_s"]),
                        str(h["n_spans"]),
                        f"{100.0 * h['share']:.1f}%",
                    ]
                    for i, h in enumerate(attr["hotspots"])
                ],
            ),
            "",
        ]

    # ------------------------------------------------------------- memory
    mem = attr.get("memory") or {}
    if mem.get("phases"):
        rows = []
        for name in ("score", "match", "contract"):
            p = mem["phases"].get(name)
            if p is None:
                continue
            top = p.get("top_sites") or []
            site = (
                f"`{top[0]['site']}` "
                f"({top[0]['net_bytes'] / 1e6:+.1f} MB)"
                if top
                else "-"
            )
            rows.append(
                [
                    name,
                    str(p["calls"]),
                    f"{p['net_bytes'] / 1e6:+.1f}",
                    f"{p['peak_bytes'] / 1e6:.1f}",
                    site,
                ]
            )
        if rows:
            out += [
                "## Memory attribution",
                "",
                f"Phase-scoped tracemalloc deltas "
                f"(`{mem.get('tool', 'tracemalloc')}`, "
                f"{mem.get('frames', '?')} frame(s) deep); net is "
                "allocation minus frees across the phase, peak is the "
                "traced high-water mark above the phase's entry level.",
                "",
                _table(
                    ["phase", "calls", "net MB", "peak MB", "top site"],
                    rows,
                ),
                "",
            ]

    # ---------------------------------------------------------- telemetry
    if trace.samples:
        series: dict[str, list] = {}
        for s in trace.samples:
            series.setdefault(s.name, []).append(s)
        rows = []
        for name in sorted(series):
            ss = series[name]
            values = [s.value for s in ss]
            span_s = (ss[-1].ts_ns - ss[0].ts_ns) / 1e9
            rows.append(
                [
                    f"`{name}`",
                    str(len(ss)),
                    f"{min(values):.1f}",
                    f"{max(values):.1f}",
                    f"{values[-1]:.1f}",
                    _fmt_s(span_s),
                ]
            )
        out += [
            "## Live telemetry",
            "",
            f"{len(trace.samples)} counter sample(s) across "
            f"{len(series)} series (schema v3 counter tracks; open the "
            "Perfetto export to see the curves).",
            "",
            _table(
                ["series", "samples", "min", "max", "last", "window s"],
                rows,
            ),
            "",
        ]

    # ------------------------------------------------------------- ledger
    if ledger is not None and getattr(ledger, "repetitions", None):
        reps = ledger.repetitions
        rows = []
        for phase in ("score", "match", "contract", "total"):
            values = [
                r.phases[phase]
                for r in reps
                if r.phases and phase in r.phases
            ]
            if values:
                rows.append(
                    [
                        phase,
                        _fmt_s(min(values)),
                        _fmt_s(sorted(values)[len(values) // 2]),
                        _fmt_s(max(values)),
                    ]
                )
        rows.append(
            [
                "end_to_end",
                _fmt_s(min(r.total_s for r in reps)),
                _fmt_s(sorted(r.total_s for r in reps)[len(reps) // 2]),
                _fmt_s(max(r.total_s for r in reps)),
            ]
        )
        out += [
            "## Benchmark ledger",
            "",
            f"`{getattr(ledger, 'name', '?')}` — min/median/max over "
            f"{len(reps)} repetition(s).",
            "",
            _table(["phase", "min s", "median s", "max s"], rows),
            "",
        ]

    # -------------------------------------------------------- consistency
    cons = attr["consistency"]
    out += ["## Trace consistency", ""]
    if cons["violations"]:
        out += [
            f"**{len(cons['violations'])} invariant violation(s)** over "
            f"{cons['checked']} spans — treat the attribution above with "
            "suspicion:",
            "",
        ]
        out += [
            f"- `{v['kind']}` on `{v['span']}` (span {v['span_id']}): "
            f"{v['detail']}"
            for v in cons["violations"]
        ]
        out.append("")
    else:
        out += [
            f"All {cons['checked']} spans satisfy the timing invariants "
            "(child coverage, window containment).",
            "",
        ]
    return "\n".join(out).rstrip() + "\n"


# ------------------------------------------------------------------ HTML
_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       max-width: 60rem; margin: 2rem auto; padding: 0 1rem;
       color: #1f2328; line-height: 1.5; }
h1, h2 { border-bottom: 1px solid #d1d9e0; padding-bottom: .3rem; }
table { border-collapse: collapse; margin: .5rem 0; }
th, td { border: 1px solid #d1d9e0; padding: .25rem .6rem;
         text-align: left; font-variant-numeric: tabular-nums; }
th { background: #f6f8fa; }
code { background: #f6f8fa; padding: .1rem .3rem; border-radius: 4px;
       font-size: .92em; }
pre { background: #f6f8fa; padding: .6rem; overflow-x: auto; }
"""


def _inline_html(text: str) -> str:
    """Escape, then apply the inline Markdown the report emits."""
    s = _html.escape(text, quote=False)
    s = s.replace("\\|", "|")
    s = re.sub(r"`([^`]+)`", r"<code>\1</code>", s)
    s = re.sub(r"\*\*([^*]+)\*\*", r"<strong>\1</strong>", s)
    return s


def markdown_to_html(md: str, *, title: str = "repro report") -> str:
    """Convert the report's Markdown subset to a self-contained HTML page.

    Supports headings, pipe tables, fenced code blocks, bullet lists,
    inline code, and bold — exactly what :func:`render_report` emits.
    Not a general-purpose Markdown engine.
    """
    lines = md.splitlines()
    body: list[str] = []
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("```"):
            block = []
            i += 1
            while i < len(lines) and not lines[i].startswith("```"):
                block.append(_html.escape(lines[i]))
                i += 1
            i += 1
            body.append("<pre>" + "\n".join(block) + "</pre>")
            continue
        m = re.match(r"^(#{1,6})\s+(.*)$", line)
        if m:
            n = len(m.group(1))
            body.append(f"<h{n}>{_inline_html(m.group(2))}</h{n}>")
            i += 1
            continue
        if line.startswith("|"):
            rows = []
            while i < len(lines) and lines[i].startswith("|"):
                cells = [
                    c.strip()
                    for c in re.split(r"(?<!\\)\|", lines[i].strip())[1:-1]
                ]
                rows.append(cells)
                i += 1
            header, data = rows[0], rows[2:] if len(rows) > 2 else []
            parts = ["<table>", "<thead><tr>"]
            parts += [f"<th>{_inline_html(c)}</th>" for c in header]
            parts += ["</tr></thead>", "<tbody>"]
            for r in data:
                parts.append(
                    "<tr>"
                    + "".join(f"<td>{_inline_html(c)}</td>" for c in r)
                    + "</tr>"
                )
            parts += ["</tbody>", "</table>"]
            body.append("".join(parts))
            continue
        if line.startswith("- "):
            items = []
            while i < len(lines) and lines[i].startswith("- "):
                items.append(f"<li>{_inline_html(lines[i][2:])}</li>")
                i += 1
            body.append("<ul>" + "".join(items) + "</ul>")
            continue
        if line.strip():
            body.append(f"<p>{_inline_html(line)}</p>")
        i += 1
    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
        "<meta charset=\"utf-8\">\n"
        f"<title>{_html.escape(title)}</title>\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n"
        + "\n".join(body)
        + "\n</body>\n</html>\n"
    )


def write_report(
    trace: TraceData,
    path: str | os.PathLike,
    *,
    ledger: Any = None,
    title: str = "repro run report",
    as_html: bool = False,
    attribution: dict | None = None,
) -> str:
    """Render and atomically write the report; returns the Markdown text."""
    md = render_report(
        trace, ledger=ledger, title=title, attribution=attribution
    )
    payload = markdown_to_html(md, title=title) if as_html else md
    atomic_write_text(path, payload)
    return md
