"""Performance attribution: self-times, hotspots, trace consistency.

The span tracer records *where time went*; this module answers *why the
run was that fast and no faster* — the questions behind the paper's
per-phase analysis (contraction at 40–80 % of runtime):

* **self-time** — a span's duration minus its direct children, i.e. the
  time attributable to that region's own code rather than the regions
  it called.  :func:`hotspots` ranks span names by total self-time, the
  profile a kernel optimization effort starts from.
* **consistency invariant** — in a well-formed trace every parent span
  covers its children: the direct children of a span sum to at most the
  parent's duration, and each child's window lies inside its parent's.
  :func:`consistency_report` re-derives both from the raw spans, so a
  broken clock or a mis-parented span is caught instead of silently
  skewing the attribution.

:func:`attribute_run` bundles everything into the JSON-ready
``attribution`` block the benchmark ledger embeds per repetition
(:mod:`repro.bench.ledger`) and the run report renders
(:mod:`repro.obs.report`).
"""
from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from repro.obs.trace import Span

__all__ = [
    "ATTRIBUTION_SCHEMA_VERSION",
    "self_times",
    "hotspots",
    "consistency_report",
    "attribute_run",
]

#: Version of the attribution block schema embedded in ledgers.
ATTRIBUTION_SCHEMA_VERSION = 1

#: The pipeline phases attribution reports per level.
_PHASES = ("score", "match", "contract")


def _by_id(spans: Sequence[Span]) -> dict[int, Span]:
    return {s.span_id: s for s in spans}


# --------------------------------------------------------------- self-time
def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Seconds attributable to each span's own code, keyed by span id.

    Self-time is duration minus the summed durations of *direct*
    children.  Values are clamped at zero — a slightly negative residue
    just means children covered the parent completely (timer
    granularity).
    """
    children_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent_id is not None:
            children_s[s.parent_id] += s.duration_s
    return {
        s.span_id: max(0.0, s.duration_s - children_s[s.span_id])
        for s in spans
    }


def hotspots(spans: Sequence[Span], *, top: int = 8) -> list[dict]:
    """Span names ranked by total self-time (the optimization worklist).

    Returns ``[{"name", "self_s", "n_spans", "share"}, ...]`` sorted by
    descending self-time; ``share`` is the fraction of total self-time
    across all spans (which equals total traced wall time, since
    self-times partition the span tree).
    """
    selfs = self_times(spans)
    agg: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
    for s in spans:
        agg[s.name][0] += selfs[s.span_id]
        agg[s.name][1] += 1
    total = sum(v[0] for v in agg.values())
    ranked = sorted(agg.items(), key=lambda kv: kv[1][0], reverse=True)
    return [
        {
            "name": name,
            "self_s": t,
            "n_spans": int(n),
            "share": t / total if total > 0 else 0.0,
        }
        for name, (t, n) in ranked[:top]
    ]


# -------------------------------------------------------------- consistency
def consistency_report(
    spans: Sequence[Span],
    *,
    rel_tol: float = 0.05,
    abs_tol_s: float = 0.005,
) -> list[dict]:
    """Violations of the span-tree timing invariants (empty = consistent).

    Checks, per parent span (tolerance = ``abs_tol_s + rel_tol × parent
    duration``):

    * **coverage** — direct children sum to at most the parent's
      duration (children partition the parent, so child self-times sum
      to the parent within the same tolerance);
    * **containment** — each child's window lies inside the parent's
      window (same process, same clock).

    Returns one dict per violation: ``{"kind", "span", "span_id",
    "detail"}``.
    """
    by_id = _by_id(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None and s.parent_id in by_id:
            children[s.parent_id].append(s)
    out: list[dict] = []

    def violation(kind: str, span: Span, detail: str) -> None:
        out.append(
            {
                "kind": kind,
                "span": span.name,
                "span_id": span.span_id,
                "detail": detail,
            }
        )

    for pid_, kids in children.items():
        parent = by_id[pid_]
        tol = abs_tol_s + rel_tol * parent.duration_s
        tol_ns = int(tol * 1e9)
        kids_total = sum(k.duration_s for k in kids)
        if kids_total > parent.duration_s + tol:
            violation(
                "coverage",
                parent,
                f"children sum to {kids_total:.6f}s but parent spans "
                f"{parent.duration_s:.6f}s (tol {tol:.6f}s)",
            )
        for k in kids:
            if (
                k.start_ns < parent.start_ns - tol_ns
                or k.end_ns > parent.end_ns + tol_ns
            ):
                violation(
                    "containment",
                    k,
                    f"child window [{k.start_ns}, {k.end_ns}] escapes "
                    f"parent {parent.name} [{parent.start_ns}, "
                    f"{parent.end_ns}]",
                )
    return out


# -------------------------------------------------------------- the block
def attribute_run(
    spans: Sequence[Span],
    *,
    top_hotspots: int = 8,
    rel_tol: float = 0.05,
    abs_tol_s: float = 0.005,
    memory: dict | None = None,
) -> dict:
    """The JSON-ready attribution block for one traced run.

    This is what the benchmark ledger embeds per repetition and
    ``repro report`` renders: per-phase totals and self-times, a
    per-level breakdown, the hotspot ranking, and the
    consistency-invariant verdict.  ``memory`` is the optional phase
    memory-attribution report from
    :meth:`repro.obs.memprof.PhaseMemoryProfiler.report` — when given
    (non-empty) it embeds as the ``"memory"`` block, so time and
    allocation attribution travel in one document.
    """
    spans = list(spans)
    selfs = self_times(spans)

    # ``self_s`` here is the phase span's *own* residue — time not in any
    # child span (kernel sub-spans) — so a phase whose total dwarfs its
    # self-time is fully explained by its children and one whose
    # self-time dominates hides untraced work.
    phases: dict[str, dict] = {
        p: {"total_s": 0.0, "self_s": 0.0, "n_spans": 0} for p in _PHASES
    }
    for s in spans:
        if s.name in _PHASES:
            phases[s.name]["total_s"] += s.duration_s
            phases[s.name]["self_s"] += selfs[s.span_id]
            phases[s.name]["n_spans"] += 1

    level_phase: dict[int, dict[str, float]] = defaultdict(
        lambda: {p: 0.0 for p in _PHASES}
    )
    for s in spans:
        if s.name in _PHASES and s.level is not None:
            level_phase[s.level][s.name] += s.duration_s
    levels = []
    for lvl in sorted(level_phase):
        t = level_phase[lvl]
        levels.append(
            {
                "level": lvl,
                **{f"{p}_s": t[p] for p in _PHASES},
                "total_s": sum(t.values()),
            }
        )

    violations = consistency_report(
        spans, rel_tol=rel_tol, abs_tol_s=abs_tol_s
    )
    out = {
        "version": ATTRIBUTION_SCHEMA_VERSION,
        "phases": phases,
        "levels": levels,
        "hotspots": hotspots(spans, top=top_hotspots),
        "consistency": {
            "checked": len(spans),
            "violations": violations,
        },
    }
    if memory:
        out["memory"] = memory
    return out
