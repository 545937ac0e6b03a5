"""Performance attribution: self-times, worker lanes, critical path.

The span tracer records *where time went*; this module answers *why the
run was that fast and no faster* — the questions behind the paper's
scalability analysis (contraction at 40–80 % of runtime, speed-up
flattening past the memory bandwidth knee):

* **self-time** — a span's duration minus its direct children, i.e. the
  time attributable to that region's own code rather than the regions
  it called.  :func:`hotspots` ranks span names by total self-time, the
  profile a kernel optimization effort starts from.
* **worker lanes** — ``worker_chunk`` spans are the flight records
  workers self-measure and ship home (see :mod:`repro.parallel.pool`):
  per-worker busy time, queue wait, and load-imbalance ratio
  (max / mean busy time — 1.0 is a perfectly balanced pool).
* **serial fraction & Amdahl ceiling** — the share of the run that
  never enters a multi-worker region bounds any achievable speed-up:
  ``ceiling(N) = 1 / (f + (1 - f) / N)``.
* **consistency invariant** — in a well-formed trace every parent span
  covers its children: the direct children of a sequential span sum to
  at most the parent's duration, and worker lanes fit inside their pool
  region with at most ``n_workers``-fold overlap.
  :func:`consistency_report` re-derives both from the raw spans, so a
  broken clock, a mis-parented span, or a lane from a foreign clock
  domain is caught instead of silently skewing the attribution.

:func:`attribute_run` bundles everything into the JSON-ready
``attribution`` block the benchmark ledger embeds per repetition
(:mod:`repro.bench.ledger`) and the run report renders
(:mod:`repro.obs.report`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from repro.obs.trace import Span

__all__ = [
    "ATTRIBUTION_SCHEMA_VERSION",
    "WORKER_LANE_SPAN",
    "self_times",
    "hotspots",
    "worker_stats",
    "load_imbalance",
    "serial_fraction",
    "amdahl_ceiling",
    "consistency_report",
    "attribute_run",
]

#: Version of the attribution block schema embedded in ledgers.
ATTRIBUTION_SCHEMA_VERSION = 1

#: Span name of worker flight-recorder lanes.  These overlap in time by
#: design (that is the parallelism), so tree computations (self-time,
#: sequential-coverage checks) exclude them and lane computations
#: (busy time, imbalance) use only them.
WORKER_LANE_SPAN = "worker_chunk"

#: The pipeline phases attribution reports per level.
_PHASES = ("score", "match", "contract")


def _by_id(spans: Sequence[Span]) -> dict[int, Span]:
    return {s.span_id: s for s in spans}


def _level_of(span: Span, by_id: dict[int, Span]) -> int | None:
    """The agglomeration level a span belongs to (walking ancestors)."""
    seen: set[int] = set()
    cur: Span | None = span
    while cur is not None and cur.span_id not in seen:
        if cur.level is not None:
            return cur.level
        seen.add(cur.span_id)
        cur = by_id.get(cur.parent_id) if cur.parent_id is not None else None
    return None


# --------------------------------------------------------------- self-time
def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Seconds attributable to each span's own code, keyed by span id.

    Self-time is duration minus the summed durations of *direct*
    children.  Worker lanes (:data:`WORKER_LANE_SPAN`) are excluded from
    both sides: they are a parallel overlay of work the parent-side
    ``pool_chunk`` spans already account for, and their overlap would
    drive sequential parents negative.  Values are clamped at zero —
    a slightly negative residue just means children covered the parent
    completely (timer granularity).
    """
    children_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.name == WORKER_LANE_SPAN:
            continue
        if s.parent_id is not None:
            children_s[s.parent_id] += s.duration_s
    return {
        s.span_id: max(0.0, s.duration_s - children_s[s.span_id])
        for s in spans
        if s.name != WORKER_LANE_SPAN
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
        if s.name == WORKER_LANE_SPAN:
            continue
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


# ------------------------------------------------------------ worker lanes
def load_imbalance(busy_s: dict | Iterable[float]) -> float:
    """Max / mean worker busy time; 1.0 is perfect balance, 0.0 no data."""
    values = list(busy_s.values() if isinstance(busy_s, dict) else busy_s)
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    return max(values) / mean if mean > 0 else 0.0


def worker_stats(spans: Sequence[Span]) -> dict:
    """Per-worker busy time, queue wait, and imbalance from flight lanes.

    Uses ``worker_chunk`` lanes when the run executed on worker
    processes; falls back to parent-side ``pool_chunk`` spans (which
    carry real exec windows on the inline path) so serial runs still get
    a — trivially balanced — lane analysis.  Returns::

        {"source": "worker_chunk" | "pool_chunk" | None,
         "n_lanes": N, "busy_s": {"<pid>": s, ...},
         "n_chunks": N, "imbalance": max/mean,
         "queue_wait_s": total, "exec_s": total}
    """
    lanes = [s for s in spans if s.name == WORKER_LANE_SPAN]
    source = WORKER_LANE_SPAN
    if not lanes:
        lanes = [
            s
            for s in spans
            if s.name == "pool_chunk" and s.duration_s > 0
        ]
        source = "pool_chunk" if lanes else None
    busy: dict[str, float] = defaultdict(float)
    queue_wait = 0.0
    for s in lanes:
        busy[str(s.pid if s.pid is not None else 0)] += s.duration_s
        qw = s.attrs.get("queue_wait_s")
        if qw is not None:
            queue_wait += float(qw)
    return {
        "source": source,
        "n_lanes": len(busy),
        "busy_s": dict(sorted(busy.items())),
        "n_chunks": len(lanes),
        "imbalance": load_imbalance(busy),
        "queue_wait_s": queue_wait,
        "exec_s": sum(busy.values()),
    }


# -------------------------------------------------- serial fraction / Amdahl
def _parallel_regions(spans: Sequence[Span]) -> list[Span]:
    """Spans during which more than one worker could be busy."""
    return [
        s
        for s in spans
        if s.name == "pool_run" and s.attrs.get("mode") == "processes"
    ]


def _roots(spans: Sequence[Span]) -> list[Span]:
    ids = {s.span_id for s in spans}
    return [s for s in spans if s.parent_id is None or s.parent_id not in ids]


def serial_fraction(spans: Sequence[Span]) -> dict:
    """The Amdahl decomposition of a traced run.

    ``total_s`` is the summed duration of the root span(s);
    ``parallel_s`` the time inside multi-worker pool regions
    (``pool_run`` spans in process mode); ``serial_s`` the remainder;
    ``fraction`` = serial share of total (1.0 for a fully serial run).
    """
    roots = _roots(spans)
    total = sum(s.duration_s for s in roots)
    parallel = sum(s.duration_s for s in _parallel_regions(spans))
    parallel = min(parallel, total)
    serial = total - parallel
    return {
        "total_s": total,
        "parallel_s": parallel,
        "serial_s": serial,
        "fraction": serial / total if total > 0 else 1.0,
    }


def amdahl_ceiling(serial_frac: float, n_workers: float) -> float:
    """Amdahl's-law speed-up bound for a serial fraction at N workers.

    ``amdahl_ceiling(f, inf)`` (``math.inf``) gives the asymptotic
    ceiling ``1/f``.
    """
    if not 0.0 <= serial_frac <= 1.0:
        raise ValueError(f"serial fraction must be in [0, 1], got {serial_frac}")
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if serial_frac == 0.0:
        return float(n_workers)
    denom = serial_frac + (1.0 - serial_frac) / n_workers
    return 1.0 / denom


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

    * **coverage** — direct sequential children sum to at most the
      parent's duration (children partition the parent, so child
      self-times sum to the parent within the same tolerance);
    * **containment** — each sequential child's window lies inside the
      parent's window (same process, same clock);
    * **lane overlap** — worker lanes under a pool region sum to at most
      ``n_workers ×`` the region's duration, and each lane's window ends
      inside the region's (lanes start after the submit stamp, so only
      the end needs the clock-domain check).

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
        seq = [k for k in kids if k.name != WORKER_LANE_SPAN]
        lanes = [k for k in kids if k.name == WORKER_LANE_SPAN]
        seq_total = sum(k.duration_s for k in seq)
        if seq_total > parent.duration_s + tol:
            violation(
                "coverage",
                parent,
                f"children sum to {seq_total:.6f}s but parent spans "
                f"{parent.duration_s:.6f}s (tol {tol:.6f}s)",
            )
        for k in seq:
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
        if lanes:
            n_workers = int(parent.attrs.get("n_workers", 1)) or 1
            lane_total = sum(k.duration_s for k in lanes)
            budget = parent.duration_s * n_workers
            if lane_total > budget + tol * n_workers:
                violation(
                    "lane_overlap",
                    parent,
                    f"worker lanes sum to {lane_total:.6f}s but the pool "
                    f"region allows {budget:.6f}s "
                    f"({n_workers} workers × {parent.duration_s:.6f}s)",
                )
            for k in lanes:
                if k.end_ns > parent.end_ns + tol_ns:
                    violation(
                        "containment",
                        k,
                        f"worker lane ends at {k.end_ns} after its pool "
                        f"region {parent.name} at {parent.end_ns} "
                        "(foreign clock domain?)",
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
    ``repro report`` renders: per-phase totals and self-times,
    a per-level breakdown with per-level worker imbalance, the hotspot
    ranking, worker-lane statistics, the serial fraction with Amdahl
    ceilings, and the consistency-invariant verdict.  ``memory`` is the
    optional phase memory-attribution report from
    :meth:`repro.obs.memprof.PhaseMemoryProfiler.report` — when given
    (non-empty) it embeds as the ``"memory"`` block, so time and
    allocation attribution travel in one document.
    """
    spans = list(spans)
    by_id = _by_id(spans)
    selfs = self_times(spans)

    # ``self_s`` here is the phase span's *own* residue — time not in any
    # child span (kernel sub-spans, pool regions) — so a phase whose total
    # dwarfs its self-time is fully explained by its children and one
    # whose self-time dominates hides untraced work.
    phases: dict[str, dict] = {
        p: {"total_s": 0.0, "self_s": 0.0, "n_spans": 0} for p in _PHASES
    }
    for s in spans:
        if s.name in _PHASES:
            phases[s.name]["total_s"] += s.duration_s
            phases[s.name]["self_s"] += selfs[s.span_id]
            phases[s.name]["n_spans"] += 1

    # Per-level: phase seconds plus the level's own lane imbalance.
    level_phase: dict[int, dict[str, float]] = defaultdict(
        lambda: {p: 0.0 for p in _PHASES}
    )
    level_lanes: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.name in _PHASES and s.level is not None:
            level_phase[s.level][s.name] += s.duration_s
        if s.name == WORKER_LANE_SPAN:
            lvl = _level_of(s, by_id)
            if lvl is not None:
                level_lanes[lvl].append(s)
    levels = []
    for lvl in sorted(level_phase):
        busy: dict[str, float] = defaultdict(float)
        for s in level_lanes.get(lvl, ()):
            busy[str(s.pid if s.pid is not None else 0)] += s.duration_s
        t = level_phase[lvl]
        levels.append(
            {
                "level": lvl,
                **{f"{p}_s": t[p] for p in _PHASES},
                "total_s": sum(t.values()),
                "imbalance": load_imbalance(busy),
            }
        )

    workers = worker_stats(spans)
    amdahl = serial_fraction(spans)
    # Pool width comes from span attrs (``pool_run``/``agglomeration``
    # stamp it), not from counting lane pids: a fork-per-chunk pool
    # leaves one pid per chunk, which would wildly overstate N.
    n_workers = max(
        (
            int(s.attrs["n_workers"])
            for s in spans
            if "n_workers" in s.attrs
        ),
        default=0,
    ) or max(workers["n_lanes"], 1)
    violations = consistency_report(
        spans, rel_tol=rel_tol, abs_tol_s=abs_tol_s
    )
    out = {
        "version": ATTRIBUTION_SCHEMA_VERSION,
        "phases": phases,
        "levels": levels,
        "hotspots": hotspots(spans, top=top_hotspots),
        "workers": workers,
        "serial": amdahl,
        "amdahl": {
            "serial_fraction": amdahl["fraction"],
            "n_workers": n_workers,
            "ceiling_at_n": amdahl_ceiling(amdahl["fraction"], n_workers),
            "ceiling_inf": (
                1.0 / amdahl["fraction"]
                if amdahl["fraction"] > 0
                else float("inf")
            ),
        },
        "consistency": {
            "checked": len(spans),
            "violations": violations,
        },
    }
    if memory:
        out["memory"] = memory
    return out
