"""Chrome trace-event (Perfetto) export for run traces.

Converts a span list into the JSON trace-event format that
``ui.perfetto.dev`` and ``chrome://tracing`` open directly, so a run's
per-level score/match/contract pipeline becomes a zoomable timeline
instead of a table.

The mapping:

* every span becomes one complete event (``"ph": "X"``) with ``ts`` and
  ``dur`` in microseconds, relative to the earliest span start in the
  trace (Perfetto only needs a common origin, not absolute time);
* ``pid``/``tid`` place each span on its lane — a span carries the OS
  pid of the process that recorded it, so a span from another process
  renders as its own process track beside the parent;
* metadata events (``"ph": "M"``) name the tracks: the process of the
  first span becomes ``repro (parent)``, any other ``worker <pid>``;
* span level, item count, and attributes ride along in ``args``;
* telemetry counter samples (schema v3) become counter events
  (``"ph": "C"``) — Perfetto renders each distinct sample name as its
  own counter track (e.g. ``rss_anon_mb`` as a memory curve) above the
  span lanes, sharing the same time origin.

No external dependency is involved: the format is plain JSON with a
``traceEvents`` array (`Trace Event Format`_, the stable subset
Perfetto ingests).

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
import os
from typing import Sequence

from repro.obs.trace import CounterSample, Span
from repro.util.atomicio import atomic_write

__all__ = ["to_chrome_trace", "write_perfetto"]


def _lane(span: Span, parent_pid: int) -> tuple[int, int]:
    """(pid, tid) track placement for a span."""
    pid = span.pid if span.pid is not None else parent_pid
    tid = span.tid if span.tid is not None else pid
    return pid, tid


def to_chrome_trace(
    spans: Sequence[Span],
    *,
    samples: Sequence[CounterSample] | None = None,
    meta: dict | None = None,
) -> dict:
    """Build the Chrome trace-event JSON object for a span list.

    Returns ``{"traceEvents": [...], "displayTimeUnit": "ms",
    "otherData": {...}}``.  Works on v1 traces too (spans without
    pid/tid land on a single synthetic lane).  ``samples`` (telemetry
    counter time series, schema v3) render as counter tracks.
    """
    spans = list(spans)
    samples = list(samples or ())
    events: list[dict] = []
    starts = [s.start_ns for s in spans] + [s.ts_ns for s in samples]
    parent_pid = next(
        (s.pid for s in (spans or samples) if s.pid is not None), os.getpid()
    )
    origin_ns = min(starts) if starts else 0

    lanes: set[tuple[int, int]] = set()
    counter_pids: set[int] = set()
    for s in spans:
        pid, tid = _lane(s, parent_pid)
        lanes.add((pid, tid))
        args: dict = {"span_id": s.span_id}
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        if s.level is not None:
            args["level"] = s.level
        if s.items:
            args["items"] = s.items
        args.update(s.attrs)
        events.append(
            {
                "name": s.name,
                "cat": "repro",
                "ph": "X",
                "ts": (s.start_ns - origin_ns) / 1e3,
                "dur": s.duration_ns / 1e3,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )

    for s in samples:
        # One "ph": "C" event per sample; Perfetto groups events sharing
        # a name into one counter track and draws the value as a curve.
        name = f"{s.name} ({s.unit})" if s.unit else s.name
        events.append(
            {
                "name": name,
                "cat": "telemetry",
                "ph": "C",
                "ts": (s.ts_ns - origin_ns) / 1e3,
                "pid": s.pid if s.pid is not None else parent_pid,
                "args": {"value": s.value},
            }
        )
        counter_pids.add(s.pid if s.pid is not None else parent_pid)

    for pid in sorted({p for p, _ in lanes} | counter_pids):
        name = "repro (parent)" if pid == parent_pid else f"worker {pid}"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": name},
            }
        )
    for pid, tid in sorted(lanes):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {
                    "name": "main" if pid == parent_pid else f"worker {pid}"
                },
            }
        )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(meta or {}),
    }


def write_perfetto(
    spans: Sequence[Span],
    path: str | os.PathLike,
    *,
    samples: Sequence[CounterSample] | None = None,
    meta: dict | None = None,
) -> int:
    """Write a Chrome trace-event JSON file; returns the event count.

    Written via a temporary file and ``os.replace`` like the other
    artifact writers, so a crash mid-export never leaves a truncated
    file under the final name.
    """
    doc = to_chrome_trace(spans, samples=samples, meta=meta)
    with atomic_write(path) as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return len(doc["traceEvents"])
