"""Run observability: wall-clock spans, metrics, and trace export.

Four layers:

* :mod:`repro.obs.trace` — :class:`Tracer` / :class:`Span` nested
  wall-clock spans, with a zero-cost :class:`NullTracer` default;
* :mod:`repro.obs.metrics` — :func:`run_metrics`, the run's counters,
  gauges and fixed-bucket histograms derived from its spans, exportable
  in Prometheus text format (:func:`render_prometheus`);
* :mod:`repro.obs.timeline` — :class:`QualityTimeline`, the per-level
  algorithm-quality trajectory (modularity, coverage, merge fraction)
  read off a run's result, which the benchmark ledger embeds;
* :mod:`repro.obs.sinks` — schema-versioned JSONL export
  (:func:`write_trace` / :func:`read_trace`) and the per-level console
  profile table (:func:`render_profile`);
* :mod:`repro.obs.attribution` — the performance-attribution analyzer:
  self-times, hotspot ranking, and the trace consistency invariants
  (:func:`attribute_run`);
* :mod:`repro.obs.perfetto` — Chrome trace-event export
  (:func:`write_perfetto`) openable in ``ui.perfetto.dev``;
* :mod:`repro.obs.report` — the self-contained Markdown/HTML run
  report (:func:`render_report` / :func:`write_report`);
* :mod:`repro.obs.telemetry` — the live tier: a background
  :class:`TelemetrySampler` recording resource counter samples (schema
  v3) into the trace plus an atomically-written ``status.json``
  heartbeat that ``repro watch`` renders;
* :mod:`repro.obs.memprof` — :class:`PhaseMemoryProfiler`, the
  tracemalloc phase-scoped memory attributor merged into the
  attribution document.

Distinct from :mod:`repro.platform` tracing: the platform layer records
*simulated* work quantities for the paper's machine cost models; this
package measures what the current machine actually did.  See
``docs/OBSERVABILITY.md``.
"""

from repro import _lazy_exports
from repro.obs.trace import (
    NULL_TRACER,
    CounterSample,
    NullTracer,
    Span,
    Tracer,
    as_tracer,
)

# The engine and the CLI import the other layers ``repro detect`` runs
# themselves; every name below loads on first use.
__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "attribute_run": "attribution",
        "consistency_report": "attribution",
        "hotspots": "attribution",
        "self_times": "attribution",
        "Histogram": "metrics",
        "render_prometheus": "metrics",
        "run_metrics": "metrics",
        "NULL_MEMPROF": "memprof",
        "NullMemoryProfiler": "memprof",
        "PhaseMemoryProfiler": "memprof",
        "as_memprof": "memprof",
        "to_chrome_trace": "perfetto",
        "write_perfetto": "perfetto",
        "markdown_to_html": "report",
        "render_report": "report",
        "write_report": "report",
        "TraceData": "sinks",
        "UnknownTraceRecordWarning": "sinks",
        "phase_totals": "sinks",
        "read_trace": "sinks",
        "render_profile": "sinks",
        "write_trace": "sinks",
        "NULL_TELEMETRY": "telemetry",
        "NullTelemetry": "telemetry",
        "TelemetrySampler": "telemetry",
        "as_telemetry": "telemetry",
        "read_status": "telemetry",
        "render_status": "telemetry",
        "LevelQuality": "timeline",
        "QualityTimeline": "timeline",
    },
)

__all__ = [
    "Span",
    "CounterSample",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "as_tracer",
    "LevelQuality",
    "QualityTimeline",
    "Histogram",
    "run_metrics",
    "render_prometheus",
    "TraceData",
    "UnknownTraceRecordWarning",
    "write_trace",
    "read_trace",
    "phase_totals",
    "render_profile",
    "TelemetrySampler",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "as_telemetry",
    "read_status",
    "render_status",
    "PhaseMemoryProfiler",
    "NullMemoryProfiler",
    "NULL_MEMPROF",
    "as_memprof",
    "attribute_run",
    "self_times",
    "hotspots",
    "consistency_report",
    "to_chrome_trace",
    "write_perfetto",
    "render_report",
    "write_report",
    "markdown_to_html",
]
