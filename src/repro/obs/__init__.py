"""Run observability: wall-clock spans, metrics, and trace export.

Four layers:

* :mod:`repro.obs.trace` — :class:`Tracer` / :class:`Span` nested
  wall-clock spans, with a zero-cost :class:`NullTracer` default;
* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms,
  exportable in Prometheus text format;
* :mod:`repro.obs.timeline` — :class:`QualityTimeline`, the per-level
  algorithm-quality trajectory (modularity, coverage, merge fraction)
  that the benchmark ledger embeds;
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

from repro.obs.attribution import (
    attribute_run,
    consistency_report,
    hotspots,
    self_times,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.obs.memprof import (
    NULL_MEMPROF,
    NullMemoryProfiler,
    PhaseMemoryProfiler,
    as_memprof,
)
from repro.obs.perfetto import to_chrome_trace, write_perfetto
from repro.obs.report import markdown_to_html, render_report, write_report
from repro.obs.sinks import (
    TraceData,
    UnknownTraceRecordWarning,
    phase_totals,
    read_trace,
    render_profile,
    write_trace,
)
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    TelemetrySampler,
    as_telemetry,
    read_status,
    render_status,
)
from repro.obs.timeline import (
    NULL_TIMELINE,
    LevelQuality,
    NullTimeline,
    QualityTimeline,
    as_timeline,
)
from repro.obs.trace import (
    NULL_TRACER,
    CounterSample,
    NullTracer,
    Span,
    Tracer,
    as_tracer,
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
    "NullTimeline",
    "NULL_TIMELINE",
    "as_timeline",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
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
