"""Span-based run tracing (real wall-clock, not simulated).

The platform layer's :class:`~repro.platform.kernels.TraceRecorder`
records *simulated* work quantities (items, words, atomics) for the
paper's cost models.  This module records what actually happened on the
machine running the code: nested wall-clock **spans** over the
score → match → contract pipeline, stamped with item counts and
arbitrary attributes, so the paper's per-phase engineering claims
(contraction at 40–80 % of runtime, worklist matching removing sweep
hot spots) become observable on every real run.

Usage::

    tracer = Tracer()
    with tracer.span("level", level=0):
        with tracer.span("score", level=0) as sp:
            scores = scorer.score(graph)
            sp.set(items=graph.n_edges)

Finished spans accumulate on ``tracer.spans`` in completion order
(children before parents, like a sampling profiler's exit events); the
sinks in :mod:`repro.obs.sinks` serialize them to JSONL and render the
console profile table.

Instrumented code paths take ``tracer=None`` and fall back to the
module-level :data:`NULL_TRACER`, whose ``span()`` hands back one shared
no-op handle — the untraced hot path performs no allocation and no clock
reads.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any

from repro.obs.metrics import MetricsRegistry, NullMetricsRegistry
from repro.util.timing import Timer

__all__ = [
    "Span",
    "CounterSample",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "as_tracer",
]

#: Version of the span/trace event schema emitted by the sinks.
#: v2 added per-span ``pid``/``tid``/``epoch_ns`` so spans from more
#: than one process align on one clock.
#: v3 added **counter events** (``{"event": "counter_sample", "type":
#: "counter", ...}`` records interleaved with spans): timestamped
#: time-series samples from the live-telemetry sampler
#: (:mod:`repro.obs.telemetry`), exported as Perfetto counter tracks.
#: v1/v2 traces still load; readers skip unknown record types.
SCHEMA_VERSION = 3


@dataclass
class Span:
    """One finished (or in-flight) traced region.

    Attributes
    ----------
    name:
        Region identity, e.g. ``"level"``, ``"score"``, ``"match"``,
        ``"contract"``, ``"match_pass"``, ``"superstep"``.
    span_id:
        Unique id within the owning tracer (assigned in *start* order).
    parent_id:
        ``span_id`` of the enclosing span, or ``None`` at top level.
    level:
        Agglomeration level the span belongs to, when applicable.
    start_ns, end_ns:
        Monotonic-clock nanosecond timestamps (:func:`time.monotonic_ns`
        via :class:`repro.util.timing.Timer`); comparable within one
        process only.
    items:
        Number of work items the region processed (0 when not stamped).
    pid, tid:
        OS process id and native thread id that executed the region.
        Stamped on every span (not just run-level meta) so spans from
        different processes land on their own lanes in exported traces.
    epoch_ns:
        The owning tracer's monotonic-clock epoch (``time.monotonic_ns``
        at tracer creation).  CLOCK_MONOTONIC is machine-wide on Linux,
        so timestamps recorded against this epoch in another process
        align with this tracer's spans; a span whose epoch differs is
        from another clock domain and must not be compared by raw
        timestamp.
    attrs:
        Free-form attributes stamped via :meth:`_SpanHandle.set`.
    """

    name: str
    span_id: int
    parent_id: int | None = None
    level: int | None = None
    start_ns: int = 0
    end_ns: int = 0
    items: int = 0
    pid: int | None = None
    tid: int | None = None
    epoch_ns: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def duration_s(self) -> float:
        return self.duration_ns / 1e9


@dataclass(frozen=True)
class CounterSample:
    """One timestamped value of a counter time series (schema v3).

    Unlike the end-of-run metric snapshot (one aggregate value per
    counter), counter samples are a *time series*: the telemetry
    sampler records one per sampling tick, so resource usage (anonymous
    RSS, GC collections) becomes a curve over the run
    rather than a single total.  ``ts_ns`` shares the owning tracer's
    monotonic clock, making samples directly comparable to span
    windows; ``unit`` is a display hint (``"MiB"``, ``"bytes"``,
    ``"count"``); ``pid`` is the sampling process.
    """

    name: str
    ts_ns: int
    value: float
    unit: str = ""
    pid: int | None = None


class _SpanHandle:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span", "_timer")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._timer = Timer()

    def set(self, *, items: int | None = None, **attrs: Any) -> "_SpanHandle":
        """Stamp attributes onto the span; chainable."""
        if items is not None:
            self._span.items = int(items)
        if attrs:
            self._span.attrs.update(attrs)
        return self

    @property
    def span(self) -> Span:
        return self._span

    def __enter__(self) -> "_SpanHandle":
        self._timer.start()
        self._span.start_ns = self._timer.start_ns or 0
        self._tracer._stack.append(self._span)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self._timer.stop()
        self._span.end_ns = self._timer.stop_ns or self._span.start_ns
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        stack = self._tracer._stack
        if stack and stack[-1] is self._span:
            stack.pop()
        else:  # pragma: no cover - malformed nesting, keep best effort
            try:
                stack.remove(self._span)
            except ValueError:
                pass
        self._tracer.spans.append(self._span)


class Tracer:
    """Collects nested wall-clock spans plus a metrics registry.

    Spans land on :attr:`spans` in completion order; metrics (counters,
    gauges, histograms) live on :attr:`metrics`.  One tracer serves one
    logical run but may span several :func:`detect_communities` calls
    (the bench harness tags each with a ``"run"`` root span).
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Counter time-series samples (schema v3), in record order.
        #: Appended by the telemetry sampler's background thread —
        #: ``list.append`` is atomic under the GIL, so no lock is
        #: needed between the sampler and the exporting main thread.
        self.counter_samples: list[CounterSample] = []
        self.metrics = MetricsRegistry()
        #: Monotonic-clock epoch stamped on every span this tracer
        #: records, so spans align in exported traces.
        self.epoch_ns = time.monotonic_ns()
        self._stack: list[Span] = []
        self._next_id = 0

    def span(
        self, name: str, *, level: int | None = None, **attrs: Any
    ) -> _SpanHandle:
        """Open a traced region; use as a context manager."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent,
            level=level,
            pid=os.getpid(),
            tid=threading.get_native_id(),
            epoch_ns=self.epoch_ns,
            attrs=dict(attrs) if attrs else {},
        )
        self._next_id += 1
        return _SpanHandle(self, span)

    def record_counter(
        self,
        name: str,
        value: float,
        *,
        ts_ns: int | None = None,
        unit: str = "",
        pid: int | None = None,
    ) -> CounterSample:
        """Append one counter time-series sample (schema v3).

        ``ts_ns`` defaults to *now* on this tracer's monotonic clock.
        Thread-safe with respect to span recording: the sample list is
        append-only and exported snapshots take a copy.
        """
        sample = CounterSample(
            name=name,
            ts_ns=time.monotonic_ns() if ts_ns is None else int(ts_ns),
            value=float(value),
            unit=unit,
            pid=os.getpid() if pid is None else int(pid),
        )
        self.counter_samples.append(sample)
        return sample

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # Convenience pass-throughs so instrumented code never needs to know
    # whether it holds a Tracer or the NullTracer.
    def counter(self, name: str):
        return self.metrics.counter(name)

    def gauge(self, name: str):
        return self.metrics.gauge(name)

    def histogram(self, name: str, edges=None):
        return self.metrics.histogram(name, edges)

    def find(self, name: str) -> list[Span]:
        """All finished spans with the given name, in completion order."""
        return [s for s in self.spans if s.name == name]


class _NullSpanHandle:
    """Shared do-nothing span handle — the untraced fast path."""

    __slots__ = ()

    def set(self, **_kw: Any) -> "_NullSpanHandle":
        return self

    @property
    def span(self) -> None:
        return None

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_HANDLE = _NullSpanHandle()


class NullTracer:
    """API-compatible tracer that records nothing.

    ``span()`` returns one module-level handle regardless of arguments,
    so the instrumented hot path costs a single attribute lookup and
    call — no allocation, no ``monotonic_ns`` reads.  All metric
    handles are shared no-ops too.
    """

    enabled = False
    spans: tuple = ()
    counter_samples: tuple = ()
    epoch_ns = 0

    def __init__(self) -> None:
        self.metrics = NullMetricsRegistry()

    def span(self, name: str, **_kw: Any) -> _NullSpanHandle:
        return _NULL_HANDLE

    def record_counter(self, name: str, value: float, **_kw: Any) -> None:
        return None

    @property
    def current(self) -> None:
        return None

    def counter(self, name: str):
        return self.metrics.counter(name)

    def gauge(self, name: str):
        return self.metrics.gauge(name)

    def histogram(self, name: str, edges=None):
        return self.metrics.histogram(name, edges)

    def find(self, name: str) -> list:
        return []


#: Shared default used by every ``tracer=None`` code path.
NULL_TRACER = NullTracer()


def as_tracer(tracer: "Tracer | NullTracer | None") -> "Tracer | NullTracer":
    """Normalize an optional tracer argument to a usable instance."""
    return NULL_TRACER if tracer is None else tracer
