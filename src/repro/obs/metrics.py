"""Run metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is the scalar companion to the span tracer —
quantities that are aggregates over a run rather than timed regions:
how many matching passes each level took, how big the live worklist was,
how occupied the contraction buckets were.  Everything is plain Python
(no locks — the instrumented loops are vectorized numpy, so instrument
calls happen a handful of times per level, not per element).

``Null*`` twins back the :class:`~repro.obs.trace.NullTracer`: shared
no-op instances so the untraced path neither allocates nor branches.
"""

from __future__ import annotations

import bisect
import math
import re
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Power-of-two bucket upper bounds — a sensible default for count-like
#: distributions (pass counts, bucket occupancies).
DEFAULT_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only increase; use a Gauge")
        self.value += n


class Gauge:
    """Last-written value, with the min/max seen over the run.

    ``set()`` is called once per pass/level with e.g. the live worklist
    size; keeping the extremes means the summary can report the peak
    without storing the series.
    """

    __slots__ = ("name", "value", "min", "max", "n_sets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self.min: float = float("inf")
        self.max: float = float("-inf")
        self.n_sets = 0

    def set(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            # A NaN would poison min/max/last and every downstream delta
            # (ledger comparisons order on these values).
            raise ValueError(f"gauge {self.name!r}: cannot set NaN")
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.n_sets += 1


class Histogram:
    """Fixed-bucket histogram.

    ``edges`` are inclusive upper bounds of the first ``len(edges)``
    buckets; one overflow bucket catches everything larger, so
    ``counts`` has ``len(edges) + 1`` entries.  A value ``v`` lands in
    the first bucket whose edge satisfies ``v <= edge`` (standard
    Prometheus ``le`` semantics).
    """

    __slots__ = ("name", "edges", "counts", "total", "sum")

    def __init__(
        self, name: str, edges: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        e = [float(x) for x in edges]
        if any(b <= a for a, b in zip(e, e[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        self.name = name
        self.edges: tuple[float, ...] = tuple(e)
        self.counts = [0] * (len(e) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError(f"histogram {self.name!r}: cannot observe NaN")
        self.counts[bisect.bisect_left(self.edges, value)] += 1
        self.total += 1
        self.sum += value

    def observe_many(self, values: Iterable[float] | np.ndarray) -> None:
        """Vectorized :meth:`observe` for an array of samples."""
        if not isinstance(values, np.ndarray):
            values = list(values)
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            return
        if np.isnan(arr).any():
            raise ValueError(f"histogram {self.name!r}: cannot observe NaN")
        idx = np.searchsorted(np.asarray(self.edges), arr, side="left")
        binned = np.bincount(idx, minlength=len(self.counts))
        for k, c in enumerate(binned.tolist()):
            self.counts[k] += c
        self.total += int(arr.size)
        self.sum += float(arr.sum())

    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0


class MetricsRegistry:
    """Get-or-create store of named metrics."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        try:
            return self.counters[name]
        except KeyError:
            c = self.counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        try:
            return self.gauges[name]
        except KeyError:
            g = self.gauges[name] = Gauge(name)
            return g

    def histogram(
        self, name: str, edges: Sequence[float] | None = None
    ) -> Histogram:
        try:
            return self.histograms[name]
        except KeyError:
            h = self.histograms[name] = Histogram(
                name, edges if edges is not None else DEFAULT_BUCKETS
            )
            return h

    def render_prometheus(self, *, namespace: str = "repro") -> str:
        """Render every metric in the Prometheus text exposition format.

        Counters become ``<ns>_<name>_total``; gauges emit their last
        value plus ``_min`` / ``_max`` companions; histograms emit the
        standard cumulative ``_bucket{le=...}`` series with ``+Inf``,
        ``_sum`` and ``_count``.  Metric names are sanitized to the
        Prometheus charset (``.`` and other separators become ``_``).
        """
        lines: list[str] = []

        def metric_name(name: str, suffix: str = "") -> str:
            base = re.sub(r"[^a-zA-Z0-9_:]", "_", f"{namespace}_{name}")
            return base + suffix

        def fmt(value: float) -> str:
            if value == float("inf"):
                return "+Inf"
            if value == float("-inf"):
                return "-Inf"
            return repr(float(value))

        for name, c in sorted(self.counters.items()):
            mname = metric_name(name, "_total")
            lines.append(f"# TYPE {mname} counter")
            lines.append(f"{mname} {c.value}")
        for name, g in sorted(self.gauges.items()):
            mname = metric_name(name)
            lines.append(f"# TYPE {mname} gauge")
            lines.append(f"{mname} {fmt(g.value)}")
            if g.n_sets:
                for suffix, v in (("_min", g.min), ("_max", g.max)):
                    sname = metric_name(name, suffix)
                    lines.append(f"# TYPE {sname} gauge")
                    lines.append(f"{sname} {fmt(v)}")
        for name, h in sorted(self.histograms.items()):
            mname = metric_name(name)
            lines.append(f"# TYPE {mname} histogram")
            cumulative = 0
            for edge, count in zip(h.edges, h.counts):
                cumulative += count
                lines.append(
                    f'{mname}_bucket{{le="{fmt(edge)}"}} {cumulative}'
                )
            lines.append(f'{mname}_bucket{{le="+Inf"}} {h.total}')
            lines.append(f"{mname}_sum {fmt(h.sum)}")
            lines.append(f"{mname}_count {h.total}")
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """JSON-ready dump of every metric's current state."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {
                n: {
                    "value": g.value,
                    "min": g.min if g.n_sets else None,
                    "max": g.max if g.n_sets else None,
                    "n_sets": g.n_sets,
                }
                for n, g in sorted(self.gauges.items())
            },
            "histograms": {
                n: {
                    "edges": list(h.edges),
                    "counts": list(h.counts),
                    "total": h.total,
                    "sum": h.sum,
                }
                for n, h in sorted(self.histograms.items())
            },
        }


# ------------------------------------------------------------- null twins
class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, n: int = 1) -> None:
        return None


class _NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        return None


class _NullHistogram:
    __slots__ = ()
    total = 0

    def observe(self, value: float) -> None:
        return None

    def observe_many(self, values) -> None:
        return None


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullMetricsRegistry:
    """No-op registry handing out shared null metric instances."""

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, edges=None) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def render_prometheus(self, *, namespace: str = "repro") -> str:
        return ""

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}
