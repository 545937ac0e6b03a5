"""Run metrics, derived from the run's spans.

The counters, gauges and histograms a run reports are not recorded on a
channel of their own.  Each one is a view over attributes the
instrumented code already stamps on its spans (:func:`run_metrics`), so
a metric and the spans it summarizes cannot disagree, and an untraced
run records nothing.  :class:`Histogram` is the fixed-bucket arithmetic
those views and the quality timeline share; :func:`render_prometheus`
renders a :func:`run_metrics` snapshot in the Prometheus text format.
"""

from __future__ import annotations

import bisect
import math
import re
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.obs.trace import Span

__all__ = [
    "Histogram",
    "DEFAULT_BUCKETS",
    "run_metrics",
    "render_prometheus",
]

#: Power-of-two bucket upper bounds — a sensible default for count-like
#: distributions (pass counts, bucket occupancies).
DEFAULT_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


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

    def as_dict(self) -> dict:
        """JSON-ready ``edges`` / ``counts`` / ``total`` / ``sum``."""
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
        }


def run_metrics(spans: Iterable["Span"]) -> dict:
    """The run's counters, gauges and histograms, read off its spans.

    Returns ``{"counters": {name: int}, "gauges": {name: {"value",
    "min", "max", "n_sets"}}, "histograms": {name: {"edges", "counts",
    "total", "sum"}}}``, each sorted by name.  A metric appears only
    when some span feeds it:

    * ``guardian.checks``: Σ ``checks`` of the ``guardian_audit`` and
      ``guardian_audit_quality`` spans;
    * ``guardian.breaches`` / ``guardian.degradations``: the number of
      ``guardian_breach`` / ``guardian_degrade`` spans;
    * ``resilience.checkpoints_written``: the ``checkpoint_write`` spans
      that stamped the ``path`` they wrote;
    * ``match.worklist_edges`` (gauge): ``live_edges`` of every
      ``match_pass`` and ``residual_edges`` of every ``match_scan``, in
      completion order, so the last one is the value;
    * ``agglomeration.matching_passes``: ``passes`` of every ``match``
      span;
    * ``contract.bucket_occupancy``: the per-level histograms the
      ``contract_bucket_sort`` spans carry as ``occupancy``, added in
      completion order.
    """
    counters: dict[str, int] = {}
    worklist: list[float] = []
    histograms: dict[str, Histogram] = {}

    def count(name: str, n: int = 1) -> None:
        counters[name] = counters.get(name, 0) + n

    def histogram(name: str) -> Histogram:
        if name not in histograms:
            histograms[name] = Histogram(name)
        return histograms[name]

    for s in spans:
        a = s.attrs
        if s.name in ("guardian_audit", "guardian_audit_quality"):
            if "checks" in a:
                count("guardian.checks", a["checks"])
        elif s.name == "guardian_breach":
            count("guardian.breaches")
        elif s.name == "guardian_degrade":
            count("guardian.degradations")
        elif s.name == "checkpoint_write":
            if "path" in a:
                count("resilience.checkpoints_written")
        elif s.name == "match_pass":
            if "live_edges" in a:
                worklist.append(float(a["live_edges"]))
        elif s.name == "match_scan":
            worklist.append(float(a["residual_edges"]))
        elif s.name == "match":
            if "passes" in a:
                histogram("agglomeration.matching_passes").observe(a["passes"])
        elif s.name == "contract_bucket_sort":
            if "occupancy" in a:
                h = histogram("contract.bucket_occupancy")
                part = a["occupancy"]
                h.counts = [x + y for x, y in zip(h.counts, part["counts"])]
                h.total += part["total"]
                h.sum += part["sum"]

    gauges: dict[str, dict] = {}
    if worklist:
        gauges["match.worklist_edges"] = {
            "value": worklist[-1],
            "min": min(worklist),
            "max": max(worklist),
            "n_sets": len(worklist),
        }
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": gauges,
        "histograms": {
            n: h.as_dict() for n, h in sorted(histograms.items())
        },
    }


def render_prometheus(snapshot: dict, *, namespace: str = "repro") -> str:
    """Render a :func:`run_metrics` snapshot in the Prometheus text format.

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

    for name, value in snapshot["counters"].items():
        mname = metric_name(name, "_total")
        lines.append(f"# TYPE {mname} counter")
        lines.append(f"{mname} {value}")
    for name, g in snapshot["gauges"].items():
        mname = metric_name(name)
        lines.append(f"# TYPE {mname} gauge")
        lines.append(f"{mname} {fmt(g['value'])}")
        if g["n_sets"]:
            for key in ("min", "max"):
                sname = metric_name(name, f"_{key}")
                lines.append(f"# TYPE {sname} gauge")
                lines.append(f"{sname} {fmt(g[key])}")
    for name, h in snapshot["histograms"].items():
        mname = metric_name(name)
        lines.append(f"# TYPE {mname} histogram")
        cumulative = 0
        for edge, count in zip(h["edges"], h["counts"]):
            cumulative += count
            lines.append(f'{mname}_bucket{{le="{fmt(edge)}"}} {cumulative}')
        lines.append(f'{mname}_bucket{{le="+Inf"}} {h["total"]}')
        lines.append(f"{mname}_sum {fmt(h['sum'])}")
        lines.append(f"{mname}_count {h['total']}")
    return "\n".join(lines) + ("\n" if lines else "")
