"""Phase-scoped memory attribution via :mod:`tracemalloc`.

The telemetry sampler (:mod:`repro.obs.telemetry`) answers *how much*
memory a run used over time; this module answers *which phase and which
allocation sites* the memory came from.  A :class:`PhaseMemoryProfiler`
listens to its tracer's spans and measures each ``score``/``match``/
``contract`` span, from its opening to its closing, recording per
phase kind:

* the **net allocation delta** across the phase (traced current memory
  at exit minus entry — negative when a phase frees more than it
  allocates),
* the traced **peak** inside the phase (``tracemalloc.reset_peak`` on
  entry, peak reading at exit),
* the **top-N allocation sites** by net growth, aggregated across all
  executions of that phase kind (snapshot diff, grouped by
  ``file:lineno``).

The report merges into the performance-attribution document
(:func:`repro.obs.attribution.attribute_run` ``memory=`` parameter) and
renders as a section of ``repro report``.

tracemalloc instruments every Python-level allocation, so profiling is
*not* free (typically 2–4× slower with snapshot diffs) — this is a
diagnosis tool, opt-in via ``--memprof``, never a default.  NumPy
buffers are traced too (NumPy routes its data allocator through
tracemalloc's ``np`` domain), which is what makes the per-phase deltas
meaningful for this pipeline's array-heavy kernels.
"""

from __future__ import annotations

import tracemalloc
from typing import Any

from repro.obs.trace import Span, Tracer

__all__ = ["PhaseMemoryProfiler"]

#: The spans a profiler measures.
_PHASES = ("score", "match", "contract")


class PhaseMemoryProfiler:
    """Attribute allocation deltas and sites to pipeline phases.

    Parameters
    ----------
    tracer:
        The run's :class:`~repro.obs.trace.Tracer`; the profiler
        measures its phase spans.  Anything else (``None``, a
        :class:`~repro.obs.trace.NullTracer`) raises ``TypeError``,
        since the profiler would see no phases.
    top_sites:
        Allocation sites kept per phase kind in the report (by absolute
        net growth).  ``0`` disables snapshot diffs entirely — phase
        deltas and peaks still record, at a fraction of the overhead.
    frames:
        Traceback depth passed to ``tracemalloc.start`` (deeper frames
        cost memory per live allocation; the report only uses the
        innermost frame, so the default stays shallow).

    Phases are measured while tracemalloc traces, which :meth:`start`
    (or ``with profiler:``) arranges.
    """

    def __init__(
        self, tracer: Tracer, *, top_sites: int = 5, frames: int = 1
    ) -> None:
        if not isinstance(tracer, Tracer):
            raise TypeError(
                f"PhaseMemoryProfiler needs a Tracer, got {type(tracer).__name__}"
            )
        if top_sites < 0:
            raise ValueError("top_sites must be >= 0")
        if frames < 1:
            raise ValueError("frames must be >= 1")
        self.top_sites = top_sites
        self.frames = frames
        self._owns_tracing = False
        self._phases: dict[str, dict] = {}
        self._sites: dict[str, dict[str, int]] = {}
        #: Entry reading of each open phase span, by span id.
        self._open: dict[int, tuple[int, tracemalloc.Snapshot | None]] = {}
        tracer.listeners.append(self)

    # ------------------------------------------------------- lifecycle
    def start(self) -> "PhaseMemoryProfiler":
        """Begin tracing (idempotent; respects a caller's own tracing)."""
        if not tracemalloc.is_tracing():
            tracemalloc.start(self.frames)
            self._owns_tracing = True
        return self

    def stop(self) -> dict:
        """Stop tracing (if this profiler started it) and return the report."""
        if self._owns_tracing and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._owns_tracing = False
        return self.report()

    def __enter__(self) -> "PhaseMemoryProfiler":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # ------------------------------------------------- span listener
    def span_open(self, span: Span) -> None:
        if span.name not in _PHASES or not tracemalloc.is_tracing():
            return
        entry_bytes, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        snapshot = tracemalloc.take_snapshot() if self.top_sites > 0 else None
        self._open[span.span_id] = (entry_bytes, snapshot)

    def span_close(self, span: Span) -> None:
        entry = self._open.pop(span.span_id, None)
        if entry is None or not tracemalloc.is_tracing():
            return
        entry_bytes, entry_snapshot = entry
        current, peak = tracemalloc.get_traced_memory()
        self._record(
            span.name,
            net_bytes=current - entry_bytes,
            peak_bytes=max(0, peak - entry_bytes),
        )
        if entry_snapshot is None:
            return
        try:
            exit_snapshot = tracemalloc.take_snapshot()
            # tracemalloc's own bookkeeping dominates small diffs;
            # drop it so the top sites point at the pipeline.
            own = tracemalloc.Filter(False, tracemalloc.__file__)
            diff = exit_snapshot.filter_traces((own,)).compare_to(
                entry_snapshot.filter_traces((own,)), "lineno"
            )
        except Exception:  # pragma: no cover - never fail the run
            return
        for stat in diff:
            if stat.size_diff == 0:
                continue
            frame = stat.traceback[0]
            self._record_site(
                span.name, f"{frame.filename}:{frame.lineno}", stat.size_diff
            )

    def _record(self, name: str, *, net_bytes: int, peak_bytes: int) -> None:
        entry = self._phases.setdefault(
            name, {"calls": 0, "net_bytes": 0, "peak_bytes": 0}
        )
        entry["calls"] += 1
        entry["net_bytes"] += int(net_bytes)
        entry["peak_bytes"] = max(entry["peak_bytes"], int(peak_bytes))

    def _record_site(self, name: str, site: str, size_diff: int) -> None:
        sites = self._sites.setdefault(name, {})
        sites[site] = sites.get(site, 0) + int(size_diff)

    # ---------------------------------------------------------- report
    def report(self) -> dict:
        """The attribution block: per-phase deltas plus top-N sites."""
        phases = {}
        for name, entry in self._phases.items():
            sites = sorted(
                self._sites.get(name, {}).items(),
                key=lambda kv: (-abs(kv[1]), kv[0]),
            )[: self.top_sites]
            phases[name] = {
                **entry,
                "top_sites": [
                    {"site": site, "net_bytes": size} for site, size in sites
                ],
            }
        return {
            "tool": "tracemalloc",
            "frames": self.frames,
            "top_sites": self.top_sites,
            "phases": phases,
        }
