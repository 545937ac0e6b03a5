"""Live telemetry: in-flight resource sampling and the status heartbeat.

Every other observability layer (spans, ledger, attribution, Perfetto)
is post-mortem — nothing is visible until the run ends.  This module is
the in-flight tier: a background :class:`TelemetrySampler` thread that
periodically records

* anonymous RSS (:func:`repro.util.memprobe.rss_anon_mb`),
* cumulative GC collections,
* the current phase/level (published by the engine via ``RunContext``)

into the trace as schema-v3 **counter samples**
(:meth:`~repro.obs.trace.Tracer.record_counter`), so a live run's
resource usage becomes a time series — exported as Perfetto counter
tracks by :mod:`repro.obs.perfetto` — instead of a single post-run
total.  Each tick also rewrites an atomically-replaced ``status.json``
heartbeat (current level/phase, progress, guardian ladder state, memory
and ramp rate, last-sample timestamp) that ``repro watch`` renders
live; :func:`render_status` is that renderer.

The sampler keeps a bounded ring buffer of ``(ts_ns, rss_mb)`` pairs;
:meth:`TelemetrySampler.ramp_mb_s` fits the RSS ramp rate over a recent
window, which status.json, ``repro watch`` and the ledger display.

Zero overhead when off: the default is :data:`NULL_TELEMETRY`, whose
hooks are attribute-lookup no-ops — no thread, no samples, no status
file, and the trace byte-output is unchanged.
"""

from __future__ import annotations

import gc
import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import ReproError
from repro.obs.trace import NullTracer, Tracer, as_tracer
from repro.util.atomicio import atomic_write_text
from repro.util.log import get_logger
from repro.util.memprobe import rss_anon_mb, rss_probe_source

if TYPE_CHECKING:  # engine imports this module; never the reverse at runtime
    from repro.core.engine import RunContext

__all__ = [
    "TelemetrySampler",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "as_telemetry",
    "read_status",
    "render_status",
    "STATUS_FILENAME",
    "STATUS_SCHEMA",
    "STATUS_VERSION",
    "PHASE_IDS",
]

_log = get_logger("obs.telemetry")

#: Default name of the heartbeat file inside a run/output directory.
STATUS_FILENAME = "status.json"
STATUS_SCHEMA = "repro-status"
STATUS_VERSION = 1

#: Numeric encoding of the pipeline phase for the ``phase_id`` counter
#: track (counter tracks plot numbers, not strings).  ``idle`` covers
#: between-level housekeeping; ``done`` is published when the run ends.
PHASE_IDS = {"idle": 0, "score": 1, "match": 2, "contract": 3, "done": 4}


# --------------------------------------------------------------- sampler
class TelemetrySampler:
    """Background resource sampler for one run; see the module docstring.

    Parameters
    ----------
    tracer:
        Destination for counter samples.  A :class:`NullTracer` is
        accepted (status.json still updates; no trace records).
    interval_s:
        Sampling period of the background thread.
    status_path:
        Heartbeat file rewritten (atomically) every tick; ``None``
        disables the heartbeat.  A directory is accepted and gets
        ``status.json`` appended.
    ring_size:
        Capacity of the ``(ts_ns, rss_mb)`` ring buffer the ramp-rate
        estimate reads.
    meta:
        Free-form run identification merged into every status snapshot
        (e.g. ``{"graph": "email-Enron"}``).

    Use as a context manager (``with sampler:``) or call
    :meth:`start` / :meth:`stop` explicitly; :meth:`stop` is idempotent
    and always joins the thread, so a ``finally: sampler.stop()`` keeps
    the thread from outliving an aborted run.
    """

    enabled = True

    def __init__(
        self,
        tracer: Tracer | NullTracer | None = None,
        *,
        interval_s: float = 0.25,
        status_path: str | os.PathLike | None = None,
        ring_size: int = 240,
        meta: dict | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if ring_size < 2:
            raise ValueError("ring_size must be >= 2")
        self.tracer = as_tracer(tracer)
        self.interval_s = float(interval_s)
        if status_path is not None:
            p = Path(os.fspath(status_path))
            if p.is_dir():
                p = p / STATUS_FILENAME
            self.status_path: Path | None = p
        else:
            self.status_path = None
        self.meta = dict(meta or {})
        #: ``(ts_ns, rss_mb)`` pairs, newest last.  Appends are
        #: GIL-atomic; readers snapshot with ``list(ring)``.
        self.ring: deque[tuple[int, float]] = deque(maxlen=ring_size)
        self.rss_source = rss_probe_source()
        self.n_samples = 0
        self.peak_rss_mb: float | None = None
        self.max_ramp_mb_s: float | None = None
        self._phase: str = "idle"
        self._level: int | None = None
        self._levels_done = 0
        self._n_communities: int | None = None
        self._state = "created"
        self._ctx: "RunContext | None" = None
        self._started_unix: float | None = None
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------ run wiring
    def bind_run(self, ctx: "RunContext") -> None:
        """Attach to a run context.

        Gives the sampler live access to ``ctx.recovery`` (the guardian
        ladder state for status.json, re-read every tick).  Called by
        the engine at run start; harmless to call more than once.
        """
        self._ctx = ctx

    def publish_phase(self, phase: str, level: int | None = None) -> None:
        """Engine hook: the pipeline just entered ``phase`` at ``level``."""
        self._phase = phase
        self._level = level

    def publish_progress(
        self, levels_done: int, n_communities: int | None = None
    ) -> None:
        """Engine hook: a level completed."""
        self._levels_done = int(levels_done)
        if n_communities is not None:
            self._n_communities = int(n_communities)

    # ------------------------------------------------------- lifecycle
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "TelemetrySampler":
        """Start the background sampling thread (idempotent)."""
        if self.running:
            return self
        self._stop_event.clear()
        self._state = "running"
        self._started_unix = time.time()
        self._thread = threading.Thread(
            target=self._loop, name="repro-telemetry", daemon=True
        )
        self._thread.start()
        return self

    def stop(
        self, *, timeout_s: float = 5.0, state: str | None = None
    ) -> None:
        """Stop and join the sampler; writes a final status snapshot.

        Idempotent and exception-safe: safe to call from a ``finally``
        around an aborting run, and safe to call when :meth:`start`
        never ran.  ``state`` overrides the terminal state recorded in
        the final snapshot (e.g. ``"failed"`` when the run aborted).
        """
        self._stop_event.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=timeout_s)
            if thread.is_alive():  # pragma: no cover - pathological stall
                _log.warning("telemetry sampler thread did not join")
        if state is not None:
            self._state = state
        elif self._state == "running":
            self._state = "stopped"
        # One last sample so status.json reflects the terminal state.
        try:
            self.sample_once()
        except Exception:  # pragma: no cover - never fail a shutdown
            _log.exception("final telemetry sample failed")

    def __enter__(self) -> "TelemetrySampler":
        return self.start()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.stop(state="failed" if exc_type is not None else None)

    def _loop(self) -> None:
        while not self._stop_event.wait(self.interval_s):
            try:
                self.sample_once()
            except Exception:  # pragma: no cover - keep the thread alive
                _log.exception("telemetry sample failed")

    # -------------------------------------------------------- sampling
    def ramp_mb_s(self, *, window_s: float | None = None) -> float | None:
        """RSS ramp rate in MiB/s over the recent window (None: unknown).

        A simple first/last slope over the ring samples inside the
        window — robust enough for trend detection and cheap enough to
        run every guardian phase boundary.
        """
        if window_s is None:
            window_s = max(10 * self.interval_s, 2.0)
        samples = list(self.ring)
        if len(samples) < 2:
            return None
        horizon = samples[-1][0] - int(window_s * 1e9)
        windowed = [s for s in samples if s[0] >= horizon]
        if len(windowed) < 2:
            windowed = samples[-2:]
        (t0, r0), (t1, r1) = windowed[0], windowed[-1]
        dt_s = (t1 - t0) / 1e9
        if dt_s <= 0:
            return None
        return (r1 - r0) / dt_s

    def sample_once(self, *, now_ns: int | None = None) -> dict:
        """Take one sample: record counters, update the ring and status.

        Returns the status snapshot dict (what status.json holds).
        Callable synchronously — tests and the final :meth:`stop`
        snapshot use it without the thread.
        """
        ts = time.monotonic_ns() if now_ns is None else int(now_ns)
        tr = self.tracer
        rss = rss_anon_mb()
        if rss is not None:
            self.ring.append((ts, rss))
            if self.peak_rss_mb is None or rss > self.peak_rss_mb:
                self.peak_rss_mb = rss
            tr.record_counter("rss_anon_mb", rss, ts_ns=ts, unit="MiB")
        gc_collections = sum(s["collections"] for s in gc.get_stats())
        tr.record_counter(
            "gc_collections", gc_collections, ts_ns=ts, unit="count"
        )
        phase, level = self._phase, self._level
        tr.record_counter(
            "phase_id", PHASE_IDS.get(phase, -1), ts_ns=ts, unit="phase"
        )
        if level is not None:
            tr.record_counter("level", level, ts_ns=ts, unit="count")
        ramp = self.ramp_mb_s()
        if ramp is not None and (
            self.max_ramp_mb_s is None or ramp > self.max_ramp_mb_s
        ):
            self.max_ramp_mb_s = ramp
        self.n_samples += 1

        recovery = self._ctx.recovery if self._ctx is not None else None
        status = {
            "schema": STATUS_SCHEMA,
            "version": STATUS_VERSION,
            "pid": os.getpid(),
            "state": self._state,
            "started_unix": self._started_unix,
            "updated_unix": time.time(),
            "interval_s": self.interval_s,
            "phase": phase,
            "level": level,
            "levels_done": self._levels_done,
            "n_communities": self._n_communities,
            "rss_mb": rss,
            "rss_source": self.rss_source,
            "peak_rss_mb": self.peak_rss_mb,
            "ramp_mb_s": ramp,
            "gc_collections": gc_collections,
            "n_samples": self.n_samples,
            "guardian": {
                "breaches": getattr(recovery, "guardian_breaches", 0),
                "ladder": list(getattr(recovery, "ladder", ()) or ()),
            },
            "meta": self.meta,
        }
        if self.status_path is not None:
            try:
                atomic_write_text(
                    self.status_path, json.dumps(status, indent=1) + "\n"
                )
            except OSError:  # pragma: no cover - heartbeat must not kill runs
                _log.exception("status heartbeat write failed")
        return status

    def stats(self) -> dict:
        """Summary block for the bench ledger (peak + ramp per repetition)."""
        return {
            "n_samples": self.n_samples,
            "interval_s": self.interval_s,
            "rss_source": self.rss_source,
            "peak_rss_mb": self.peak_rss_mb,
            "max_ramp_mb_s": self.max_ramp_mb_s,
        }


class NullTelemetry:
    """Inert telemetry: every hook is a no-op, no thread ever starts.

    The default for every run — mirrors ``NullTracer`` /
    ``NullGuardian`` so instrumented code never branches on ``None``,
    and the untelemetered path records nothing (trace byte-output is
    unchanged).
    """

    enabled = False
    running = False
    ring: tuple = ()
    interval_s = 0.0
    n_samples = 0
    peak_rss_mb = None
    max_ramp_mb_s = None

    def bind_run(self, ctx: Any) -> None:
        return None

    def publish_phase(self, phase: str, level: int | None = None) -> None:
        return None

    def publish_progress(
        self, levels_done: int, n_communities: int | None = None
    ) -> None:
        return None

    def start(self) -> "NullTelemetry":
        return self

    def stop(
        self, *, timeout_s: float = 0.0, state: str | None = None
    ) -> None:
        return None

    def __enter__(self) -> "NullTelemetry":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def ramp_mb_s(self, *, window_s: float | None = None) -> None:
        return None

    def sample_once(self, *, now_ns: int | None = None) -> dict:
        return {}

    def stats(self) -> dict:
        return {}


#: Shared inert instance (stateless, safe to reuse across runs).
NULL_TELEMETRY = NullTelemetry()


def as_telemetry(
    telemetry: "TelemetrySampler | NullTelemetry | None",
) -> "TelemetrySampler | NullTelemetry":
    """Normalize an optional telemetry argument (``None`` -> null)."""
    return NULL_TELEMETRY if telemetry is None else telemetry


# ------------------------------------------------------------ watch view
def read_status(path: str | os.PathLike) -> dict:
    """Load a status.json heartbeat; raises :class:`ReproError` on junk.

    Accepts a directory (``status.json`` appended) or a file path.
    """
    p = Path(os.fspath(path))
    if p.is_dir():
        p = p / STATUS_FILENAME
    try:
        with open(p, "r", encoding="utf-8") as fh:
            status = json.load(fh)
    except OSError as exc:
        raise ReproError(f"{p}: cannot read status: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ReproError(f"{p}: not valid JSON: {exc}") from exc
    if not isinstance(status, dict) or status.get("schema") != STATUS_SCHEMA:
        raise ReproError(f"{p}: not a {STATUS_SCHEMA} file")
    return status


def render_status(
    status: dict,
    *,
    now_unix: float | None = None,
    stale_after_s: float | None = None,
    stall_after_s: float = 30.0,
) -> str:
    """Render one status snapshot as the ``repro watch`` ASCII view.

    Staleness: the heartbeat's age exceeds ``stale_after_s`` (default:
    four sampling intervals, at least 2 s) — the writing process is
    late, paused, or gone.  Stall: the heartbeat is *fresh* but the run
    has sat in one phase/level for over ``stall_after_s`` without a new
    sample-visible state change (best-effort; the watchdog inside the
    run is the authoritative stall detector).
    """
    now = time.time() if now_unix is None else now_unix
    updated = status.get("updated_unix")
    age = max(0.0, now - updated) if updated is not None else None
    interval = float(status.get("interval_s") or 0.0)
    if stale_after_s is None:
        stale_after_s = max(4 * interval, 2.0)
    state = str(status.get("state", "unknown")).upper()
    badge = state
    if age is not None and age > stale_after_s and state == "RUNNING":
        badge = f"STALE {age:.1f}s"
    elif (
        state == "RUNNING"
        and age is not None
        and age <= stale_after_s
        and interval > 0
        and status.get("n_samples", 0) * interval > stall_after_s
        and status.get("phase") in (None, "idle")
    ):
        badge = "IDLE"

    level = status.get("level")
    phase = status.get("phase") or "-"
    phase_line = f"{phase}" + (f" (level {level})" if level is not None else "")
    rss = status.get("rss_mb")
    peak = status.get("peak_rss_mb")
    ramp = status.get("ramp_mb_s")
    mem = "-" if rss is None else f"{rss:.1f} MiB"
    if peak is not None:
        mem += f" (peak {peak:.1f})"
    if ramp is not None:
        mem += f"  ramp {ramp:+.2f} MiB/s"
    mem += f"  [{status.get('rss_source', '?')}]"
    guardian = status.get("guardian") or {}
    ladder = guardian.get("ladder") or []
    gline = f"{guardian.get('breaches', 0)} breach(es)"
    if ladder:
        gline += f", ladder: {' -> '.join(ladder)}"
    heartbeat = "-" if age is None else f"{age:.1f}s ago"
    if interval:
        heartbeat += f" (interval {interval:g}s)"
    meta = status.get("meta") or {}
    title = f"repro run — pid {status.get('pid', '?')} [{badge}]"
    if meta:
        detail = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        title += f"  {detail}"
    lines = [
        title,
        f"  phase    : {phase_line}",
        (
            f"  progress : {status.get('levels_done', 0)} level(s) done"
            + (
                f", {status['n_communities']} communities"
                if status.get("n_communities") is not None
                else ""
            )
        ),
        f"  memory   : {mem}",
        f"  gc       : {status.get('gc_collections', 0)} collections",
        f"  guardian : {gline}",
        f"  heartbeat: {heartbeat}, {status.get('n_samples', 0)} samples",
    ]
    return "\n".join(lines)
