"""Shared process-memory probe: anonymous RSS sampling + allocator trim.

Two subsystems need the same measurement — the run guardian's
memory-budget watchdog (:mod:`repro.resilience.guardian`) samples
resident memory at phase boundaries, and the live-telemetry sampler
(:mod:`repro.obs.telemetry`) samples it continuously in a background
thread.  Both care about the *same* quantity, for the same reason:

**Anonymous** resident pages are what a memory budget should bound.
File-backed pages (anything memory-mapped from a file) are evictable
by the OS at will, so counting them would hold a run "over budget" on
memory the kernel can reclaim whenever it needs to.

:func:`rss_anon_mb` probes, best first:

1. ``RssAnon`` from ``/proc/self/status`` — anonymous resident pages
   only (Linux 4.5+).
2. Total RSS from ``/proc/self/statm`` — older kernels without the
   split accounting.
3. ``ru_maxrss`` from ``getrusage`` — the non-Linux fallback.  A
   high-water mark rather than an instantaneous sample, and the unit is
   platform-dependent: bytes on macOS, kilobytes on Linux and the BSDs.

:func:`rss_probe_source` names which rung answered, so telemetry
records can say whether a series is instantaneous (``rss_anon`` /
``statm``) or a high-water mark (``getrusage``).

:func:`trim_memory` hands freed allocator pages back to the OS (glibc
retains free()d arena memory indefinitely), so a sample taken after a
large phase reflects live memory rather than allocator history.
"""

from __future__ import annotations

import os
import sys

__all__ = ["rss_anon_mb", "rss_probe_source", "trim_memory"]


def _rss_from_proc_status() -> float | None:
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"RssAnon:"):
                    return int(line.split()[1]) / 1024.0  # kB -> MiB
    except (OSError, IndexError, ValueError):
        pass
    return None


def _rss_from_proc_statm() -> float | None:
    try:
        with open("/proc/self/statm", "rb") as fh:
            resident_pages = int(fh.read().split()[1])
        return resident_pages * os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)
    except (OSError, IndexError, ValueError):
        pass
    return None


def _rss_from_getrusage() -> float | None:
    try:
        import resource

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if rss <= 0:  # pragma: no cover - degenerate platform value
            return None
        if sys.platform == "darwin":  # pragma: no cover - macOS only
            return rss / (1024 * 1024)
        return rss / 1024
    except Exception:  # pragma: no cover - platform without getrusage
        return None


def rss_anon_mb() -> float | None:
    """Resident memory charged to this process in MiB (``None`` unknown).

    Prefers anonymous-only accounting (``RssAnon``); see the module
    docstring for the probe ladder and why anonymous pages are the
    budgeted quantity.
    """
    rss = _rss_from_proc_status()
    if rss is not None:
        return rss
    rss = _rss_from_proc_statm()
    if rss is not None:
        return rss
    return _rss_from_getrusage()


def rss_probe_source() -> str:
    """Which probe rung :func:`rss_anon_mb` currently answers from.

    One of ``"rss_anon"``, ``"statm"``, ``"getrusage"``, or ``"none"``.
    Cheap enough to call once per run (not per sample): the answer only
    changes with the platform, never over a process lifetime.
    """
    if _rss_from_proc_status() is not None:
        return "rss_anon"
    if _rss_from_proc_statm() is not None:
        return "statm"
    if _rss_from_getrusage() is not None:  # pragma: no cover - non-Linux
        return "getrusage"
    return "none"  # pragma: no cover - no probe available


def trim_memory() -> None:
    """Best-effort: hand freed allocator pages back to the OS.

    glibc retains free()d arena memory indefinitely, so an RSS sample
    taken after a large phase can stay inflated by memory that is
    *gone* from the program's perspective.  Collecting cycles and
    calling ``malloc_trim`` first makes budget checks judge live
    memory, not allocator history — a large temporary freed by the
    previous phase leaves the resident set instead of breaching the
    budget.  No-op where ``malloc_trim`` does not exist.
    """
    import gc

    gc.collect()
    try:
        import ctypes
        import ctypes.util

        name = ctypes.util.find_library("c")
        if name:
            ctypes.CDLL(name, use_errno=True).malloc_trim(0)
    except Exception:  # pragma: no cover - non-glibc platforms
        pass
