"""The benchmark ledger: durable, machine-readable perf/quality records.

The paper's claims are quantitative — contraction is 40–80 % of runtime
(§IV-C), 13.9× speed-up on 80 threads, coverage ≥ 0.5 termination — so
whether a change made this reproduction faster or better must be a
machine-checkable question, not an eyeball over free-form ``.txt``
files.  This module defines the repo's unit of benchmark evidence:

* :class:`RunRecord` — one schema-versioned benchmark run: the graph,
  the kernel/scorer configuration, the host, and N repetitions each
  carrying end-to-end seconds, the per-phase breakdown from
  :func:`repro.obs.phase_totals`, the per-level
  :class:`~repro.obs.QualityTimeline`, and peak RSS;
* :func:`write_ledger` / :func:`read_ledger` — atomic
  (write-tmp-then-rename, same durability rule as
  :mod:`repro.resilience.checkpoint`) JSON emission to
  ``BENCH_<name>.json`` and validated load;
* :func:`compare_ledgers` — per-phase and end-to-end deltas between two
  ledgers using **min-of-N** repetition times (the standard
  noise-robust statistic for benchmark comparison) with a relative
  tolerance and an absolute noise floor, plus a final-modularity
  quality check;
* :func:`render_ledger` / :func:`render_comparison` — the ``.txt``
  views over the JSON (ASCII tables; the JSON is the source of truth).

``repro compare a.json b.json`` (see :mod:`repro.cli`) renders the
comparison and exits nonzero iff something regressed beyond tolerance —
the contract CI's smoke-bench job enforces against
``benchmarks/baselines/smoke.json``.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.reporting import format_table
from repro.errors import ReproError
from repro.util.atomicio import atomic_write

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "Repetition",
    "RunRecord",
    "repetition_from_run",
    "host_info",
    "peak_rss_bytes",
    "ledger_path",
    "write_ledger",
    "read_ledger",
    "PhaseDelta",
    "LedgerComparison",
    "CONFIG_DRIFT_KEYS",
    "config_drift",
    "compare_ledgers",
    "render_ledger",
    "render_comparison",
]

#: Version of the on-disk ledger schema.
LEDGER_SCHEMA_VERSION = 1

_SCHEMA_NAME = "repro-bench-ledger"

#: The per-phase keys a repetition's ``phases`` block carries
#: (:func:`repro.obs.phase_totals` output).
PHASE_KEYS = ("score", "match", "contract", "total")


@dataclass
class Repetition:
    """One timed execution inside a benchmark run.

    ``total_s`` is the end-to-end wall time of the repetition (includes
    phases plus driver overhead); ``phases`` is the
    :func:`~repro.obs.phase_totals` dict for the run's spans; ``quality``
    is the :meth:`~repro.obs.QualityTimeline.as_dict` timeline (or
    ``None`` when not recorded); ``peak_rss_bytes`` is the process peak
    resident set at the end of the repetition (``None`` when the
    platform cannot report it); ``recovery`` is the run's
    :meth:`~repro.resilience.RecoveryReport.as_dict` dump when any
    recovery or guardian action fired (``None`` for clean runs), so
    degraded benchmark numbers are never mistaken for healthy ones;
    ``attribution`` is the :func:`~repro.obs.attribution.attribute_run`
    block (phase and per-level times, hotspots, consistency verdict)
    when the repetition was traced (``None`` otherwise), so the ledger
    records not just *how fast* but *why that fast*; ``telemetry`` is
    the :meth:`~repro.obs.telemetry.TelemetrySampler.stats` block
    (sample count, in-flight peak RSS, max ramp rate) when the
    repetition ran under the live sampler (``None`` otherwise) — unlike
    ``peak_rss_bytes`` (the kernel's whole-process high-water mark) it
    reflects only this repetition's window.
    """

    total_s: float
    phases: dict = field(default_factory=dict)
    quality: dict | None = None
    peak_rss_bytes: int | None = None
    n_levels: int = 0
    n_communities: int = 0
    terminated_by: str = ""
    recovery: dict | None = None
    attribution: dict | None = None
    telemetry: dict | None = None

    def final_quality(self) -> dict | None:
        """The last level's quality sample, if a timeline was recorded."""
        if not self.quality:
            return None
        levels = self.quality.get("levels") or []
        return levels[-1] if levels else None


@dataclass
class RunRecord:
    """A schema-versioned benchmark run record (one ledger file)."""

    name: str
    graph: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    host: dict = field(default_factory=dict)
    repetitions: list[Repetition] = field(default_factory=list)
    created_unix: float = 0.0
    version: int = LEDGER_SCHEMA_VERSION

    # ------------------------------------------------------------ statistics
    def min_total_s(self) -> float:
        """Best end-to-end seconds over the repetitions (min-of-N)."""
        if not self.repetitions:
            raise ValueError(f"ledger {self.name!r} has no repetitions")
        return min(r.total_s for r in self.repetitions)

    def min_phase_s(self, phase: str) -> float | None:
        """Best seconds for one pipeline phase, or ``None`` if untracked."""
        values = [
            r.phases[phase]
            for r in self.repetitions
            if r.phases and phase in r.phases
        ]
        return min(values) if values else None

    def best_final_modularity(self) -> float | None:
        """Best final modularity across repetitions, if timelines exist."""
        values = [
            q["modularity"]
            for r in self.repetitions
            if (q := r.final_quality()) is not None
        ]
        return max(values) if values else None

    # --------------------------------------------------------- serialization
    def as_dict(self) -> dict:
        return {
            "schema": _SCHEMA_NAME,
            "version": self.version,
            "name": self.name,
            "created_unix": self.created_unix,
            "graph": self.graph,
            "config": self.config,
            "host": self.host,
            "repetitions": [
                {
                    "total_s": r.total_s,
                    "phases": r.phases,
                    "quality": r.quality,
                    "peak_rss_bytes": r.peak_rss_bytes,
                    "n_levels": r.n_levels,
                    "n_communities": r.n_communities,
                    "terminated_by": r.terminated_by,
                    "recovery": r.recovery,
                    "attribution": r.attribution,
                    "telemetry": r.telemetry,
                }
                for r in self.repetitions
            ],
        }

    @classmethod
    def from_dict(cls, data: dict, *, source: str = "<dict>") -> "RunRecord":
        if not isinstance(data, dict) or data.get("schema") != _SCHEMA_NAME:
            raise ReproError(f"{source}: not a {_SCHEMA_NAME} file")
        if data.get("version") != LEDGER_SCHEMA_VERSION:
            raise ReproError(
                f"{source}: unsupported ledger version "
                f"{data.get('version')!r} (expected {LEDGER_SCHEMA_VERSION})"
            )
        try:
            reps = [
                Repetition(
                    total_s=float(r["total_s"]),
                    phases=r.get("phases") or {},
                    quality=r.get("quality"),
                    peak_rss_bytes=r.get("peak_rss_bytes"),
                    n_levels=int(r.get("n_levels", 0)),
                    n_communities=int(r.get("n_communities", 0)),
                    terminated_by=r.get("terminated_by", ""),
                    recovery=r.get("recovery"),
                    attribution=r.get("attribution"),
                    telemetry=r.get("telemetry"),
                )
                for r in data.get("repetitions", [])
            ]
            return cls(
                name=data["name"],
                graph=data.get("graph", {}),
                config=data.get("config", {}),
                host=data.get("host", {}),
                repetitions=reps,
                created_unix=float(data.get("created_unix", 0.0)),
                version=data["version"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"{source}: malformed ledger: {exc}") from exc


def repetition_from_run(
    run,
    total_s: float,
    *,
    telemetry: dict | None = None,
    memory: dict | None = None,
) -> Repetition:
    """Build a :class:`Repetition` from a harness :class:`TracedRun`.

    ``total_s`` is the externally measured end-to-end wall time of the
    repetition; phases come from the run's spans
    (:meth:`~repro.bench.harness.TracedRun.phase_breakdown`), the
    quality block from its timeline, and the attribution block
    (:func:`repro.obs.attribution.attribute_run`) from its tracer,
    when each was attached.  ``telemetry`` is the live sampler's
    :meth:`~repro.obs.telemetry.TelemetrySampler.stats` block for this
    repetition, and ``memory`` the phase memory-attribution report
    (:meth:`~repro.obs.memprof.PhaseMemoryProfiler.report`) — both pass
    through into the stored repetition / attribution document.
    """
    timeline = getattr(run, "timeline", None)
    recovery = getattr(run.result, "recovery", None)
    tracer = getattr(run, "tracer", None)
    attribution = None
    if tracer is not None and getattr(tracer, "enabled", False):
        from repro.obs.attribution import attribute_run

        attribution = attribute_run(list(tracer.spans), memory=memory)
    return Repetition(
        total_s=float(total_s),
        phases=run.phase_breakdown() or {},
        quality=(
            timeline.as_dict()
            if timeline is not None and timeline.enabled
            else None
        ),
        peak_rss_bytes=peak_rss_bytes(),
        n_levels=run.result.n_levels,
        n_communities=run.result.n_communities,
        terminated_by=run.result.terminated_by,
        recovery=(
            recovery.as_dict()
            if recovery is not None and recovery.any_recovery()
            else None
        ),
        attribution=attribution,
        telemetry=telemetry or None,
    )


# ------------------------------------------------------------------ host
def host_info() -> dict:
    """The environment block every ledger carries (comparability key)."""
    return {
        "platform": _platform.platform(),
        "machine": _platform.machine(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "hostname": _platform.node(),
    }


def peak_rss_bytes() -> int | None:
    """Peak resident set size of this process, in bytes (None if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return int(rss) if sys.platform == "darwin" else int(rss) * 1024


# ------------------------------------------------------------------- I/O
def ledger_path(name: str, directory: str | os.PathLike = ".") -> Path:
    """The canonical ledger location: ``<directory>/BENCH_<name>.json``."""
    return Path(directory) / f"BENCH_{name}.json"


def write_ledger(
    record: RunRecord,
    path: str | os.PathLike | None = None,
    *,
    directory: str | os.PathLike = ".",
) -> Path:
    """Atomically write a ledger file; returns the final path.

    The record is serialized to a temporary file in the destination
    directory, fsynced, then ``os.replace``-d into place — a crash
    mid-write can never leave a truncated file under the final name
    (the same durability rule as :mod:`repro.resilience.checkpoint`).
    """
    final = Path(path) if path is not None else ledger_path(
        record.name, directory
    )
    final.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(final) as fh:
        json.dump(record.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return final


def read_ledger(path: str | os.PathLike) -> RunRecord:
    """Load and validate a ledger written by :func:`write_ledger`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ReproError(f"{path}: cannot read ledger: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ReproError(f"{path}: not valid JSON: {exc}") from exc
    return RunRecord.from_dict(data, source=str(path))


# ------------------------------------------------------------- comparison
#: The ``config`` keys that determine *which code ran* — two ledgers
#: disagreeing on any of these are measuring different things, and a
#: timing diff between them is meaningless.
CONFIG_DRIFT_KEYS = ("scorer", "matcher", "contractor")


def config_drift(
    base: RunRecord,
    new: RunRecord,
    *,
    keys: tuple[str, ...] = CONFIG_DRIFT_KEYS,
) -> list[str]:
    """Kernel config mismatches between two ledgers.

    Returns one human-readable line per differing key (empty list when
    the configs agree).  A key absent on both sides never drifts.
    ``repro compare`` refuses to diff drifting ledgers — silently
    comparing a ``worklist`` run against a ``sweep`` run would let a
    kernel change masquerade as a perf regression (or hide one).
    """
    drift = []
    for key in keys:
        b = base.config.get(key)
        n = new.config.get(key)
        if b != n:
            drift.append(
                f"config.{key}: {base.name!r} ran {b!r}, {new.name!r} ran {n!r}"
            )
    return drift


@dataclass(frozen=True)
class PhaseDelta:
    """One comparison row: a phase (or quality metric) across two ledgers.

    ``status`` ∈ ``{"ok", "regression", "improved", "n/a"}`` — ``n/a``
    when either side lacks the measurement.  For time rows, positive
    ``delta`` means the new side is slower; for the quality row the sign
    is flipped on ingest so positive ``delta`` always means "worse".
    """

    metric: str
    base: float | None
    new: float | None
    delta: float
    ratio: float
    status: str


@dataclass
class LedgerComparison:
    """Full outcome of comparing two ledgers."""

    base_name: str
    new_name: str
    rows: list[PhaseDelta] = field(default_factory=list)
    tolerance: float = 0.05
    noise_floor_s: float = 0.005
    quality_tolerance: float = 0.02

    @property
    def regressed(self) -> bool:
        return any(r.status == "regression" for r in self.rows)

    def regressions(self) -> list[PhaseDelta]:
        return [r for r in self.rows if r.status == "regression"]


def _classify(
    delta: float, ratio: float, tolerance: float, noise_floor: float
) -> str:
    if delta > noise_floor and ratio > tolerance:
        return "regression"
    if -delta > noise_floor and -ratio > tolerance:
        return "improved"
    return "ok"


def compare_ledgers(
    base: RunRecord,
    new: RunRecord,
    *,
    tolerance: float = 0.05,
    noise_floor_s: float = 0.005,
    quality_tolerance: float = 0.02,
) -> LedgerComparison:
    """Compare two ledgers phase by phase using min-of-N repetition times.

    A time row regresses when the new minimum exceeds the base minimum
    by **both** more than ``tolerance`` (relative) and more than
    ``noise_floor_s`` (absolute) — the double condition keeps
    microsecond phases from tripping percent-based thresholds and slow
    phases from hiding behind the absolute floor.  Final modularity
    regresses when it drops by more than ``quality_tolerance``
    (absolute).  Rows where either side lacks the measurement are
    marked ``n/a`` and never regress.
    """
    if tolerance < 0 or noise_floor_s < 0 or quality_tolerance < 0:
        raise ValueError("tolerances must be non-negative")
    cmp = LedgerComparison(
        base_name=base.name,
        new_name=new.name,
        tolerance=tolerance,
        noise_floor_s=noise_floor_s,
        quality_tolerance=quality_tolerance,
    )

    def time_row(metric: str, b: float | None, n: float | None) -> PhaseDelta:
        if b is None or n is None:
            return PhaseDelta(metric, b, n, 0.0, 0.0, "n/a")
        delta = n - b
        ratio = delta / b if b > 0 else (0.0 if n == 0 else float("inf"))
        return PhaseDelta(
            metric, b, n, delta, ratio,
            _classify(delta, ratio, tolerance, noise_floor_s),
        )

    for phase in PHASE_KEYS:
        cmp.rows.append(
            time_row(
                f"phase.{phase}",
                base.min_phase_s(phase),
                new.min_phase_s(phase),
            )
        )
    b_total = base.min_total_s() if base.repetitions else None
    n_total = new.min_total_s() if new.repetitions else None
    cmp.rows.append(time_row("end_to_end", b_total, n_total))

    b_q = base.best_final_modularity()
    n_q = new.best_final_modularity()
    if b_q is None or n_q is None:
        cmp.rows.append(
            PhaseDelta("final_modularity", b_q, n_q, 0.0, 0.0, "n/a")
        )
    else:
        drop = b_q - n_q  # positive = worse, matching the time rows
        status = "ok"
        if drop > quality_tolerance:
            status = "regression"
        elif -drop > quality_tolerance:
            status = "improved"
        cmp.rows.append(
            PhaseDelta(
                "final_modularity",
                b_q,
                n_q,
                drop,
                drop / abs(b_q) if b_q else 0.0,
                status,
            )
        )
    return cmp


# ------------------------------------------------------------------ views
def _fmt_s(v: float | None) -> str:
    return "-" if v is None else f"{v:.4f}"


def render_comparison(cmp: LedgerComparison) -> str:
    """ASCII regression table — the human view of :func:`compare_ledgers`."""
    rows = []
    for r in cmp.rows:
        if r.metric == "final_modularity":
            b = "-" if r.base is None else f"{r.base:.4f}"
            n = "-" if r.new is None else f"{r.new:.4f}"
            delta = f"{-r.delta:+.4f}" if r.status != "n/a" else "-"
        else:
            b, n = _fmt_s(r.base), _fmt_s(r.new)
            delta = (
                f"{100.0 * r.ratio:+.1f}%" if r.status != "n/a" else "-"
            )
        rows.append([r.metric, b, n, delta, r.status])
    table = format_table(
        ["metric", cmp.base_name, cmp.new_name, "delta", "status"],
        rows,
        title=(
            f"ledger comparison — {cmp.base_name} vs {cmp.new_name} "
            f"(min-of-N; tolerance {100.0 * cmp.tolerance:.0f}%, "
            f"noise floor {cmp.noise_floor_s:g}s)"
        ),
    )
    verdict = (
        f"REGRESSION: {', '.join(r.metric for r in cmp.regressions())}"
        if cmp.regressed
        else "no regression beyond tolerance"
    )
    return f"{table}\n{verdict}"


def render_ledger(record: RunRecord) -> str:
    """ASCII view of one ledger: phase times and the quality timeline."""
    n = len(record.repetitions)
    head = (
        f"benchmark ledger — {record.name} "
        f"(schema v{record.version}, {n} repetition{'s' if n != 1 else ''})\n"
        f"graph: {record.graph.get('name', '?')} "
        f"|V|={record.graph.get('n_vertices', '?')} "
        f"|E|={record.graph.get('n_edges', '?')}   "
        f"host: {record.host.get('hostname', '?')} "
        f"({record.host.get('cpu_count', '?')} cpus)"
    )
    phase_rows = []
    for phase in (*PHASE_KEYS, "end_to_end"):
        if phase == "end_to_end":
            values = [r.total_s for r in record.repetitions]
        else:
            values = [
                r.phases[phase]
                for r in record.repetitions
                if r.phases and phase in r.phases
            ]
        if not values:
            continue
        phase_rows.append(
            [
                phase,
                f"{min(values):.4f}",
                f"{sorted(values)[len(values) // 2]:.4f}",
                f"{max(values):.4f}",
            ]
        )
    blocks = [
        head,
        format_table(
            ["phase", "min s", "median s", "max s"],
            phase_rows,
            title="per-phase seconds (over repetitions)",
        ),
    ]
    rep = record.repetitions[0] if record.repetitions else None
    if rep is not None and rep.quality and rep.quality.get("levels"):
        q_rows = [
            [
                str(s["level"]),
                str(s["n_communities"]),
                f"{s['modularity']:.4f}",
                f"{s['coverage']:.4f}",
                f"{s['merge_fraction']:.3f}",
                str(s["matching_passes"]),
                str(s["community_sizes"].get("max", "-")),
            ]
            for s in rep.quality["levels"]
        ]
        blocks.append(
            format_table(
                [
                    "level",
                    "communities",
                    "modularity",
                    "coverage",
                    "merge frac",
                    "passes",
                    "max size",
                ],
                q_rows,
                title="quality timeline (repetition 0)",
            )
        )
    if rep is not None and rep.peak_rss_bytes:
        blocks.append(
            f"peak RSS: {rep.peak_rss_bytes / (1024 * 1024):.1f} MiB"
        )
    if rep is not None and rep.telemetry:
        t = rep.telemetry
        blocks.append(
            f"live telemetry (repetition 0): "
            f"{t.get('n_samples', 0)} sample(s) at "
            f"{t.get('interval_s', 0.0):g}s, "
            f"peak {t.get('peak_rss_mb', 0.0):.1f} MB anon RSS, "
            f"max ramp {t.get('max_ramp_mb_s', 0.0):+.2f} MB/s "
            f"[{t.get('rss_source', '?')}]"
        )
    if rep is not None and rep.attribution:
        a = rep.attribution
        hot = a.get("hotspots") or []
        n_bad = len((a.get("consistency") or {}).get("violations") or [])
        lines = ["attribution (repetition 0):"]
        if hot:
            lines.append(
                "  hotspots: "
                + ", ".join(
                    f"{h['name']} {h['self_s']:.4f}s" for h in hot[:3]
                )
            )
        lines.append(
            "  consistency: "
            + ("OK" if n_bad == 0 else f"{n_bad} violation(s)")
        )
        blocks.append("\n".join(lines))
    degraded = [
        (idx, r.recovery)
        for idx, r in enumerate(record.repetitions)
        if r.recovery
    ]
    if degraded:
        lines = ["recovery/guardian activity (degraded repetitions):"]
        for idx, rec in degraded:
            ladder = rec.get("ladder") or []
            parts = [
                f"{key}={rec[key]}"
                for key in ("retries", "guardian_breaches")
                if rec.get(key)
            ]
            if ladder:
                parts.append(f"ladder=[{' -> '.join(ladder)}]")
            lines.append(f"  rep {idx}: {', '.join(parts) or 'recovered'}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
