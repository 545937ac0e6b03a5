"""The smoke benchmark: one small ledger-emitting end-to-end run.

``python -m repro.bench.smoke`` detects communities on a deterministic
planted-partition graph N times and writes the schema-versioned
``BENCH_<name>.json`` ledger (phase times, per-level quality timeline,
peak RSS) via :mod:`repro.bench.ledger`, printing the ASCII view.  CI's
smoke-bench job runs this and ``repro compare``-s the result against
the committed ``benchmarks/baselines/smoke.json``.

The graph is small on purpose — the job exists to prove the telemetry
pipeline end to end (timeline → ledger → compare) on every push, not to
produce publishable numbers; the paper-scale exhibits live under
``benchmarks/``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.bench.harness import run_with_trace
from repro.bench.ledger import (
    RunRecord,
    host_info,
    render_ledger,
    repetition_from_run,
    write_ledger,
)
from repro.core.registry import kernel_names
from repro.generators import planted_partition_graph
from repro.obs import QualityTimeline, Tracer
from repro.resilience.guardian import RunGuardian
from repro.resilience.invariants import AUDIT_MODES

__all__ = ["run_smoke", "append_dated_ledger", "main"]


def run_smoke(
    *,
    name: str = "smoke",
    n_vertices: int = 4000,
    reps: int = 3,
    seed: int = 1,
    matcher: str = "worklist",
    contractor: str = "bucket",
    directory: str = ".",
    audit: str = "sample",
    trace_out: str | None = None,
    perfetto_out: str | None = None,
    telemetry: bool = False,
    telemetry_interval: float = 0.05,
    status_file: str | None = None,
    memprof: bool = False,
    append_ledger_dir: str | None = None,
    keep_ledgers: int = 30,
):
    """Run the smoke benchmark and write its ledger; returns (record, path).

    ``trace_out``/``perfetto_out`` export the *last* repetition's trace
    as JSONL / Chrome trace-event JSON — the inputs ``repro report`` and
    Perfetto consume.

    ``telemetry`` (or a ``status_file``) attaches a fresh live sampler
    per repetition — counter samples land in that repetition's trace
    and the sampler's stats block lands on the stored repetition;
    ``memprof`` additionally attributes allocations per phase
    (tracemalloc; slows the timed region, so compare like with like).
    ``append_ledger_dir`` copies the written ledger to
    ``<dir>/BENCH_<name>-<UTC date>.json`` and prunes the directory to
    the newest ``keep_ledgers`` dated files — the feed ``repro trend``
    plots.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    graph = planted_partition_graph(n_vertices, seed=seed)
    record = RunRecord(
        name=name,
        graph={
            "name": f"planted-{n_vertices}",
            "n_vertices": graph.n_vertices,
            "n_edges": graph.n_edges,
        },
        config={
            "scorer": "modularity",
            "matcher": matcher,
            "contractor": contractor,
            "seed": seed,
            "audit": audit,
        },
        host=host_info(),
        created_unix=time.time(),
    )
    for _ in range(reps):
        tracer = Tracer()
        timeline = QualityTimeline()
        # Fresh guardian per repetition: the ladder position and audit
        # counters must not leak across timed runs.
        guardian = RunGuardian(audit) if audit != "off" else None
        sampler = None
        profiler = None
        if telemetry or status_file:
            from repro.obs.telemetry import TelemetrySampler

            sampler = TelemetrySampler(
                tracer,
                interval_s=telemetry_interval,
                status_path=status_file,
                meta={"command": "bench.smoke", "name": name},
            ).start()
        if memprof:
            from repro.obs.memprof import PhaseMemoryProfiler

            profiler = PhaseMemoryProfiler().start()
        t0 = time.perf_counter()
        try:
            run = run_with_trace(
                graph,
                graph_name=record.graph["name"],
                matcher=matcher,  # type: ignore[arg-type]
                contractor=contractor,  # type: ignore[arg-type]
                tracer=tracer,
                timeline=timeline,
                guardian=guardian,
                telemetry=sampler,
                memprof=profiler,
            )
        except BaseException:
            # tracemalloc must not stay armed past a failed repetition
            if profiler is not None:
                profiler.stop()
            raise
        finally:
            if sampler is not None:
                sampler.stop()
        total_s = time.perf_counter() - t0
        record.repetitions.append(
            repetition_from_run(
                run,
                total_s,
                telemetry=sampler.stats() if sampler is not None else None,
                memory=profiler.stop() if profiler is not None else None,
            )
        )
    meta = {"command": "bench.smoke", "name": name, **record.graph}
    if trace_out:
        from repro.obs import write_trace

        write_trace(tracer, trace_out, meta=meta)
    if perfetto_out:
        from repro.obs.perfetto import write_perfetto

        write_perfetto(
            list(tracer.spans),
            perfetto_out,
            samples=list(tracer.counter_samples),
            meta=meta,
        )
    path = write_ledger(record, directory=directory)
    if append_ledger_dir is not None:
        append_dated_ledger(
            path, append_ledger_dir, name=name, keep=keep_ledgers
        )
    return record, path


def append_dated_ledger(
    ledger_path,
    directory: str,
    *,
    name: str = "smoke",
    keep: int = 30,
    date: str | None = None,
):
    """Copy a ledger into the dated trend feed, pruning to ``keep`` files.

    The copy lands at ``<directory>/BENCH_<name>-<UTC date>.json`` (one
    slot per day — a same-day rerun overwrites, so the feed tracks the
    latest state of each day, not every push).  Oldest dated files
    beyond ``keep`` are deleted; the date sits in the filename but
    ordering uses each ledger's own ``created_unix``, the same key
    ``repro trend`` sorts by.  Returns the destination path.
    """
    import shutil
    from pathlib import Path

    if keep < 1:
        raise ValueError("keep must be at least 1")
    src = Path(ledger_path)
    dest_dir = Path(directory)
    dest_dir.mkdir(parents=True, exist_ok=True)
    stamp = date or time.strftime("%Y-%m-%d", time.gmtime())
    dest = dest_dir / f"BENCH_{name}-{stamp}.json"
    shutil.copyfile(src, dest)
    dated = sorted(dest_dir.glob(f"BENCH_{name}-*.json"))
    for stale in dated[: max(0, len(dated) - keep)]:
        stale.unlink(missing_ok=True)
    return dest


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.smoke",
        description="run the ledger-emitting smoke benchmark",
    )
    parser.add_argument("--name", default="smoke", help="ledger name (BENCH_<name>.json)")
    parser.add_argument("--vertices", type=int, default=4000)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--matcher", default="worklist", choices=kernel_names("matcher")
    )
    parser.add_argument(
        "--contractor", default="bucket", choices=kernel_names("contractor")
    )
    parser.add_argument(
        "--out-dir", default=".", help="directory for the ledger file"
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the last repetition's JSONL trace (repro report input)",
    )
    parser.add_argument(
        "--perfetto-out",
        metavar="PATH",
        default=None,
        help="write the last repetition's Chrome trace-event timeline",
    )
    parser.add_argument(
        "--audit",
        default="sample",
        choices=AUDIT_MODES,
        help="run-guardian invariant audit strictness (default: sample; "
        "the smoke gate proves its overhead stays inside the compare "
        "noise floor)",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="attach the live resource sampler per repetition (counter "
        "samples in the trace, stats block in the ledger)",
    )
    parser.add_argument(
        "--telemetry-interval",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="sampling period for --telemetry (default: 0.05 — the smoke "
        "graph is small, so sample fast enough to catch it)",
    )
    parser.add_argument(
        "--status-file",
        metavar="PATH",
        default=None,
        help="write the status.json heartbeat `repro watch` renders "
        "(implies --telemetry)",
    )
    parser.add_argument(
        "--memprof",
        action="store_true",
        help="attribute memory per phase with tracemalloc (slows the "
        "timed region; only compare against ledgers run the same way)",
    )
    parser.add_argument(
        "--append-ledger-dir",
        metavar="DIR",
        default=None,
        help="also copy the ledger to <DIR>/BENCH_<name>-<UTC date>.json "
        "for `repro trend`, pruning to --keep-ledgers files",
    )
    parser.add_argument(
        "--keep-ledgers",
        type=int,
        default=30,
        metavar="N",
        help="dated ledgers retained in --append-ledger-dir (default: 30)",
    )
    args = parser.parse_args(argv)
    record, path = run_smoke(
        name=args.name,
        n_vertices=args.vertices,
        reps=args.reps,
        seed=args.seed,
        matcher=args.matcher,
        contractor=args.contractor,
        directory=args.out_dir,
        audit=args.audit,
        trace_out=args.trace_out,
        perfetto_out=args.perfetto_out,
        telemetry=args.telemetry,
        telemetry_interval=args.telemetry_interval,
        status_file=args.status_file,
        memprof=args.memprof,
        append_ledger_dir=args.append_ledger_dir,
        keep_ledgers=args.keep_ledgers,
    )
    print(render_ledger(record))
    print(f"\nledger written to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
