"""Command-line interface.

Subcommands::

    python -m repro detect    # cluster a graph file, write communities
    python -m repro generate  # write an R-MAT / planted / webgraph file
    python -m repro info      # print size/degree statistics of a graph
    python -m repro kernels   # list registered kernels + capability metadata
    python -m repro bench     # regenerate a paper exhibit (table1..figure3)
    python -m repro report    # render a run trace (+ ledger) to Markdown/HTML
    python -m repro trend     # metric trajectory across BENCH_*.json ledgers
    python -m repro watch     # live ASCII view of a running run's status.json
    python -m repro replay    # stream an edge log through the detection service
    python -m repro serve     # journal-and-apply edge events read from stdin

Every command reads/writes the formats in :mod:`repro.graph.io`
(``edgelist``, ``metis``, ``npz``, auto-detected from the extension).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

import numpy as np

from repro import __version__
from repro.core import (
    TerminationCriteria,
    create_kernel,
    detect_communities,
    kernel_names,
    refine_partition,
)
from repro.errors import RunAbortedError
from repro.graph import (
    load_npz,
    read_edgelist,
    read_metis,
    save_npz,
    write_edgelist,
    write_metis,
)
from repro.graph.graph import CommunityGraph
from repro.metrics import Partition, average_conductance, coverage, modularity
from repro.obs import Tracer, as_tracer, render_profile, write_trace
from repro.resilience.guardian import RunGuardian
from repro.resilience.invariants import AUDIT_MODES

__all__ = ["main"]


def _make_tracer(args: argparse.Namespace) -> Tracer | None:
    """A real tracer when ``--trace-out``/``--profile``/``--metrics-out``/
    ``--perfetto-out`` ask for one."""
    if (
        getattr(args, "trace_out", None)
        or getattr(args, "profile", False)
        or getattr(args, "metrics_out", None)
        or getattr(args, "perfetto_out", None)
    ):
        return Tracer()
    return None


def _make_telemetry(
    args: argparse.Namespace, tracer: Tracer | None
) -> "TelemetrySampler | None":
    """A live-telemetry sampler when ``--telemetry``/``--status-file``
    ask for one (counter samples need a tracer; the status heartbeat
    does not)."""
    if not (
        getattr(args, "telemetry", False)
        or getattr(args, "status_file", None)
    ):
        return None
    from repro.obs.telemetry import TelemetrySampler

    return TelemetrySampler(
        tracer,
        interval_s=getattr(args, "telemetry_interval", 0.25),
        status_path=getattr(args, "status_file", None),
        meta={"command": args.command},
    )


def _make_memprof(args: argparse.Namespace) -> "PhaseMemoryProfiler | None":
    if not getattr(args, "memprof", False):
        return None
    from repro.obs.memprof import PhaseMemoryProfiler

    return PhaseMemoryProfiler()


def _print_memprof(report: dict) -> None:
    phases = (report or {}).get("phases") or {}
    if not phases:
        return
    print("memory attribution (tracemalloc):", file=sys.stderr)
    for name, p in phases.items():
        line = (
            f"  {name}: net {p['net_bytes'] / 1e6:+.1f} MB, "
            f"peak {p['peak_bytes'] / 1e6:.1f} MB over {p['calls']} call(s)"
        )
        top = p.get("top_sites") or []
        if top:
            line += f"; top site {top[0]['site']} ({top[0]['net_bytes'] / 1e6:+.1f} MB)"
        print(line, file=sys.stderr)


def _emit_trace(
    tracer: Tracer | None, args: argparse.Namespace, meta: dict
) -> None:
    """Write the JSONL trace / Prometheus metrics / profile table."""
    if tracer is None:
        return
    if args.trace_out:
        n = write_trace(tracer, args.trace_out, meta=meta)
        print(
            f"trace: {n} spans written to {args.trace_out}", file=sys.stderr
        )
    if getattr(args, "perfetto_out", None):
        from repro.obs.perfetto import write_perfetto

        n = write_perfetto(
            list(tracer.spans),
            args.perfetto_out,
            samples=list(tracer.counter_samples),
            meta=meta,
        )
        print(
            f"perfetto: {n} events written to {args.perfetto_out} "
            "(open in ui.perfetto.dev)",
            file=sys.stderr,
        )
    if getattr(args, "metrics_out", None):
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(tracer.metrics.render_prometheus())
        print(f"metrics: written to {args.metrics_out}", file=sys.stderr)
    if args.profile:
        print(render_profile(list(tracer.spans)), file=sys.stderr)


def _load_graph(path: str, fmt: str) -> CommunityGraph:
    if fmt == "auto":
        if path.endswith(".npz"):
            fmt = "npz"
        elif path.endswith((".metis", ".graph")):
            fmt = "metis"
        else:
            fmt = "edgelist"
    if fmt == "npz":
        return load_npz(path)
    if fmt == "metis":
        return read_metis(path)
    return read_edgelist(path)


def _save_graph(graph: CommunityGraph, path: str, fmt: str) -> None:
    if fmt == "auto":
        if path.endswith(".npz"):
            fmt = "npz"
        elif path.endswith((".metis", ".graph")):
            fmt = "metis"
        else:
            fmt = "edgelist"
    if fmt == "npz":
        save_npz(graph, path)
    elif fmt == "metis":
        write_metis(graph, path)
    else:
        write_edgelist(graph, path)


# ----------------------------------------------------------------- detect
def _cmd_detect(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    graph = _load_graph(args.input, args.format)
    termination = TerminationCriteria(
        coverage=args.coverage if args.coverage >= 0 else None,
        min_communities=args.min_communities,
        max_community_size=args.max_community_size,
        max_levels=args.max_levels,
    )
    tracer = _make_tracer(args)

    if args.algorithm == "parallel":
        scorer = create_kernel("scorer", args.scorer)
        guardian = None
        if (
            args.audit != "off"
            or args.phase_deadline is not None
            or args.memory_budget is not None
        ):
            guardian = RunGuardian(
                args.audit,
                phase_deadline_s=args.phase_deadline,
                memory_budget_mb=args.memory_budget,
            )
        tr = as_tracer(tracer)
        telemetry = _make_telemetry(args, tracer)
        memprof = _make_memprof(args)
        if telemetry is not None:
            telemetry.start()
        if memprof is not None:
            memprof.start()
        live_stopped = False

        def _stop_live(state: "str | None" = None) -> None:
            # Idempotent: the abort path stops early (so the final
            # counter samples land in the emitted trace) and the
            # ``finally`` is the join-on-any-exception backstop.
            nonlocal live_stopped
            if live_stopped:
                return
            live_stopped = True
            if telemetry is not None:
                telemetry.stop(state=state)
            if memprof is not None:
                _print_memprof(memprof.stop())

        try:
            with tr.span(
                "run", graph=args.input, algorithm="parallel"
            ) as rsp:
                result = detect_communities(
                    graph,
                    scorer,
                    termination=termination,
                    matcher=args.matcher,
                    contractor=args.contractor,
                    tracer=tracer,
                    checkpoint_dir=args.checkpoint_dir,
                    resume=args.resume,
                    guardian=guardian,
                    telemetry=telemetry,
                    memprof=memprof,
                )
                rsp.set(
                    items=graph.n_edges,
                    n_levels=result.n_levels,
                    terminated_by=result.terminated_by,
                )
        except RunAbortedError as exc:
            _stop_live(state="failed")
            print(f"error: {exc}", file=sys.stderr)
            if exc.report is not None:
                print(f"resilience: {exc.report.summary()}", file=sys.stderr)
            if exc.checkpoint_path is not None:
                print(
                    f"checkpoint written to {exc.checkpoint_path}; re-run "
                    "with --resume to continue from the completed levels",
                    file=sys.stderr,
                )
            # the trace carries the guardian breach/degrade spans — the
            # forensics are most valuable exactly when the run aborted
            _emit_trace(
                tracer,
                args,
                meta={"command": "detect", "input": args.input, "aborted": True},
            )
            return 3
        finally:
            _stop_live()
        partition = result.partition
        print(
            f"parallel agglomeration: {result.n_levels} levels, "
            f"terminated by {result.terminated_by}",
            file=sys.stderr,
        )
        if args.checkpoint_dir or result.recovery.any_recovery():
            print(
                f"resilience: {result.recovery.summary()}", file=sys.stderr
            )
    elif args.algorithm == "cnm":
        from repro.baselines.cnm import cnm_communities

        partition, _ = cnm_communities(graph)
    elif args.algorithm == "louvain":
        from repro.baselines.louvain import louvain_communities

        partition, _ = louvain_communities(graph, seed=args.seed)
    else:
        from repro.baselines.label_prop import label_propagation_communities

        partition = label_propagation_communities(graph, seed=args.seed)

    if args.refine:
        partition, moves = refine_partition(graph, partition)
        print(f"refinement: {moves} vertex moves", file=sys.stderr)

    print(
        f"communities : {partition.n_communities}\n"
        f"modularity  : {modularity(graph, partition):.6f}\n"
        f"coverage    : {coverage(graph, partition):.6f}\n"
        f"conductance : {average_conductance(graph, partition):.6f}",
        file=sys.stderr,
    )
    out = sys.stdout if args.output == "-" else open(args.output, "w")
    try:
        for v, c in enumerate(partition.labels.tolist()):
            out.write(f"{v}\t{c}\n")
    finally:
        if out is not sys.stdout:
            out.close()

    # after the labels are safely written: a bad --trace-out path must
    # not cost the user the detection results
    _emit_trace(
        tracer,
        args,
        meta={
            "command": "detect",
            "input": args.input,
            "algorithm": args.algorithm,
            "scorer": args.scorer,
            "matcher": args.matcher,
            "contractor": args.contractor,
            "n_vertices": graph.n_vertices,
            "n_edges": graph.n_edges,
        },
    )
    return 0


# --------------------------------------------------------------- generate
def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.generators import (
        planted_partition_graph,
        rmat_graph,
        webgraph,
    )

    if args.model == "rmat":
        graph = rmat_graph(args.scale, args.edge_factor, seed=args.seed)
    elif args.model == "planted":
        graph = planted_partition_graph(args.vertices, seed=args.seed)
    else:
        graph = webgraph(args.vertices, seed=args.seed)
    _save_graph(graph, args.output, args.format)
    print(
        f"wrote {graph.n_vertices} vertices, {graph.n_edges} edges "
        f"to {args.output}",
        file=sys.stderr,
    )
    return 0


# ------------------------------------------------------------------- info
def _cmd_info(args: argparse.Namespace) -> int:
    graph = _load_graph(args.input, args.format)
    deg = graph.edges.degrees()
    print(f"vertices      : {graph.n_vertices}")
    print(f"edges         : {graph.n_edges}")
    print(f"total weight  : {graph.total_weight():g}")
    print(f"self weight   : {graph.internal_weight():g}")
    if graph.n_vertices:
        print(f"degree min/med/max : {deg.min()}/{int(np.median(deg))}/{deg.max()}")
    print(f"memory words  : {graph.memory_words()}")
    from repro.graph import connected_components

    _, k = connected_components(graph.n_vertices, graph.edges.ei, graph.edges.ej)
    print(f"components    : {k}")
    return 0


# ---------------------------------------------------------------- analyze
def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import community_summary
    from repro.bench.reporting import format_table
    from repro.metrics import (
        expansion,
        intercluster_conductance,
        performance,
    )

    graph = _load_graph(args.input, args.format)
    labels = np.loadtxt(args.labels, dtype=np.int64, usecols=1)
    if len(labels) != graph.n_vertices:
        print(
            f"error: {args.labels} has {len(labels)} labels for a graph "
            f"with {graph.n_vertices} vertices",
            file=sys.stderr,
        )
        return 1
    partition = Partition.from_labels(labels)

    print(f"communities            : {partition.n_communities}")
    print(f"modularity             : {modularity(graph, partition):.6f}")
    print(f"coverage               : {coverage(graph, partition):.6f}")
    print(f"mean conductance       : {average_conductance(graph, partition):.6f}")
    print(f"DIMACS performance     : {performance(graph, partition):.6f}")
    print(f"DIMACS expansion       : {expansion(graph, partition):.6f}")
    print(
        "intercluster conduct.  : "
        f"{intercluster_conductance(graph, partition):.6f}"
    )
    stats = community_summary(graph, partition)
    rows = stats.as_rows(top=args.top)
    print()
    print(
        format_table(
            ["community", "size", "internal", "cut", "density", "conductance"],
            rows,
            title=f"largest {len(rows)} communities",
        )
    )
    return 0


# ---------------------------------------------------------------- kernels
def _cmd_kernels(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_table
    from repro.core import KERNEL_KINDS, kernel_catalog

    kinds = [args.kind] if args.kind else list(KERNEL_KINDS)
    first = True
    for kind in kinds:
        infos = kernel_catalog(kind)
        if not first:
            print()
        first = False
        rows = [
            [
                i.name,
                "yes" if i.deterministic else "no",
                i.description or "-",
            ]
            for i in infos
        ]
        print(
            format_table(
                ["name", "deterministic", "description"],
                rows,
                title=f"{kind}s ({len(infos)} registered)",
            )
        )
    return 0


# ------------------------------------------------------------------ bench
def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        format_scaling,
        format_table1,
        format_table2,
        format_table3,
    )
    from repro.bench.experiments import figure1, figure3, table3

    tracer = _make_tracer(args)
    if args.exhibit == "table1":
        print(format_table1())
    elif args.exhibit == "table2":
        from repro.bench import load_dataset

        measured = {
            name: (g.n_vertices, g.n_edges)
            for name, g in (
                (n, load_dataset(n, scale=args.scale, seed=args.seed))
                for n in ("rmat-24-16", "soc-LiveJournal1", "uk-2007-05")
            )
        }
        print(format_table2(measured))
    elif args.exhibit == "table3":
        print(
            format_table3(
                table3(scale=args.scale, seed=args.seed, tracer=tracer)
            )
        )
    elif args.exhibit in ("figure1", "figure2"):
        data = figure1(scale=args.scale, seed=args.seed, tracer=tracer)
        speedup = args.exhibit == "figure2"
        for g, sweeps in data.sweeps.items():
            for _, sr in sweeps.items():
                print(format_scaling(sr, speedup=speedup))
                print()
    else:  # figure3
        data = figure3(scale=args.scale, seed=args.seed, tracer=tracer)
        for _, sr in data.sweeps["uk-2007-05"].items():
            print(format_scaling(sr))
            print(format_scaling(sr, speedup=True))
            print()
    _emit_trace(
        tracer,
        args,
        meta={
            "command": "bench",
            "exhibit": args.exhibit,
            "scale": args.scale,
            "seed": args.seed,
        },
    )
    return 0


# ---------------------------------------------------------------- compare
def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.bench.ledger import (
        compare_ledgers,
        config_drift,
        read_ledger,
        render_comparison,
    )
    from repro.errors import ReproError

    try:
        base = read_ledger(args.base)
        new = read_ledger(args.new)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    drift = config_drift(base, new)
    if drift:
        if not args.ignore_config:
            print(
                "error: the ledgers were produced by different "
                "kernel configurations — a timing diff between "
                "them compares different code, not a regression:",
                file=sys.stderr,
            )
            for line in drift:
                print(f"  {line}", file=sys.stderr)
            print(
                "(re-run the benchmark with matching --matcher/"
                "--contractor/--scorer, or pass --ignore-config to "
                "diff anyway)",
                file=sys.stderr,
            )
            return 2
        print(
            "warning: comparing across config drift (--ignore-config):",
            file=sys.stderr,
        )
        for line in drift:
            print(f"  {line}", file=sys.stderr)
    cmp = compare_ledgers(
        base,
        new,
        tolerance=args.tolerance,
        noise_floor_s=args.noise_floor,
        quality_tolerance=args.quality_tolerance,
    )
    print(render_comparison(cmp))
    return 1 if cmp.regressed else 0


# ----------------------------------------------------------------- report
def _cmd_report(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.obs import read_trace
    from repro.obs.report import markdown_to_html, render_report, write_report

    try:
        trace = read_trace(args.trace)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ledger = None
    if args.ledger:
        from repro.bench.ledger import read_ledger

        try:
            ledger = read_ledger(args.ledger)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    title = args.title or f"repro run report — {args.trace}"
    if args.output == "-":
        md = render_report(trace, ledger=ledger, title=title)
        print(markdown_to_html(md, title=title) if args.html else md)
    else:
        write_report(
            trace,
            args.output,
            ledger=ledger,
            title=title,
            as_html=args.html,
        )
        print(f"report: written to {args.output}", file=sys.stderr)
    return 0


# ------------------------------------------------------------------ trend
def _cmd_trend(args: argparse.Namespace) -> int:
    from repro.bench.ascii_plot import ascii_xy_plot
    from repro.bench.ledger import compare_ledgers, read_ledger
    from repro.bench.reporting import format_table
    from repro.errors import ReproError

    try:
        ledgers = [(path, read_ledger(path)) for path in args.ledgers]
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ledgers.sort(key=lambda pair: pair[1].created_unix)

    def metric_of(record) -> float | None:
        if args.metric == "end_to_end":
            return record.min_total_s() if record.repetitions else None
        return record.min_phase_s(args.metric)

    rows = []
    points = []
    for idx, (path, record) in enumerate(ledgers):
        value = metric_of(record)
        q = record.best_final_modularity()
        rows.append(
            [
                str(idx),
                path,
                "-" if value is None else f"{value:.4f}",
                "-" if q is None else f"{q:.4f}",
            ]
        )
        if value is not None and value > 0:
            points.append((float(idx + 1), value))
    print(
        format_table(
            ["run", "ledger", f"{args.metric} s (min)", "modularity"],
            rows,
            title=f"benchmark trend — {args.metric} over "
            f"{len(ledgers)} ledger(s), oldest first",
        )
    )
    if len(points) >= 2:
        print()
        print(
            ascii_xy_plot(
                {args.metric: points},
                title=f"{args.metric} trajectory (min-of-N seconds)",
                xlabel="run (1 = oldest)",
                ylabel="seconds",
            )
        )

    regressions = []
    for (_, older), (new_path, newer) in zip(ledgers, ledgers[1:]):
        cmp = compare_ledgers(
            older,
            newer,
            tolerance=args.tolerance,
            noise_floor_s=args.noise_floor,
            quality_tolerance=args.quality_tolerance,
        )
        for r in cmp.regressions():
            regressions.append((new_path, r.metric, r.ratio))
    if regressions:
        print()
        print("regressions between consecutive runs:")
        for path, metric, ratio in regressions:
            print(f"  {path}: {metric} {100.0 * ratio:+.1f}%")
        return 1 if args.strict else 0
    print("\nno regression between consecutive runs")
    return 0


# ------------------------------------------------------------------ watch
def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.obs.telemetry import read_status, render_status

    def render_once() -> int:
        try:
            status = read_status(args.path)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(render_status(status, stall_after_s=args.stall_after))
        return 0

    if args.once:
        return render_once()
    try:
        while True:
            # Home the cursor and clear so the view updates in place.
            sys.stdout.write("\x1b[2J\x1b[H")
            rc = render_once()
            if rc != 0:
                return rc
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


# ---------------------------------------------------------------- stream
def _make_stream_service(args: argparse.Namespace) -> "DetectionService":
    """Build the streaming service (+ fault plan) the stream verbs share."""
    from repro.resilience.faults import FaultPlan
    from repro.resilience.retry import RetryPolicy
    from repro.stream.service import (
        CRASH_POINTS,
        DetectionService,
        StreamConfig,
    )

    faults = None
    if getattr(args, "kill_after", None):
        try:
            point, _, idx = args.kill_after.rpartition(":")
            if point not in CRASH_POINTS:
                raise ValueError(
                    f"unknown crash point {point!r} "
                    f"(one of {', '.join(CRASH_POINTS)})"
                )
            faults = FaultPlan.sigkill_at(point, [int(idx)])
        except ValueError as exc:
            raise SystemExit(f"error: --kill-after: {exc}")
    config = StreamConfig(
        scorer=args.scorer,
        matcher=args.matcher,
        contractor=args.contractor,
        seed=args.seed,
        snapshot_every=args.snapshot_every,
        snapshot_keep=args.snapshot_keep,
        drift_threshold=(
            args.drift_threshold if args.drift_threshold > 0 else None
        ),
        repair_deadline_s=args.repair_deadline,
        retry=RetryPolicy(
            max_retries=2,
            backoff_base_s=0.01,
            backoff_cap_s=0.25,
            jitter=args.retry_jitter,
            jitter_seed=args.seed,
        ),
    )
    return DetectionService(args.data_dir, config, faults=faults)


def _stream_epilogue(args: argparse.Namespace, svc) -> int:
    """Shared post-run steps of the stream verbs: labels out + verify."""
    if getattr(args, "labels_out", None):
        labels = svc.labels
        with open(args.labels_out, "w", encoding="utf-8") as fh:
            if labels is not None:
                for v, c in enumerate(labels.tolist()):
                    fh.write(f"{v}\t{c}\n")
        print(f"labels: written to {args.labels_out}", file=sys.stderr)
    if getattr(args, "verify", False):
        # Re-open briefly: verify() re-scans the WAL, which close()
        # released.  The check must see exactly the durable state a
        # future recovery would.
        svc.open()
        try:
            outcome = svc.verify()
        finally:
            svc.close()
        status = "ok" if outcome["ok"] else "FAILED"
        detail = ", ".join(
            f"{name}={'ok' if passed else 'FAIL'}"
            for name, passed in outcome["checks"].items()
        )
        print(f"verify: {status} ({detail})", file=sys.stderr)
        if not outcome["ok"]:
            return 1
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import json as _json

    from repro.errors import ReproError
    from repro.stream.replay import ReplayHarness, generate_edge_log

    log_path = args.log
    if args.generate:
        if log_path is None:
            print("error: --generate requires --log PATH", file=sys.stderr)
            return 2
        generate_edge_log(
            log_path,
            n_batches=args.batches,
            batch_size=args.batch_size,
            n_vertices=args.vertices,
            n_blocks=args.blocks,
            p_delete=args.p_delete,
            drift_every=args.drift_every,
            seed=args.log_seed,
        )
        print(
            f"generated {args.batches}-batch edge log at {log_path}",
            file=sys.stderr,
        )
    if log_path is None:
        print("error: --log PATH is required", file=sys.stderr)
        return 2
    svc = _make_stream_service(args)
    harness = ReplayHarness(
        svc, bench_path=args.bench_out, report_path=args.report_out
    )
    try:
        summary = harness.run(log_path, max_batches=args.max_batches)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(_json.dumps(summary, indent=2))
    if svc.report.any_recovery():
        print(f"resilience: {svc.report.summary()}", file=sys.stderr)
    return _stream_epilogue(args, svc)


def _cmd_serve(args: argparse.Namespace) -> int:
    import json as _json

    from repro.errors import ReproError
    from repro.stream.replay import EDGE_LOG_HEADER

    svc = _make_stream_service(args)
    try:
        svc.open()
    except ReproError as exc:
        print(f"error: recovery failed: {exc}", file=sys.stderr)
        return 3
    if svc.report.any_recovery():
        print(f"resilience: {svc.report.summary()}", file=sys.stderr)
    print(
        f"serving from {args.data_dir} at batch {svc.batch_seq} "
        f"({svc.n_vertices} vertices, {svc.n_communities} communities); "
        "reading edge events from stdin",
        file=sys.stderr,
    )

    cur_t: int | None = None
    ii: list[int] = []
    jj: list[int] = []
    ww: list[float] = []
    op: list[int] = []

    def _flush() -> None:
        nonlocal ii, jj, ww, op
        if cur_t is None or not ii:
            ii, jj, ww, op = [], [], [], []
            return
        res = svc.ingest(
            np.asarray(ii),
            np.asarray(jj),
            np.asarray(ww),
            np.asarray(op, dtype=np.int8),
        )
        print(
            _json.dumps(
                {
                    "seq": res.seq,
                    "applied": res.applied,
                    "n_vertices": res.n_vertices,
                    "n_edges": res.n_edges,
                    "n_communities": res.n_communities,
                    "modularity": res.modularity,
                    "coverage": res.coverage,
                    "latency_s": res.latency_s,
                    "rerun": res.rerun,
                }
            ),
            flush=True,
        )
        ii, jj, ww, op = [], [], [], []

    rc = 0
    try:
        for line in sys.stdin:
            line = line.strip()
            if not line or line.startswith("#") or line == EDGE_LOG_HEADER:
                continue
            parts = line.split()
            if len(parts) != 5 or parts[1] not in ("+", "-"):
                print(
                    f"error: malformed edge event {line!r} "
                    "(want: t +|- i j w)",
                    file=sys.stderr,
                )
                rc = 2
                break
            t = int(parts[0])
            if cur_t is not None and t != cur_t:
                _flush()
            cur_t = t
            ii.append(int(parts[2]))
            jj.append(int(parts[3]))
            ww.append(float(parts[4]))
            op.append(1 if parts[1] == "+" else -1)
        else:
            _flush()
    except KeyboardInterrupt:
        pass
    finally:
        svc.close()
    if rc != 0:
        return rc
    return _stream_epilogue(args, svc)


def _add_stream_arguments(p: argparse.ArgumentParser) -> None:
    """Service knobs shared by ``repro serve`` and ``repro replay``."""
    p.add_argument(
        "--data-dir",
        required=True,
        metavar="DIR",
        help="durable service state (wal/ + snapshots/); recovery "
        "replays whatever a previous process left here",
    )
    p.add_argument(
        "--scorer", default="modularity", choices=kernel_names("scorer")
    )
    p.add_argument(
        "--matcher", default="worklist", choices=kernel_names("matcher")
    )
    p.add_argument(
        "--contractor", default="bucket", choices=kernel_names("contractor")
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--snapshot-every",
        type=int,
        default=8,
        metavar="N",
        help="persist a snapshot every N batches (default: 8)",
    )
    p.add_argument(
        "--snapshot-keep",
        type=int,
        default=3,
        metavar="N",
        help="snapshots retained on disk (default: 3)",
    )
    p.add_argument(
        "--drift-threshold",
        type=float,
        default=0.1,
        metavar="DQ",
        help="modularity drop below the last full detection that "
        "triggers a full rerun (<= 0 disables; default: 0.1)",
    )
    p.add_argument(
        "--repair-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per incremental repair; a breach "
        "triggers a (journaled) full rerun",
    )
    p.add_argument(
        "--retry-jitter",
        type=float,
        default=0.0,
        metavar="F",
        help="decorrelated-jitter strength for repair retries "
        "(0 disables; see docs/RESILIENCE.md)",
    )
    p.add_argument(
        "--kill-after",
        metavar="POINT:INDEX",
        default=None,
        help="SIGKILL this process the INDEX-th time it passes the "
        "named crash point (wal-append, apply, snapshot, post-snapshot, "
        "wal-rerun) — the kill-chaos harness's deterministic crash",
    )
    p.add_argument(
        "--labels-out",
        metavar="PATH",
        default=None,
        help="write the final vertex\\tcommunity labels",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="after the run, re-open the durable state and fail "
        "(exit 1) unless every structural self-check passes",
    )


# ----------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scalable multi-threaded community detection "
        "(Riedy, Meyerhenke, Bader; IPDPSW 2012)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="log per-level progress to stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="cluster a graph file")
    p.add_argument("input")
    p.add_argument("-o", "--output", default="-", help="labels file (default stdout)")
    p.add_argument("--format", default="auto", choices=["auto", "edgelist", "metis", "npz"])
    p.add_argument(
        "--algorithm",
        default="parallel",
        choices=["parallel", "cnm", "louvain", "labelprop"],
    )
    p.add_argument(
        "--scorer", default="modularity", choices=kernel_names("scorer")
    )
    p.add_argument(
        "--matcher", default="worklist", choices=kernel_names("matcher")
    )
    p.add_argument(
        "--contractor", default="bucket", choices=kernel_names("contractor")
    )
    p.add_argument(
        "--coverage",
        type=float,
        default=-1.0,
        help="stop at this coverage (negative = run to local maximum)",
    )
    p.add_argument("--min-communities", type=int, default=1)
    p.add_argument("--max-community-size", type=int, default=None)
    p.add_argument("--max-levels", type=int, default=None)
    p.add_argument("--refine", action="store_true", help="run local refinement")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--audit",
        default="sample",
        choices=AUDIT_MODES,
        help="run-guardian invariant audit strictness: 'off' disables "
        "the auditor, 'sample' (default) runs cheap conservation checks "
        "every level and recomputes quality on sampled levels, 'full' "
        "verifies everything every level (see docs/RESILIENCE.md)",
    )
    p.add_argument(
        "--phase-deadline",
        type=float,
        metavar="SECONDS",
        default=None,
        help="soft per-phase deadline; a breach steps the guardian's "
        "degradation ladder (lighter audits, then checkpoint-and-abort)",
    )
    p.add_argument(
        "--memory-budget",
        type=float,
        metavar="MB",
        default=None,
        help="soft resident-memory budget sampled after each phase; a "
        "breach steps the guardian's degradation ladder (lighter audits, "
        "then checkpoint-and-abort)",
    )
    p.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="persist the loop state after every level for crash recovery",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue from the newest valid checkpoint in --checkpoint-dir",
    )
    p.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a JSONL wall-clock run trace (see docs/OBSERVABILITY.md)",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="print the per-level phase-time table to stderr",
    )
    p.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write run metrics in Prometheus text exposition format",
    )
    p.add_argument(
        "--perfetto-out",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event JSON timeline "
        "(open in ui.perfetto.dev or chrome://tracing)",
    )
    p.add_argument(
        "--telemetry",
        action="store_true",
        help="sample RSS/GC counters in the background and "
        "record them into the trace (parallel algorithm only)",
    )
    p.add_argument(
        "--telemetry-interval",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="sampling period for --telemetry (default: 0.25)",
    )
    p.add_argument(
        "--status-file",
        metavar="PATH",
        default=None,
        help="write an atomically-updated status.json heartbeat for "
        "`repro watch` (implies --telemetry)",
    )
    p.add_argument(
        "--memprof",
        action="store_true",
        help="attribute memory per pipeline phase with tracemalloc "
        "(parallel algorithm only; adds allocation-tracking overhead)",
    )
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("generate", help="generate a synthetic graph file")
    p.add_argument("model", choices=["rmat", "planted", "webgraph"])
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--format", default="auto", choices=["auto", "edgelist", "metis", "npz"])
    p.add_argument("--scale", type=int, default=12, help="R-MAT scale")
    p.add_argument("--edge-factor", type=int, default=16)
    p.add_argument("--vertices", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("info", help="print graph statistics")
    p.add_argument("input")
    p.add_argument("--format", default="auto", choices=["auto", "edgelist", "metis", "npz"])
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser(
        "analyze", help="summarize a community assignment against its graph"
    )
    p.add_argument("input", help="graph file")
    p.add_argument("labels", help="vertex\\tcommunity file from `detect`")
    p.add_argument("--format", default="auto", choices=["auto", "edgelist", "metis", "npz"])
    p.add_argument("--top", type=int, default=10, help="communities to list")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "kernels",
        help="list registered kernels with capability metadata",
        description="List every kernel registered under each phase kind "
        "(scorer/matcher/contractor) with its capability descriptor: "
        "whether it is deterministic.",
    )
    p.add_argument(
        "--kind",
        default=None,
        choices=["scorer", "matcher", "contractor"],
        help="restrict the listing to one phase kind",
    )
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser("bench", help="regenerate a paper exhibit")
    p.add_argument(
        "exhibit",
        choices=["table1", "table2", "table3", "figure1", "figure2", "figure3"],
    )
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a JSONL wall-clock run trace of the exhibit's runs",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="print per-run phase-time tables to stderr",
    )
    p.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write run metrics in Prometheus text exposition format",
    )
    p.add_argument(
        "--perfetto-out",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event JSON timeline of the exhibit's runs",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "compare",
        help="compare two benchmark ledgers; exit 1 on regression",
        description="Compare two BENCH_*.json ledgers (see "
        "docs/OBSERVABILITY.md) phase by phase using min-of-N repetition "
        "times.  Exits 1 iff a phase, the end-to-end time, or final "
        "modularity regresses beyond tolerance; 2 on unreadable input.",
    )
    p.add_argument("base", help="baseline ledger (BENCH_*.json)")
    p.add_argument("new", help="candidate ledger to judge against the baseline")
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="relative slowdown allowed per phase (default 0.05 = 5%%)",
    )
    p.add_argument(
        "--noise-floor",
        type=float,
        default=0.005,
        metavar="SECONDS",
        help="absolute slowdown below which a delta is noise (default 5 ms)",
    )
    p.add_argument(
        "--quality-tolerance",
        type=float,
        default=0.02,
        help="absolute final-modularity drop allowed (default 0.02)",
    )
    p.add_argument(
        "--ignore-config",
        action="store_true",
        help="diff even when the ledgers' kernel configs differ "
        "(by default config drift is an error, exit 2)",
    )
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "report",
        help="render a run trace (+ optional ledger) into a repro report",
        description="Render a JSONL run trace — plus an optional benchmark "
        "ledger — into a self-contained Markdown (or HTML) report: phase "
        "breakdown, per-level timeline with quality curve, hotspot "
        "ranking, and the trace consistency verdict "
        "(see docs/OBSERVABILITY.md).",
    )
    p.add_argument("trace", help="JSONL trace from --trace-out")
    p.add_argument(
        "--ledger",
        metavar="PATH",
        default=None,
        help="BENCH_*.json ledger to fold in (quality curve, repetitions)",
    )
    p.add_argument(
        "-o",
        "--output",
        default="-",
        help="report file (default stdout)",
    )
    p.add_argument(
        "--html",
        action="store_true",
        help="emit a self-contained HTML page instead of Markdown",
    )
    p.add_argument(
        "--title", default=None, help="report title (default: trace path)"
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "trend",
        help="plot a metric across benchmark ledgers; flag regressions",
        description="Order BENCH_*.json ledgers by creation time, tabulate "
        "and plot one metric's min-of-N trajectory, and flag regressions "
        "between consecutive runs using the same tolerance logic as "
        "`repro compare`.  Exits 1 only with --strict.",
    )
    p.add_argument(
        "ledgers", nargs="+", help="two or more BENCH_*.json ledgers"
    )
    p.add_argument(
        "--metric",
        default="end_to_end",
        choices=["score", "match", "contract", "total", "end_to_end"],
        help="which min-of-N metric to plot (default end_to_end)",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="relative slowdown allowed between consecutive runs",
    )
    p.add_argument(
        "--noise-floor",
        type=float,
        default=0.005,
        metavar="SECONDS",
        help="absolute slowdown below which a delta is noise",
    )
    p.add_argument(
        "--quality-tolerance",
        type=float,
        default=0.02,
        help="absolute final-modularity drop allowed",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any consecutive pair regresses",
    )
    p.set_defaults(func=_cmd_trend)

    p = sub.add_parser(
        "watch",
        help="live ASCII view of a running run's status.json",
        description="Render the status.json heartbeat a telemetry-enabled "
        "run (`repro detect --status-file ...`) keeps updated.  Refreshes "
        "in place until interrupted; flags stale heartbeats and stalled "
        "phases.",
    )
    p.add_argument(
        "path",
        help="status.json file, or the directory containing one",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="render a single snapshot and exit (no screen clearing)",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh period (default: 1.0)",
    )
    p.add_argument(
        "--stall-after",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="seconds in one phase before flagging a stall (default: 30)",
    )
    p.set_defaults(func=_cmd_watch)

    p = sub.add_parser(
        "replay",
        help="stream a timestamped edge log through the detection service",
        description="Replay an edge log (see docs/STREAMING.md) through "
        "the durable streaming service: every batch is journaled in the "
        "write-ahead log before it mutates state, per-batch latency and "
        "quality are ledgered into a BENCH_stream.json, and re-running "
        "the same command after a crash (or --kill-after) resumes from "
        "the recovered state — the final partition is bit-identical to "
        "an uninterrupted run.",
    )
    p.add_argument(
        "--log",
        metavar="PATH",
        default=None,
        help="edge log to replay (written by --generate if asked)",
    )
    p.add_argument(
        "--generate",
        action="store_true",
        help="first synthesize a deterministic drifting edge log at --log",
    )
    p.add_argument(
        "--batches", type=int, default=24, help="batches to generate"
    )
    p.add_argument(
        "--batch-size", type=int, default=64, help="events per batch"
    )
    p.add_argument(
        "--vertices", type=int, default=96, help="vertex universe size"
    )
    p.add_argument(
        "--blocks", type=int, default=4, help="planted community count"
    )
    p.add_argument(
        "--p-delete",
        type=float,
        default=0.15,
        help="fraction of events deleting a live edge",
    )
    p.add_argument(
        "--drift-every",
        type=int,
        default=0,
        metavar="N",
        help="rotate planted memberships every N batches (0 freezes "
        "them; rotation makes modularity genuinely drift)",
    )
    p.add_argument(
        "--log-seed", type=int, default=0, help="generator seed"
    )
    p.add_argument(
        "--max-batches",
        type=int,
        default=None,
        metavar="N",
        help="stop after batch sequence N",
    )
    p.add_argument(
        "--bench-out",
        metavar="PATH",
        default="BENCH_stream.json",
        help="per-batch latency/quality ledger (default: "
        "BENCH_stream.json; merged by sequence across restarts)",
    )
    p.add_argument(
        "--report-out",
        metavar="PATH",
        default=None,
        help="write the recovery report JSON",
    )
    _add_stream_arguments(p)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser(
        "serve",
        help="journal-and-apply edge events read from stdin",
        description="Run the streaming detection service interactively: "
        "recover whatever state --data-dir holds, then read edge events "
        "(`t +|- i j w`, batched by timestamp) from stdin, journaling "
        "each batch in the WAL before applying it and printing one JSON "
        "result line per batch.  EOF (or Ctrl-C) snapshots and exits.",
    )
    _add_stream_arguments(p)
    p.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = None
    if args.verbose:
        from repro.util.log import enable_console_logging

        handler = enable_console_logging()
    try:
        return args.func(args)
    finally:
        if handler is not None:
            import logging

            logging.getLogger("repro").removeHandler(handler)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
