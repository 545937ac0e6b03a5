"""The kernel shootout: sweep matcher × contractor over a shape suite.

``python -m repro.bench.shootout`` runs every registered matcher ×
contractor pair over three shape-diverse generator workloads —

* **rmat** — power-law degree skew (the paper's primary workload),
* **sbm** — a flat planted-partition graph (low skew, strong
  community structure),
* **ba** — Barabási–Albert preferential attachment (hub-dominated,
  no community structure; the matcher stressor)

— and emits ``BENCH_kernels.json``: a standard benchmark ledger
(:mod:`repro.bench.ledger` schema) with **one repetition per
matcher×contractor cell**.  The repetition's ``total_s``/``phases`` sum
that cell's wall-clock across the suite, so ``repro trend`` tracks the
best pair's suite time exactly like it tracks the smoke bench, and
``config.cells`` maps repetitions back to kernel pairs.

Every pair produces bit-identical partitions (the registry's parity
contract, asserted here per graph), so the shootout measures pure
execution-profile differences.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

import numpy as np

from repro.bench.harness import run_with_trace
from repro.bench.ledger import (
    Repetition,
    RunRecord,
    host_info,
    peak_rss_bytes,
    render_ledger,
    write_ledger,
)
from repro.bench.smoke import append_dated_ledger
from repro.core.registry import kernel_names
from repro.core.termination import TerminationCriteria
from repro.generators import (
    barabasi_albert_graph,
    planted_partition_graph,
    rmat_graph,
)
from repro.obs import QualityTimeline, Tracer
from repro.obs.sinks import phase_totals

__all__ = ["suite_graphs", "run_shootout", "main"]


def suite_graphs(*, scale: float = 1.0, seed: int = 1) -> list[tuple[str, object]]:
    """The three shape-diverse suite workloads, smallest-first.

    ``scale`` multiplies every size (0.5 halves the suite for quick CI
    runs; 2.0 doubles it for steadier timings).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    n_sbm = max(200, int(3000 * scale))
    n_ba = max(200, int(2500 * scale))
    rmat_scale = max(8, int(round(10 + np.log2(scale))))
    return [
        ("sbm", planted_partition_graph(n_sbm, seed=seed)),
        ("ba", barabasi_albert_graph(n_ba, m=4, seed=seed)),
        ("rmat", rmat_graph(rmat_scale, 8, seed=seed)),
    ]


def run_shootout(
    *,
    name: str = "kernels",
    scale: float = 1.0,
    seed: int = 1,
    directory: str = ".",
    matchers: Sequence[str] | None = None,
    contractors: Sequence[str] | None = None,
    append_ledger_dir: str | None = None,
    keep_ledgers: int = 30,
):
    """Run the shootout; returns ``(record, ledger_path)``.

    One repetition per matcher×contractor cell (suite-summed wall
    seconds and phases), parity-asserted per graph.
    ``append_ledger_dir`` feeds the dated ``repro trend`` series like
    the smoke bench does.
    """
    matchers = list(matchers or kernel_names("matcher"))
    contractors = list(contractors or kernel_names("contractor"))
    graphs = suite_graphs(scale=scale, seed=seed)
    # Run every level down to the floor so each cell times the whole
    # hierarchy.
    termination = TerminationCriteria(min_communities=1, coverage=None)

    cells = [(m, c) for m in matchers for c in contractors]
    reference: dict[str, np.ndarray] = {}
    repetitions: list[Repetition] = []
    cell_meta: list[dict] = []
    for matcher, contractor in cells:
        cell_total = 0.0
        cell_phases: dict[str, float] = {}
        cell_levels = 0
        timeline = QualityTimeline()
        for graph_name, graph in graphs:
            tracer = Tracer()
            timeline = QualityTimeline()
            t0 = time.perf_counter()
            run = run_with_trace(
                graph,
                graph_name=graph_name,
                termination=termination,
                matcher=matcher,
                contractor=contractor,
                tracer=tracer,
                timeline=timeline,
            )
            cell_total += time.perf_counter() - t0
            # Parity gate: every pair must land on the identical
            # partition — a cell that diverges would make its timing
            # compare different answers, so fail loudly here.
            labels = run.result.partition.labels
            if graph_name not in reference:
                reference[graph_name] = labels
            elif not np.array_equal(reference[graph_name], labels):
                raise AssertionError(
                    f"kernel pair ({matcher}, {contractor}) broke partition "
                    f"parity on {graph_name}"
                )
            for key, s in (phase_totals(list(tracer.spans)) or {}).items():
                cell_phases[key] = cell_phases.get(key, 0.0) + s
            cell_levels += run.result.n_levels
        repetitions.append(
            Repetition(
                total_s=cell_total,
                phases=cell_phases,
                # Keep the last graph's timeline as the quality block so
                # compare/trend see a final modularity; parity means it
                # is identical across cells.
                quality=timeline.as_dict(),
                peak_rss_bytes=peak_rss_bytes(),
                n_levels=cell_levels,
                n_communities=0,
                terminated_by="suite",
            )
        )
        cell_meta.append({"matcher": matcher, "contractor": contractor})

    record = RunRecord(
        name=name,
        graph={
            "name": f"shootout-suite-x{scale:g}",
            "n_vertices": sum(g.n_vertices for _, g in graphs),
            "n_edges": sum(g.n_edges for _, g in graphs),
            "graphs": [
                {
                    "name": gname,
                    "n_vertices": g.n_vertices,
                    "n_edges": g.n_edges,
                }
                for gname, g in graphs
            ],
        },
        config={
            "scorer": "modularity",
            # The suite sweeps kernels; record the sweep itself so
            # config_drift flags any comparison against a ledger that
            # swept a different candidate pool.
            "matcher": "x".join(matchers),
            "contractor": "x".join(contractors),
            "seed": seed,
            "scale": scale,
            "cells": cell_meta,
        },
        host=host_info(),
        repetitions=repetitions,
        created_unix=time.time(),
    )
    path = write_ledger(record, directory=directory)
    if append_ledger_dir is not None:
        append_dated_ledger(
            path, append_ledger_dir, name=name, keep=keep_ledgers
        )
    return record, path


def _render_cells(record: RunRecord) -> str:
    from repro.bench.reporting import format_table

    rows = []
    order = sorted(
        range(len(record.repetitions)),
        key=lambda i: record.repetitions[i].total_s,
    )
    for rank, i in enumerate(order):
        rep = record.repetitions[i]
        cell = (record.config.get("cells") or [{}] * (i + 1))[i]
        rows.append(
            [
                str(rank),
                cell.get("matcher", "?"),
                cell.get("contractor", "?"),
                f"{rep.total_s:.4f}",
                f"{rep.phases.get('match', 0.0):.4f}",
                f"{rep.phases.get('contract', 0.0):.4f}",
            ]
        )
    return format_table(
        ["rank", "matcher", "contractor", "suite s", "match s", "contract s"],
        rows,
        title="kernel shootout — suite seconds per matcher×contractor cell",
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.shootout",
        description="sweep matcher x contractor kernels and emit "
        "BENCH_kernels.json",
    )
    parser.add_argument(
        "--name", default="kernels", help="ledger name (BENCH_<name>.json)"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="suite size multiplier (default 1.0; CI uses 0.5)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--out-dir", default=".", help="directory for the ledger file"
    )
    parser.add_argument(
        "--matchers",
        nargs="+",
        default=None,
        choices=kernel_names("matcher"),
        help="restrict the matcher pool (default: all registered)",
    )
    parser.add_argument(
        "--contractors",
        nargs="+",
        default=None,
        choices=kernel_names("contractor"),
        help="restrict the contractor pool (default: all registered)",
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
    record, path = run_shootout(
        name=args.name,
        scale=args.scale,
        seed=args.seed,
        directory=args.out_dir,
        matchers=args.matchers,
        contractors=args.contractors,
        append_ledger_dir=args.append_ledger_dir,
        keep_ledgers=args.keep_ledgers,
    )
    print(_render_cells(record))
    print()
    print(render_ledger(record))
    print(f"\nledger written to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
