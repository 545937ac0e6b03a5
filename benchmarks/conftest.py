"""Shared fixtures for the paper-reproduction benchmarks.

Each benchmark regenerates one exhibit of the paper's evaluation section
and prints it in the paper's layout (ours beside the paper's reported
numbers where applicable).  The traced algorithm runs are session-scoped:
one detection run per (graph, kernel-variant) feeds every platform sweep,
mirroring the paper's methodology.

Set ``REPRO_BENCH_SCALE`` to shrink/grow the scaled datasets (default 1.0).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.bench import load_dataset, run_with_trace
from repro.bench.ledger import (
    RunRecord,
    host_info,
    repetition_from_run,
    write_ledger,
)
from repro.obs import Tracer

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))

#: Where the machine-readable BENCH_<name>.json ledgers land (repo root;
#: the .txt exhibits under results/ are the human views over these).
LEDGER_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="session")
def datasets():
    """The three Table II analogue graphs."""
    return {
        name: load_dataset(name, scale=SCALE, seed=SEED)
        for name in ("rmat-24-16", "soc-LiveJournal1", "uk-2007-05")
    }


@pytest.fixture(scope="session")
def traced_runs(datasets):
    """One traced detection run per graph (default kernels).

    Each run is wall-clock traced, and dual-emits
    a machine-readable ``BENCH_<dataset>.json`` ledger at the repo root
    alongside the ``.txt`` exhibits (see ``docs/OBSERVABILITY.md``).
    """
    runs = {}
    for name, graph in datasets.items():
        t0 = time.perf_counter()
        run = run_with_trace(
            graph,
            graph_name=name,
            tracer=Tracer(),
        )
        total_s = time.perf_counter() - t0
        record = RunRecord(
            name=name,
            graph={
                "name": name,
                "n_vertices": run.n_vertices,
                "n_edges": run.n_edges,
            },
            config={
                "scorer": "modularity",
                "matcher": "worklist",
                "contractor": "bucket",
                "scale": SCALE,
                "seed": SEED,
            },
            host=host_info(),
            created_unix=time.time(),
            repetitions=[repetition_from_run(run, total_s)],
        )
        write_ledger(record, directory=LEDGER_DIR)
        runs[name] = run
    return runs


@pytest.fixture(scope="session")
def results_dir():
    """Directory where benchmarks persist their printed exhibits."""
    path = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(path, exist_ok=True)
    return path


def emit(capsys, results_dir: str, name: str, text: str) -> None:
    """Print an exhibit to the terminal and persist it for EXPERIMENTS.md."""
    with capsys.disabled():
        print()
        print(text)
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
