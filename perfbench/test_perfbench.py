"""Self-tests of the benchmark, on its tiny input sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from child import PRINTED_Q_TOLERANCE  # noqa: E402
from run import EXACT_COUNTS, scale_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return detail, result


@pytest.fixture(scope="module")
def runs():
    cache: dict = {}

    def get(workload: str, trace: int, repeat: int = 0):
        key = (workload, trace, repeat)
        if key not in cache:
            cache[key] = bench(workload, trace)
        return cache[key]

    return get


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(runs, workload, trace, section):
    detail, result = runs(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        assert detail["metrics"][name]["n"] >= 1, name
        if trace == 0:
            assert m["value"] > 0, name
    assert detail["inputs"] and all(len(d["sha256"]) == 64 for d in detail["inputs"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly_for_a_fixed_seed(runs, workload):
    first = runs(workload, 1)[1]["metrics"]
    second = runs(workload, 1, repeat=1)[1]["metrics"]
    assert first["core.matching.passes"]["value"] > 0
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_host_speed_scaling_touches_times_and_rates_only():
    metrics = {
        "wall_s": {"value": 2.0, "unit": "s", "median": 2.0, "p_hi": 3.0},
        "batch_p50_ms": {"value": 10.0, "unit": "ms"},
        "edges_per_s": {"value": 100.0, "unit": "1/s"},
        "core.matching.passes": {"value": 7, "unit": "count"},
    }
    scale_times(metrics, 1.25)
    assert metrics["wall_s"] == {
        "value": 2.5, "unit": "s", "median": 2.5, "p_hi": 3.75, "raw_value": 2.0,
    }
    assert metrics["batch_p50_ms"]["value"] == 12.5
    assert metrics["edges_per_s"]["value"] == 80.0
    assert metrics["core.matching.passes"] == {"value": 7, "unit": "count"}


@pytest.fixture()
def detected(tmp_path):
    """A tiny planted input, its labels as ``repro detect`` wrote them,
    and the modularity the CLI reported."""
    import repro.cli as cli

    manifest = workloads.make_inputs("detect-planted", 5, "tiny", str(tmp_path))
    labels = str(tmp_path / "labels.txt")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["detect", manifest["input"], "-o", labels]) == 0
    reported = float(err.getvalue().split("modularity  :")[1].split()[0])
    return manifest, labels, reported


def test_checks_accept_the_program_output(detected):
    manifest, labels, reported = detected
    q = workloads.check_labels_file(labels, manifest["reference"], reported, PRINTED_Q_TOLERANCE)
    assert q > 0.5


@pytest.mark.parametrize(
    "corrupt",
    [
        "move_vertex",  # a vertex moved to another community: modularity drifts
        "drop_line",
        "sparse_label",
        "swap_order",
        "extra_column",
    ],
)
def test_checks_reject_a_corrupted_labels_file(detected, corrupt):
    manifest, labels, reported = detected
    rows = np.loadtxt(labels, dtype=np.int64, delimiter="\t")
    lines = [f"{v}\t{c}" for v, c in rows]
    if corrupt == "move_vertex":
        lines[0] = f"0\t{(rows[0, 1] + 1) % (rows[:, 1].max() + 1)}"
    elif corrupt == "drop_line":
        lines.pop()
    elif corrupt == "sparse_label":
        lines[0] = f"0\t{rows[:, 1].max() + 5}"
    elif corrupt == "swap_order":
        lines[0], lines[1] = lines[1], lines[0]
    else:
        lines[0] += "\t7"
    with open(labels, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckError):
        workloads.check_labels_file(labels, manifest["reference"], reported, PRINTED_Q_TOLERANCE)


@pytest.mark.parametrize("workload", ["detect-rmat", "detect-planted"])
def test_independent_modularity_matches_the_program(tmp_path, workload):
    from repro.graph import load_npz, read_edgelist
    from repro.metrics import Partition, modularity

    manifest = workloads.make_inputs(workload, 2, "tiny", str(tmp_path))
    read = load_npz if manifest["input"].endswith(".npz") else read_edgelist
    graph = read(manifest["input"])
    labels = np.random.default_rng(0).integers(0, 7, graph.n_vertices)
    labels = Partition.from_labels(labels).labels
    with np.load(manifest["reference"]) as ref:
        q = workloads.modularity_of(labels, ref["ei"], ref["ej"], ref["w"], ref["self_w"])
    assert q == pytest.approx(modularity(graph, Partition(labels)), abs=1e-12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_per_seed_and_differ_between_seeds(tmp_path, workload):
    digests = []
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        (tmp_path / name).mkdir()
        digests.append(workloads.make_inputs(workload, seed, "tiny", str(tmp_path / name))["digests"])
    assert digests[0] == digests[1] != digests[2]
