"""The repository benchmark: graph file -> labels, and batch -> labels.

    python3 perfbench/run.py --workload detect-rmat --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from ``--seed``, then launches fresh
child interpreters one at a time (``child.py``), each timing one
operation, until ``--seconds`` are spent.  Prints a detail line (host,
input digests, every metric with unit, median, tail percentile and
sample count) and, as the last line, the JSON result.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
alternates untraced and traced children and reports the per-layer
metrics.  Times are scaled to a reference host speed measured by the
children's probes.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Whole-run budget, inside the 180 s a run may take.
RUN_LIMIT_S = 160.0
#: Time metrics are reported as on a host where ``child.host_speed_probe``
#: takes this long: each is scaled by this over the run's median probe.
PROBE_REFERENCE_S = 0.16
#: Layer counts that must repeat exactly between traced children.
EXACT_COUNTS = (
    "core.matching.passes",
    "core.matching.level0_passes",
    "core.engine.levels",
    "stream.service.frontier_vertices",
    "stream.service.reruns",
)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch(manifest_path: str, traced: bool, out_dir: str, timeout: float) -> dict:
    """Run one child to completion and return its JSON report."""
    os.makedirs(out_dir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--manifest", manifest_path,
           "--traced", str(int(traced)), "--out-dir", out_dir, "--launched"]
    try:
        proc = subprocess.run(cmd + [repr(now())], capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"failures": [f"child timed out after {timeout:.0f} s"], "ops": 1, "traced": traced}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"failures": [f"child exited {proc.returncode}: {proc.stderr[-2000:]}"],
                "ops": 1, "traced": traced}
    return json.loads(lines[-1])


def collect(manifest_path: str, work: str, seconds: int, trace: bool, started: float) -> list[dict]:
    """Children one at a time until the next would overrun ``seconds``."""
    children: list[dict] = []
    t_start = now()
    while True:
        traced = trace and len(children) % 2 == 1
        t = now()
        timeout = max(10.0, RUN_LIMIT_S - (t - started))
        children.append(launch(manifest_path, traced, os.path.join(work, f"child{len(children)}"), timeout))
        last = now() - t
        if now() - started + last > RUN_LIMIT_S:
            break
        if len(children) >= (2 if trace else 1) and now() - t_start + last > seconds:
            break
    return children


def percentile(values: list[float], pct: float) -> float:
    s = sorted(values)
    k = (len(s) - 1) * pct / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def describe(values: list[float], value: float, unit: str) -> dict:
    """Median, the highest whole percentile with >= 10 samples beyond it, n."""
    n = len(values)
    out = {"value": value, "unit": unit, "n": n, "median": statistics.median(values)}
    if n >= 11:
        pct = int(100 * (1 - 10 / n))
        out.update(p_hi_pct=pct, p_hi=percentile(values, pct))
    return out


def end_to_end(ok: list[dict], units: dict) -> dict:
    latencies = [x for c in ok for x in c["latencies_ms"]]
    samples = {
        "wall_s": [c["wall_s"] for c in ok],
        "edges_per_s": [c["events"] / c["wall_s"] for c in ok],
        "setup_s": [c["setup_s"] for c in ok],
        "peak_rss_mb": [c["rss_mb"] for c in ok],
        "modularity": [c["modularity"] for c in ok],
        "batch_p50_ms": latencies,
        "batch_p90_ms": latencies,
    }
    pinned = {"batch_p50_ms": 50, "batch_p90_ms": 90}
    return {
        name: describe(
            samples[name],
            percentile(samples[name], pinned[name]) if name in pinned else statistics.median(samples[name]),
            unit,
        )
        for name, unit in units.items()
    }


def per_layer(ok: list[dict], units: dict, failures: list[str]) -> tuple[dict, float]:
    plain = [c["wall_s"] for c in ok if not c["traced"]]
    traced = [c for c in ok if c["traced"]]
    if not plain or not traced:
        failures.append("a traced run needs an untraced and a traced child")
        return {}, float("nan")
    for name in EXACT_COUNTS:
        if len({c["layers"].get(name, 0) for c in traced}) > 1:
            failures.append(f"{name} differs between traced children of one seed")
    overhead = 100.0 * (statistics.median(c["wall_s"] for c in traced) / statistics.median(plain) - 1.0)
    metrics = {}
    for name, unit in units.items():
        values = [overhead] if name == "trace_overhead_pct" else [c["layers"].get(name, 0.0) for c in traced]
        metrics[name] = describe(values, statistics.median(values), unit)
    return metrics, 100.0 * statistics.median(c["layers"]["named_share"] for c in traced)


def scale_times(metrics: dict, scale: float) -> None:
    """Scale every time (and divide every rate) by ``scale``, in place.

    The unscaled value is kept as ``raw_value`` for the detail line.
    """
    for m in metrics.values():
        factor = {"s": scale, "ms": scale, "1/s": 1.0 / scale}.get(m["unit"])
        if factor is None:
            continue
        m["raw_value"] = m["value"]
        for key in ("value", "median", "p_hi"):
            if key in m:
                m[key] *= factor


def host() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gcc": shutil.which("gcc") is not None,
        "machine": platform.machine(),
        "threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-long inputs for the self-tests")
    args = p.parse_args(argv)
    started = now()
    # Set before numpy loads; children inherit them.  One BLAS/OpenMP
    # thread, so the numbers describe the program, not a thread pool.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    work = os.path.join(ROOT, ".bench_build", "perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        manifest = workloads.make_inputs(args.workload, args.seed, args.size, work)
        manifest["src"] = SRC
        manifest_path = os.path.join(work, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        children = collect(manifest_path, work, args.seconds, bool(args.trace), started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [c for c in children if not c["failures"]]
    # One operation more than the children ran: all children of one seed
    # must agree on the labels and, when traced, on the layer counts.
    disagreements = []
    if len({c["labels_sha256"] for c in ok}) > 1:
        disagreements.append("children of one seed wrote different labels")
    named = None
    if not ok:
        metrics = {}
    elif args.trace:
        metrics, named = per_layer(ok, units, disagreements)
    else:
        metrics = end_to_end(ok, units)
    # The host's slow phases stretch the probe and the program alike.
    probes = [x for c in ok for x in c["probes_s"]]
    probe_s = statistics.median(probes) if probes else PROBE_REFERENCE_S
    scale_times(metrics, PROBE_REFERENCE_S / probe_s)
    failures = [f for c in children for f in c["failures"]] + disagreements
    attempted = sum(c["ops"] for c in children) + 1
    failed = sum(min(len(c["failures"]), c["ops"]) for c in children) + bool(disagreements)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "host": host(),
        "inputs": manifest["digests"],
        "children": len(children),
        "probe_s": {"median": probe_s, "n": len(probes), "reference": PROBE_REFERENCE_S},
        "named_layer_share_pct": named,
        "metrics": metrics,
        "failures": failures[:5],
    }
    print(json.dumps(detail))
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    raise SystemExit(main())
