"""One timed operation of a workload, in a fresh interpreter.

Run by ``run.py``; prints one JSON object on stdout.  ``detect``
manifests time ``repro detect`` from input file to labels on disk;
``stream`` manifests time a closed-loop trickle of batches into a
``DetectionService``.  With ``--traced 1`` the calls into each layer's
public functions are wrapped and timed from here; nothing in the
program is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

from workloads import CheckError, check_labels_file, modularity_of, sha256_file

#: The untraced CLI prints modularity with six decimals; the traced run
#: captures the exact float and is held to 1e-9.
PRINTED_Q_TOLERANCE = 5e-7 + 1e-9
EXACT_Q_TOLERANCE = 1e-9
#: Batches between two host-speed probes in the stream trickle.
STREAM_PROBE_EVERY = 20


def now() -> float:
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's launch
    # stamp and the child's ready stamp share one time base.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_speed_probe() -> float:
    """Seconds for a fixed mix of NumPy sorting and interpreted dict work.

    Uses nothing from the program under test.  It runs between the timed
    operations, so it samples the same phases of the shared host; see
    ``run.PROBE_REFERENCE_S``.
    """
    keys = np.random.default_rng(0).integers(0, 1 << 40, size=1 << 18)
    t = now()
    order = np.argsort(keys, kind="stable")
    np.bincount((keys[order] & 0xFFFF).astype(np.int64))
    np.unique(keys)
    tally: dict[int, int] = {}
    for i in range(100_000):
        tally[i & 1023] = tally.get(i & 1023, 0) + i
    return now() - t


class Clock:
    """Seconds per layer, accumulated by wrappers."""

    def __init__(self) -> None:
        self.s: dict[str, float] = defaultdict(float)
        self.last_end = 0.0

    def wrap(self, name, fn):
        def timed(*args, **kwargs):
            t = now()
            try:
                return fn(*args, **kwargs)
            finally:
                self.last_end = now()
                self.s[name] += self.last_end - t

        return timed


def traced_kernels(clock: Clock, counts: dict, matcher: str, contractor: str):
    """Registry matcher/contractor wrapped to time and count each call."""
    from repro.core import create_kernel

    match_fn = create_kernel("matcher", matcher)
    contract_fn = create_kernel("contractor", contractor)

    def match(graph, scores, recorder=None, **kwargs):
        t = now()
        result = match_fn(graph, scores, recorder, **kwargs)
        dt = now() - t
        clock.s["match"] += dt
        if counts["match_calls"] == 0:
            clock.s["level0_match"] += dt
            counts["level0_passes"] += int(result.passes)
        counts["match_calls"] += 1
        counts["passes"] += int(result.passes)
        counts["pairs"] += int(result.n_pairs)
        counts["failed_claims"] += int(result.failed_claims)
        return result

    def contract(graph, matching, recorder=None, **kwargs):
        t = now()
        result = contract_fn(graph, matching, recorder, **kwargs)
        dt = now() - t
        clock.s["contract"] += dt
        if counts["contract_calls"] == 0:
            clock.s["level0_contract"] += dt
        counts["contract_calls"] += 1
        return result

    return match, contract


def kernel_layers(s: dict, counts: dict) -> dict:
    """The core.* layers, which both modes measure."""
    pairs, failed = counts["pairs"], counts["failed_claims"]
    return {
        "core.scoring.score_s": s["score"],
        "core.matching.match_s": s["match"],
        "core.matching.level0_match_s": s["level0_match"],
        "core.matching.passes": counts["passes"],
        "core.matching.level0_passes": counts["level0_passes"],
        "core.matching.claim_success_ratio": (
            2 * pairs / (2 * pairs + failed) if pairs + failed else 1.0
        ),
        "core.contraction.contract_s": s["contract"],
        "core.contraction.level0_contract_s": s["level0_contract"],
        "core.engine.levels": counts["levels"],
    }


# ------------------------------------------------------------------ detect
def install_detect_tracing(cli, clock: Clock, counts: dict, captured: dict) -> None:
    import repro.graph.io as gio
    from repro.graph.graph import CommunityGraph

    cli.read_edgelist = clock.wrap("load", cli.read_edgelist)
    cli.load_npz = clock.wrap("load", cli.load_npz)
    gio.from_edges = clock.wrap("from_edges", gio.from_edges)
    CommunityGraph.validate = clock.wrap("validate", CommunityGraph.validate)

    real_detect = cli.detect_communities

    def detect(graph, scorer, *, matcher, contractor, guardian=None, **kwargs):
        scorer.score = clock.wrap("score", scorer.score)
        if guardian is not None:
            guardian.audit_contraction = clock.wrap("audit", guardian.audit_contraction)
            guardian.audit_quality = clock.wrap("audit", guardian.audit_quality)
        match, contract = traced_kernels(clock, counts, matcher, contractor)
        t = now()
        result = real_detect(
            graph, scorer, matcher=match, contractor=contract, guardian=guardian, **kwargs
        )
        clock.s["detect"] += now() - t
        counts["levels"] = result.n_levels
        return result

    cli.detect_communities = detect

    real_modularity = cli.modularity

    def modularity(graph, partition):
        captured["modularity"] = real_modularity(graph, partition)
        return captured["modularity"]

    cli.modularity = clock.wrap("summary", modularity)
    cli.coverage = clock.wrap("summary", cli.coverage)
    cli.average_conductance = clock.wrap("summary", cli.average_conductance)


def detect_layers(clock: Clock, counts: dict, wall: float, main_end: float) -> dict:
    s = clock.s
    engine_other = s["detect"] - s["score"] - s["match"] - s["contract"] - s["audit"]
    write_labels = main_end - clock.last_end if s["summary"] else 0.0
    layers = {
        "graph.io.parse_s": s["load"] - s["from_edges"] - s["validate"],
        "graph.build.from_edges_s": s["from_edges"],
        "graph.graph.validate_s": s["validate"],
        **kernel_layers(s, counts),
        "core.engine.other_s": engine_other,
        "resilience.audit_s": s["audit"],
        "metrics.summary_s": s["summary"],
        "cli.write_labels_s": write_labels,
        "cli.other_s": wall - s["load"] - s["detect"] - s["summary"] - write_labels,
    }
    layers["named_share"] = 1.0 - (layers["core.engine.other_s"] + layers["cli.other_s"]) / wall
    return layers


def run_detect(m: dict, traced: bool, launched: float, out_dir: str) -> dict:
    import repro.cli as cli

    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["detect", m["warmup"], "-o", os.path.join(out_dir, "warmup.labels")])
    if rc:
        raise CheckError(f"warm-up detect exited {rc}")
    setup_s = now() - launched

    probes = [host_speed_probe()]
    clock, counts, captured = Clock(), defaultdict(int), {}
    if traced:
        install_detect_tracing(cli, clock, counts, captured)
    labels_path = os.path.join(out_dir, "labels.txt")
    err = io.StringIO()
    t0 = now()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["detect", m["input"], "-o", labels_path])
    t1 = now()
    rss = peak_rss_mb()
    probes.append(host_speed_probe())
    if rc:
        raise CheckError(f"detect exited {rc}: {err.getvalue()[-500:]}")

    if traced:
        reported, tol = captured["modularity"], EXACT_Q_TOLERANCE
    else:
        found = re.search(r"^modularity\s*:\s*(\S+)$", err.getvalue(), re.M)
        if found is None:
            raise CheckError("detect reported no modularity")
        reported, tol = float(found.group(1)), PRINTED_Q_TOLERANCE
    q = check_labels_file(labels_path, m["reference"], reported, tol)
    out = {
        "setup_s": setup_s,
        "probes_s": probes,
        "wall_s": t1 - t0,
        "latencies_ms": [(t1 - t0) * 1e3],
        "events": m["n_edges"],
        "rss_mb": rss,
        "modularity": q,
        "labels_sha256": sha256_file(labels_path),
    }
    if traced:
        out["layers"] = detect_layers(clock, counts, t1 - t0, t1)
    return out


# ------------------------------------------------------------------ stream
def install_stream_tracing(clock: Clock, counts: dict) -> None:
    """Module-level seams; must run before the service is constructed."""
    import repro.stream.delta as delta
    import repro.stream.service as service
    from repro.core import AgglomerationEngine, create_kernel

    def engine_factory(scorer, *, matcher, contractor, termination):
        scorer_obj = create_kernel("scorer", scorer)
        scorer_obj.score = clock.wrap("score", scorer_obj.score)
        match, contract = traced_kernels(clock, counts, matcher, contractor)
        engine = AgglomerationEngine(
            scorer_obj, matcher=match, contractor=contract, termination=termination
        )
        real_run = engine.run

        def run(graph, ctx=None, **kwargs):
            counts["match_calls"] = counts["contract_calls"] = 0  # next call is level 0
            t = now()
            result = real_run(graph, ctx, **kwargs)
            clock.s["engine"] += now() - t
            counts["engine_vertices"] += graph.n_vertices
            counts["levels"] += result.n_levels
            return result

        engine.run = run
        return engine

    service.AgglomerationEngine = engine_factory
    service.from_edges = clock.wrap("reduce", service.from_edges)
    delta.from_edges = clock.wrap("as_graph_build", delta.from_edges)
    service.modularity = clock.wrap("measure", service.modularity)
    service.coverage = clock.wrap("measure", service.coverage)


def wrap_service(svc, clock: Clock, counts: dict) -> None:
    """Seams on the service's own objects."""
    real_append = svc.wal.append

    def append(payload, **kwargs):
        counts["wal_bytes"] += len(payload)
        return real_append(payload, **kwargs)

    svc.wal.append = clock.wrap("wal_append", append)
    svc.store.apply = clock.wrap("apply", svc.store.apply)
    svc.store.as_graph = clock.wrap("measure", svc.store.as_graph)
    svc.snapshots.save = clock.wrap("snapshot", svc.snapshots.save)
    svc.wal.truncate_upto = clock.wrap("snapshot", svc.wal.truncate_upto)


def stream_layers(s: dict, counts: dict, n_batches: int, wall: float, n_vertices: int) -> dict:
    per_batch = {
        "stream.wal.append_ms": s["wal_append"],
        "stream.delta.apply_ms": s["apply"],
        "stream.service.reduce_ms": s["reduce"],
        "stream.service.engine_ms": s["engine"],
        "stream.service.measure_ms": s["measure"],
        "stream.store.snapshot_ms": s["snapshot"],
    }
    other = wall - sum(per_batch.values())
    layers = {k: v * 1e3 / n_batches for k, v in per_batch.items()}
    layers.update(
        {
            "stream.service.other_ms": other * 1e3 / n_batches,
            "stream.wal.bytes": counts["wal_bytes"] / n_batches,
            "stream.service.frontier_vertices": counts["engine_vertices"] / n_batches,
            "stream.service.frontier_fraction": counts["engine_vertices"] / n_batches / n_vertices,
            "stream.service.reruns": counts["reruns"],
            "graph.build.from_edges_s": s["reduce"] + s["as_graph_build"],
            **kernel_layers(s, counts),
            "core.engine.other_s": s["engine"] - s["score"] - s["match"] - s["contract"],
            "named_share": 1.0 - other / wall,
        }
    )
    return layers


def run_stream(m: dict, traced: bool, launched: float, out_dir: str) -> dict:
    from repro.stream import DetectionService

    with np.load(m["events"]) as z:
        ev = {k: z[k] for k in z.files}
    clock, counts = Clock(), defaultdict(int)
    if traced:
        install_stream_tracing(clock, counts)

    # Set-up is the first open() plus the bootstrap ingest of the base
    # graph in this interpreter, so one-time costs land in it.
    t = now()
    svc = DetectionService(os.path.join(out_dir, "svc"))
    svc.open()
    svc.ingest(ev["base_i"], ev["base_j"], ev["base_w"])
    setup_s = now() - t

    if traced:
        wrap_service(svc, clock, counts)
        clock.s.clear()
        for key in list(counts):
            counts[key] = 0
    reruns_before = svc.report.stream_reruns
    ptr = ev["batch_ptr"]
    n_batches = len(ptr) - 1
    latencies, failures, last = [], [], None
    probes = [host_speed_probe()]
    t0 = now()
    for b in range(n_batches):
        if b and b % STREAM_PROBE_EVERY == 0:
            t = now()
            probes.append(host_speed_probe())
            t0 += now() - t  # the trickle's wall time leaves the probes out
        sl = slice(ptr[b], ptr[b + 1])
        seq = svc.batch_seq + 1
        t = now()
        try:
            last = svc.ingest(ev["ev_i"][sl], ev["ev_j"][sl], None, ev["ev_op"][sl])
        except Exception:  # a raised batch is a failed operation, not a crash
            failures.append(f"batch {seq}: {traceback.format_exc(limit=3)}")
            continue
        latencies.append((now() - t) * 1e3)
        if not last.applied or last.seq != seq or last.n_unmatched_deletes:
            failures.append(f"batch {seq}: {last}")
    wall = now() - t0
    rss = peak_rss_mb()
    probes.append(host_speed_probe())
    # verify() and close() below pass the seams too; freeze the tallies.
    spent, tally = defaultdict(float, clock.s), defaultdict(int, counts)
    tally["reruns"] = svc.report.stream_reruns - reruns_before

    verdict = svc.verify()
    if not verdict["ok"]:
        failures.append(f"verify failed: {verdict['checks']}")
    if svc.batch_seq != 1 + n_batches:
        failures.append(f"service at batch {svc.batch_seq}, expected {1 + n_batches}")
    if svc.store.n_edges != ev["expected_edges"] or not np.isclose(
        svc.store.total_weight(), ev["expected_weight"], rtol=0, atol=1e-6
    ):
        failures.append(
            f"store holds {svc.store.n_edges} edges of weight {svc.store.total_weight()}, "
            f"expected {ev['expected_edges']} of {ev['expected_weight']}"
        )
    labels, store = svc.labels, svc.store
    digest, q = "", float("nan")
    if labels is None or len(labels) != store.n_vertices:
        failures.append("labels do not cover the store")
    else:
        digest = hashlib.sha256(np.ascontiguousarray(labels).tobytes()).hexdigest()
        loops = store.lo == store.hi
        self_w = np.bincount(store.lo[loops], store.w[loops], store.n_vertices)
        q = modularity_of(labels, store.lo[~loops], store.hi[~loops], store.w[~loops], self_w)
        if last is None or not abs(q - last.modularity) <= EXACT_Q_TOLERANCE:
            failures.append(f"modularity {q!r} != service report {last and last.modularity!r}")
    svc.close()
    out = {
        "setup_s": setup_s,
        "probes_s": probes,
        "wall_s": wall,
        "latencies_ms": latencies,
        "events": int(ptr[-1]),
        "rss_mb": rss,
        "modularity": q,
        "labels_sha256": digest,
        "ops": n_batches + 1,
        "failures": failures,
    }
    if traced:
        out["layers"] = stream_layers(spent, tally, n_batches, wall, store.n_vertices)
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--manifest", required=True)
    p.add_argument("--traced", type=int, choices=(0, 1), default=0)
    p.add_argument("--launched", type=float, required=True)
    p.add_argument("--out-dir", required=True)
    args = p.parse_args()
    with open(args.manifest, encoding="utf-8") as fh:
        m = json.load(fh)
    sys.path.insert(0, m["src"])
    run = run_detect if m["kind"] == "detect" else run_stream
    try:
        out = run(m, bool(args.traced), args.launched, args.out_dir)
    except CheckError as exc:
        out = {"failures": [str(exc)]}
    out.setdefault("ops", 1)
    out.setdefault("failures", [])
    out["traced"] = bool(args.traced)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
