"""Out-of-core phase kernels: score → match → contract, shard at a time.

These are the cap-respecting counterparts of the in-memory kernels,
designed for graphs spilled to a :class:`~repro.graph.csr.ShardedCSRStore`.
Each kernel streams the edge arrays one contiguous shard window at a
time, so its *anonymous* working set is ``O(V + shard)`` — the
file-backed pages behind the memmaps stay evictable under memory
pressure.  The design follows the strongly-sublinear-memory MPC
matching of Ghaffari & Uitto (the ``GMM_SublinearMPC`` notes in
SNIPPETS.md): a machine/shard may hold only a small window of the edge
set, and per-vertex aggregates are the only global state.

**Bit-identity contract.**  Every kernel here produces results
bit-identical to its in-memory counterpart (property-tested in
``tests/test_engine_parity.py``), which is what lets the guardian's
spill rung migrate a live run mid-level without perturbing the
dendrogram:

* :func:`score_sharded` evaluates the scorer's elementwise formula over
  disjoint shard slices — elementwise ops commute with slicing.
* :func:`match_gmm_capped` replays the worklist matching pass by pass;
  per-vertex ``max``/``min`` reductions are exact (no rounding), so
  accumulating them shard-at-a-time yields the same fixed point, and
  tie-break priorities hash *global* edge indices.
* :func:`contract_sharded` streams the relabel into scratch buffers but
  runs the *same* global pair order + left-to-right segmented reduction,
  preserving float accumulation order exactly (per-shard pre-reduction
  would not — duplicate groups spanning a shard boundary would sum in a
  different order).

The residual anonymous cost is the contraction's sort permutation
(``O(E')`` indices from ``pair_order``); everything else of edge order
lives in spill-backed scratch.  See ``docs/OUT_OF_CORE.md``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.contraction import _mapping_from_matching
from repro.core.matching import (
    MatchingResult,
    _edge_priority,
    _SENTINEL_EDGE,
)
from repro.core.scoring import _record_scoring, validate_scores
from repro.errors import ConvergenceError
from repro.graph.csr import ShardedCSRStore, _shard_ranges
from repro.graph.edgelist import EdgeList, parity_canonical
from repro.graph.graph import CommunityGraph
from repro.obs.trace import NullTracer, Tracer, as_tracer
from repro.platform.kernels import KernelRecord, TraceRecorder
from repro.spmatrix.spill import scratch_memmap
from repro.types import NO_VERTEX, SCORE_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE
from repro.util.arrays import pair_order, segment_starts

__all__ = ["score_sharded", "match_gmm_capped", "contract_sharded"]


def _store_of(graph: CommunityGraph) -> ShardedCSRStore | None:
    return getattr(graph, "spill_store", None)


def _ranges_of(graph: CommunityGraph, shard_edges: int | None) -> list[tuple[int, int]]:
    """The shard table to stream by: explicit cap, spill store, or default."""
    if shard_edges is not None:
        return _shard_ranges(graph.n_edges, shard_edges=shard_edges)
    store = _store_of(graph)
    if store is not None:
        return store.shard_ranges
    return _shard_ranges(graph.n_edges)


class _Scratch:
    """Edge-order scratch arrays: spill-backed beside the store, else RAM.

    Kernels ask for working buffers of edge length through this so that
    a spilled graph's temporaries are file-backed (evictable) while the
    same kernel stays usable — just not out-of-core — on a plain
    in-memory graph.
    """

    def __init__(self, graph: CommunityGraph, tag: str) -> None:
        store = _store_of(graph)
        self.directory: Path | None = (
            store.directory / f"scratch-{tag}" if store is not None else None
        )
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._paths: list[Path] = []

    def array(self, name: str, dtype, shape: tuple[int, ...]) -> np.ndarray:
        if self.directory is None:
            return np.empty(shape, dtype=dtype)
        path = self.directory / f"{name}.npy"
        self._paths.append(path)
        return scratch_memmap(path, dtype=dtype, shape=shape)

    def cleanup(self) -> None:
        for path in self._paths:
            path.unlink(missing_ok=True)
        if self.directory is not None:
            try:
                self.directory.rmdir()
            except OSError:  # pragma: no cover - leftover foreign files
                pass


# ------------------------------------------------------------------ scoring
def score_sharded(
    scorer,
    graph: CommunityGraph,
    recorder: TraceRecorder | None = None,
    *,
    tracer: Tracer | NullTracer | None = None,
) -> np.ndarray:
    """Score all edges shard-at-a-time into a spill-backed buffer.

    Uses the scorer's ``score_range(graph, lo, hi, vol=..., w_total=...)``
    method when it has one (all built-ins do); scorers without it fall
    back to a whole-graph :meth:`score` call — correct, just not
    cap-respecting.  Output is bit-identical to the in-memory path: the
    per-edge formulas are elementwise in the edge arrays, so evaluating
    them over disjoint slices changes nothing.
    """
    tr = as_tracer(tracer)
    store = _store_of(graph)
    if store is None or not hasattr(scorer, "score_range"):
        return scorer.score(graph, recorder)
    e = graph.edges
    scores = scratch_memmap(
        store.directory / "scores.npy", dtype=SCORE_DTYPE, shape=(e.n_edges,)
    )
    w_total = graph.total_weight()
    with tr.span("score_shards", n_shards=store.n_shards) as sp:
        if w_total == 0:
            scores[:] = 0.0
        else:
            vol = graph.strengths()
            for lo, hi in store.shard_ranges:
                chunk = scorer.score_range(
                    graph, lo, hi, vol=vol, w_total=w_total
                )
                scores[lo:hi] = validate_scores(chunk, scorer=scorer.name)
        sp.set(items=e.n_edges)
    _record_scoring(recorder, graph, scorer.name)
    return scores


# ----------------------------------------------------------------- matching
def match_gmm_capped(
    graph: CommunityGraph,
    scores: np.ndarray,
    recorder: TraceRecorder | None = None,
    *,
    tracer: Tracer | NullTracer | None = None,
    max_passes: int | None = None,
    shard_edges: int | None = None,
) -> MatchingResult:
    """Cap-respecting locally-dominant matching (GMM-style streaming).

    Replays :func:`~repro.core.matching.match_locally_dominant` pass by
    pass while never materialising an edge-length anonymous array: the
    live-edge worklist lives in a spill-backed byte mask and each pass
    streams the shard windows four times —

    1. per-vertex best score (``np.maximum.at``: exact, order-free);
    2. per-vertex best-edge tie-break (``np.minimum.at`` over hashed
       *global* edge priorities: exact, order-free);
    3. two-sided claim resolution + partner updates;
    4. worklist filtering against the updated matched set.

    Because the per-vertex reductions are exact and the tie-break
    priorities depend only on global edge indices, every pass computes
    the same claims as the in-memory worklist — the matching, pass
    count, and failed-claim tally are bit-identical, so a spilled run's
    ``matching_passes`` stats match the unconstrained run exactly.
    """
    tr = as_tracer(tracer)
    worklist_gauge = tr.gauge("match.worklist_edges")
    e = graph.edges
    n = graph.n_vertices
    m = e.n_edges
    if len(scores) != m:
        raise ValueError("scores length must equal edge count")
    ranges = _ranges_of(graph, shard_edges)
    scratch = _Scratch(graph, "match")

    partner = np.full(n, NO_VERTEX, dtype=VERTEX_DTYPE)
    unmatched = np.ones(n, dtype=bool)
    live_mask = scratch.array("live_mask", np.bool_, (m,))
    n_live = 0
    for lo, hi in ranges:
        chunk = scores[lo:hi] > 0.0
        live_mask[lo:hi] = chunk
        n_live += int(np.count_nonzero(chunk))

    matched_edges: list[np.ndarray] = []
    total_failed = 0
    passes = 0
    if max_passes is None:
        max_passes = 2 * n + 4  # worst case one pair per pass
    elif max_passes < 0:
        raise ValueError("max_passes must be non-negative")

    best = np.empty(n)
    best_edge = np.empty(n, dtype=np.int64)
    prop_counts = np.zeros(n, dtype=np.int64)
    try:
        while n_live:
            passes += 1
            if passes > max_passes:
                raise ConvergenceError("matching exceeded its pass budget")

            with tr.span("match_pass", pass_index=passes) as pass_span:
                scan_items = n_live
                worklist_gauge.set(n_live)
                pass_span.set(items=scan_items, live_edges=n_live)

                # Pass 1: per-vertex best live score (exact max — shard
                # order cannot change the fixed point).
                best.fill(-np.inf)
                for lo, hi in ranges:
                    idx = lo + np.flatnonzero(live_mask[lo:hi])
                    if not len(idx):
                        continue
                    s = scores[idx]
                    np.maximum.at(best, e.ei[idx], s)
                    np.maximum.at(best, e.ej[idx], s)

                # Pass 2: min hashed priority among score-maximal edges.
                best_edge.fill(_SENTINEL_EDGE)
                for lo, hi in ranges:
                    idx = lo + np.flatnonzero(live_mask[lo:hi])
                    if not len(idx):
                        continue
                    u = e.ei[idx]
                    v = e.ej[idx]
                    s = scores[idx]
                    prio = _edge_priority(idx)
                    at_u = s == best[u]
                    at_v = s == best[v]
                    np.minimum.at(best_edge, u[at_u], prio[at_u])
                    np.minimum.at(best_edge, v[at_v], prio[at_v])

                # Pass 3: two-sided claims.  Claim outcomes depend only
                # on the pre-pass best/best_edge state, so applying
                # partner updates shard by shard is safe.
                n_new = 0
                failed = 0
                n_proposals = 0
                if recorder is not None:
                    prop_counts.fill(0)
                for lo, hi in ranges:
                    idx = lo + np.flatnonzero(live_mask[lo:hi])
                    if not len(idx):
                        continue
                    u = e.ei[idx]
                    v = e.ej[idx]
                    prio = _edge_priority(idx)
                    chosen_u = best_edge[u] == prio
                    chosen_v = best_edge[v] == prio
                    mutual = chosen_u & chosen_v
                    n_new += int(np.count_nonzero(mutual))
                    failed += int(
                        np.count_nonzero((chosen_u | chosen_v) & ~mutual)
                    )
                    mu = u[mutual]
                    mv = v[mutual]
                    partner[mu] = mv
                    partner[mv] = mu
                    unmatched[mu] = False
                    unmatched[mv] = False
                    matched_edges.append(idx[mutual])
                    if recorder is not None:
                        np.add.at(prop_counts, v[chosen_u], 1)
                        np.add.at(prop_counts, u[chosen_v], 1)
                        n_proposals += int(np.count_nonzero(chosen_u)) + int(
                            np.count_nonzero(chosen_v)
                        )
                if n_new == 0:
                    raise ConvergenceError(
                        "no locally dominant edge found among live edges; "
                        "scores may contain NaN"
                    )
                total_failed += failed
                pass_span.set(matched=n_new, failed_claims=failed)

                if recorder is not None:
                    # Mirrors the worklist profile: one two-sided claim
                    # per proposer; collisions are proposers sharing a
                    # partner slot (distinct count via an O(V) tally).
                    distinct = int(np.count_nonzero(prop_counts))
                    colliding = n_proposals - distinct
                    recorder.record(
                        KernelRecord(
                            name="match_pass",
                            items=max(scan_items, 1),
                            mem_words=5 * scan_items + 2 * n_new,
                            atomics=2 * n_proposals,
                            locks=2 * n_new,
                            contention=min(
                                1.0, 0.5 * colliding / max(1, n_proposals)
                            ),
                        )
                    )

                # Pass 4: drop edges that lost an endpoint this pass
                # (after *all* of the pass's matches, like the in-memory
                # worklist filter).
                n_live = 0
                for lo, hi in ranges:
                    idx = lo + np.flatnonzero(live_mask[lo:hi])
                    if not len(idx):
                        continue
                    keep = unmatched[e.ei[idx]] & unmatched[e.ej[idx]]
                    live_mask[idx[~keep]] = False
                    n_live += int(np.count_nonzero(keep))
    finally:
        del live_mask
        scratch.cleanup()

    matched = (
        np.concatenate(matched_edges)
        if matched_edges
        else np.empty(0, dtype=np.int64)
    )
    matched.sort()
    return MatchingResult(
        partner=partner,
        matched_edges=matched,
        passes=passes,
        failed_claims=total_failed,
    )


# -------------------------------------------------------------- contraction
def contract_sharded(
    graph: CommunityGraph,
    matching: MatchingResult,
    recorder: TraceRecorder | None = None,
    *,
    tracer: Tracer | NullTracer | None = None,
) -> tuple[CommunityGraph, np.ndarray]:
    """Bucket-sort contraction with a spill-backed relabel stage.

    The relabel/rehash (the ``O(E)`` gathers) streams shard windows into
    scratch buffers beside the spill store; self-loop weight accumulates
    through sequential ``np.add.at`` over the same element order as the
    in-memory ``np.bincount``, so float sums agree bit for bit.  The
    final assembly — one global pair order, segmented left-to-right
    reduction, bucket build — is byte-for-byte the in-memory pipeline on
    the scratch arrays, keeping duplicate-group accumulation order (and
    therefore every contracted weight) identical.  The sort permutation
    is the one remaining ``O(E')`` anonymous allocation.
    """
    tr = as_tracer(tracer)
    with tr.span("contract_map") as sp:
        mapping, k = _mapping_from_matching(graph, matching)
        sp.set(items=graph.n_vertices, n_communities=k)

    e = graph.edges
    m = e.n_edges
    ranges = _ranges_of(graph, None)
    scratch = _Scratch(graph, "contract")
    try:
        kept_first = scratch.array("kept_first", VERTEX_DTYPE, (m,))
        kept_second = scratch.array("kept_second", VERTEX_DTYPE, (m,))
        kept_w = scratch.array("kept_w", WEIGHT_DTYPE, (m,))

        with tr.span("contract_relabel") as sp:
            new_self = np.bincount(
                mapping, weights=graph.self_weights, minlength=k
            )
            loop_self = np.zeros(k)
            n_loops = 0
            n_keep = 0
            for lo, hi in ranges:
                ni = mapping[e.ei[lo:hi]]
                nj = mapping[e.ej[lo:hi]]
                w_chunk = e.w[lo:hi]
                loops = ni == nj
                c_loops = int(np.count_nonzero(loops))
                if c_loops:
                    # Sequential unbuffered adds in element order — the
                    # same accumulation order as one bincount over the
                    # full loop stream, so the float sums are identical.
                    np.add.at(loop_self, ni[loops], w_chunk[loops])
                    n_loops += c_loops
                keep = ~loops
                first, second = parity_canonical(ni[keep], nj[keep])
                c_keep = len(first)
                kept_first[n_keep : n_keep + c_keep] = first
                kept_second[n_keep : n_keep + c_keep] = second
                kept_w[n_keep : n_keep + c_keep] = w_chunk[keep]
                n_keep += c_keep
            if n_loops:
                new_self += loop_self
            sp.set(items=m, n_loops=n_loops)

        first = kept_first[:n_keep]
        second = kept_second[:n_keep]
        w = kept_w[:n_keep]

        with tr.span("contract_bucket_sort") as sp:
            if tr.enabled and n_keep:
                occupancy = np.bincount(first, minlength=k)
                tr.histogram("contract.bucket_occupancy").observe_many(
                    occupancy[occupancy > 0]
                )
            order = pair_order(first, second, k)
            sorted_first = scratch.array("sorted_first", VERTEX_DTYPE, (n_keep,))
            sorted_second = scratch.array(
                "sorted_second", VERTEX_DTYPE, (n_keep,)
            )
            sorted_w = scratch.array("sorted_w", WEIGHT_DTYPE, (n_keep,))
            np.take(first, order, out=sorted_first)
            np.take(second, order, out=sorted_second)
            np.take(w, order, out=sorted_w)
            first, second, w = sorted_first, sorted_second, sorted_w
            del order
            sp.set(items=n_keep)

        with tr.span("contract_accumulate") as sp:
            if n_keep:
                starts = segment_starts(first * np.int64(k) + second)
                w = np.add.reduceat(w, starts)
                first = np.asarray(first[starts])
                second = np.asarray(second[starts])
            else:
                first = np.empty(0, dtype=VERTEX_DTYPE)
                second = np.empty(0, dtype=VERTEX_DTYPE)
                w = np.empty(0, dtype=WEIGHT_DTYPE)
            edges = EdgeList._from_grouped(first, second, w, k)
            sp.set(items=len(first))
        new_graph = CommunityGraph(edges, new_self.astype(np.float64, copy=False))
    finally:
        scratch.cleanup()

    if recorder is not None:
        n = graph.n_vertices
        recorder.record(
            KernelRecord(name="contract_relabel", items=m, mem_words=6 * m)
        )
        recorder.record(
            KernelRecord(
                name="contract_bucket",
                items=m,
                mem_words=5 * m + n,
                atomics=m,
                contention=0.0,
            )
        )
        recorder.record(
            KernelRecord(name="contract_sort", items=m, mem_words=10 * m)
        )
        recorder.record(
            KernelRecord(
                name="contract_copy",
                items=new_graph.n_edges,
                mem_words=4 * new_graph.n_edges,
            )
        )
    return new_graph, mapping
