"""Graph contraction (§III step 3, §IV-C) — the dominant cost (40–80 %).

:func:`contract` is the paper's *new* bucket-sort method: relabel each
edge's endpoints through the match map, re-apply the parity hash, bucket by
the first stored endpoint (an atomic fetch-and-add per edge — no locks),
sort within buckets by the second endpoint, accumulate duplicates, and copy
back out.  Our vectorized expression fuses bucketing and in-bucket sorting
into one sort (:func:`~repro.util.arrays.sort_keys`) of the int64 key
``first * k + second``, computed as ``first * (k - 1) + lo + hi`` from the
pair's smaller and larger endpoint
(:func:`~repro.graph.edgelist.parity_key`), plus a segmented reduction.
Each key is packed with its row index, so NumPy's SIMD sort returns the
stable order.  Edges inside a merged pair get the key ``k * k``, which
sorts after every other key, and the sort cuts them off.  Only the
weights are permuted; the endpoints are split back out of the summed
keys.  When ``k * k`` overflows int64 the key is held as Python ints and
the pairs are ordered by ``np.lexsort``.

:func:`contract_hash_chains` is the *legacy* method due to John T. Feo:
edges go into linked lists selected by an endpoint hash; each insertion
walks its list looking for a duplicate under full/empty-bit protection.
Output is identical; what differs is the recorded execution profile — the
list walks are serially dependent memory operations (``chain_ops``) that
the Cray XMT hides with threads but that strangle a cache-based OpenMP
machine.  This is exactly the ablation in the paper's §IV-C.

Both return ``(new_graph, mapping)`` where ``mapping[old_vertex]`` is the
new community id; matched pairs collapse onto one id, everything else
carries over.  The total-weight invariant (cross + self = constant) holds
by construction and is checked property-style in the tests.
"""

from __future__ import annotations

import numpy as np

from repro.core.matching import MatchingResult
from repro.graph.edgelist import (
    EdgeList,
    lexsorted_parity_keys,
    parity_canonical,
    parity_key,
)
from repro.graph.graph import CommunityGraph
from repro.obs.metrics import Histogram
from repro.obs.trace import NullTracer, Tracer, as_tracer
from repro.platform.kernels import KernelRecord, TraceRecorder
from repro.types import NO_VERTEX, VERTEX_DTYPE
from repro.util.arrays import (
    INT64_MAX,
    renumber_dense,
    segment_starts,
    sort_keys,
)

__all__ = ["contract", "contract_hash_chains"]


def _mapping_from_matching(
    graph: CommunityGraph, matching: MatchingResult
) -> tuple[np.ndarray, int]:
    """Dense old→new vertex map: matched pairs share their min endpoint."""
    n = graph.n_vertices
    partner = matching.partner
    if len(partner) != n:
        raise ValueError("matching does not cover the graph")
    rep = np.arange(n, dtype=VERTEX_DTYPE)
    matched = partner != NO_VERTEX
    rep[matched] = np.minimum(rep[matched], partner[matched])
    return renumber_dense(rep)


def _build_contracted(
    graph: CommunityGraph,
    mapping: np.ndarray,
    k: int,
    tracer: Tracer | NullTracer | None = None,
) -> CommunityGraph:
    """Shared relabel + accumulate path (both methods produce this).

    When a tracer is attached, each stage of the bucket-sort pipeline
    gets its own span (§IV-C's relabel → bucket/sort → accumulate), and
    the bucket-sort span carries the histogram of bucket sizes (edges per
    first endpoint) as ``occupancy``, which the run's
    ``contract.bucket_occupancy`` metric adds up.
    """
    tr = as_tracer(tracer)
    e = graph.edges
    fits = k * k <= INT64_MAX

    with tr.span("contract_relabel") as sp:
        ni = mapping[e.ei]
        nj = mapping[e.ej]

        # Edges inside a merged pair become self weight.
        at = (ni == nj).nonzero()[0]
        new_self = np.bincount(
            mapping, weights=graph.self_weights, minlength=k
        )
        if len(at):
            new_self += np.bincount(ni[at], weights=e.w[at], minlength=k)

        lo = np.minimum(ni, nj)
        hi = np.maximum(ni, nj)
        # Each array dropped here or below before the sort lowers the
        # contraction's peak memory.
        del ni, nj
        if fits:
            key = parity_key(lo, hi, k)
            del lo, hi
            # A loop's key sorts after every pair's, and the sort cuts
            # the loops off.
            key[at] = k * k
        sp.set(items=e.n_edges, n_loops=len(at))

    with tr.span("contract_bucket_sort") as sp:
        if fits:
            key, order = sort_keys(key, k * k + 1)
            cut = len(key) - len(at)
            key = key[:cut]
            w = e.w[order[:cut]]
            del order
        else:
            keep = lo != hi
            key, order = lexsorted_parity_keys(lo[keep], hi[keep], k)
            w = e.w[keep][order]
        if tr.enabled and len(key):
            occupancy = np.bincount(
                (key // k).astype(VERTEX_DTYPE, copy=False), minlength=k
            )
            h = Histogram("contract.bucket_occupancy")
            h.observe_many(occupancy[occupancy > 0])
            sp.set(
                occupancy={"counts": h.counts, "total": h.total, "sum": h.sum}
            )
        sp.set(items=len(key))

    with tr.span("contract_accumulate") as sp:
        if len(key):
            starts = segment_starts(key)
            w = np.add.reduceat(w, starts)
            key = key[starts]
        first = key // k
        key %= k  # now the second endpoints
        edges = EdgeList._from_grouped(
            first.astype(VERTEX_DTYPE, copy=False), key, w, k
        )
        sp.set(items=len(w))
    return CommunityGraph(edges, new_self.astype(np.float64, copy=False))


def contract(
    graph: CommunityGraph,
    matching: MatchingResult,
    recorder: TraceRecorder | None = None,
    *,
    tracer: Tracer | NullTracer | None = None,
) -> tuple[CommunityGraph, np.ndarray]:
    """Bucket-sort contraction (the paper's new method).

    Requires ``|V| + 1 + 2|E|`` words of scratch beyond the input — more
    than the legacy method's ``|E| + |V|`` but with only a fetch-and-add
    of synchronization.
    """
    tr = as_tracer(tracer)
    with tr.span("contract_map") as sp:
        mapping, k = _mapping_from_matching(graph, matching)
        sp.set(items=graph.n_vertices, n_communities=k)
    new_graph = _build_contracted(graph, mapping, k, tracer=tr)

    if recorder is not None:
        m = graph.n_edges
        n = graph.n_vertices
        # Relabel + rehash: flat loop over edges.
        recorder.record(
            KernelRecord(name="contract_relabel", items=m, mem_words=6 * m)
        )
        # Bucket placement: scatter each (j; w) pair through a
        # fetch-and-add bucket cursor.
        recorder.record(
            KernelRecord(
                name="contract_bucket",
                items=m,
                mem_words=5 * m + n,
                atomics=m,
                contention=0.0,
            )
        )
        # In-bucket sort by second endpoint + duplicate accumulation:
        # each element is read and written about twice more during the
        # sort, plus the accumulate pass.
        recorder.record(
            KernelRecord(name="contract_sort", items=m, mem_words=10 * m)
        )
        # Copy the shortened buckets back into the graph's storage,
        # filling in the implicit first endpoints.
        recorder.record(
            KernelRecord(
                name="contract_copy",
                items=new_graph.n_edges,
                mem_words=4 * new_graph.n_edges,
            )
        )
    return new_graph, mapping


def _chain_walk_lengths(keys: np.ndarray, table_size: int) -> int:
    """Total list-node inspections for hash-chain insertion of ``keys``.

    Edges are inserted in arrival order into chains selected by
    ``key % table_size``; inserting an edge walks its chain over the
    *distinct* keys already present (duplicates accumulate in place when
    found).  Returns the summed walk length — the legacy method's serially
    dependent memory traffic.
    """
    if len(keys) == 0:
        return 0
    h = keys % table_size
    # Arrival order within each chain: stable sort by chain id.
    order = np.argsort(h, kind="stable")
    h_sorted = h[order]
    k_sorted = keys[order]
    starts = segment_starts(h_sorted)

    # For each insertion, the walk visits every distinct key inserted
    # earlier in its chain (then stops: either a duplicate is found or the
    # edge is appended).  Count "first occurrence of key within chain" via
    # a (chain, key) sort, then accumulate per arrival.
    order2 = np.lexsort((k_sorted, h_sorted))
    h2 = h_sorted[order2]
    k2 = k_sorted[order2]
    is_first = np.ones(len(k2), dtype=bool)
    same_chain = h2[1:] == h2[:-1]
    same_key = k2[1:] == k2[:-1]
    is_first[1:] = ~(same_chain & same_key)
    first_in_arrival = np.empty(len(k2), dtype=bool)
    first_in_arrival[order2] = is_first

    # distinct-before-me within chain, in arrival order.
    cum = np.cumsum(first_in_arrival)
    chain_base = np.repeat(
        cum[starts] - first_in_arrival[starts],
        np.diff(np.append(starts, len(k2))),
    )
    distinct_before = cum - first_in_arrival - chain_base
    # A new key inspects every distinct predecessor then appends (one more
    # write); a duplicate stops at its match among the predecessors.
    return int(distinct_before.sum() + first_in_arrival.sum())


def contract_hash_chains(
    graph: CommunityGraph,
    matching: MatchingResult,
    recorder: TraceRecorder | None = None,
    *,
    tracer: Tracer | NullTracer | None = None,
) -> tuple[CommunityGraph, np.ndarray]:
    """Legacy hash-of-linked-lists contraction (Feo's technique, [4]).

    Produces the identical contracted graph; records the chain-walk
    profile (``chain_ops``) that made this approach infeasible under
    OpenMP while costing only ``|E| + |V|`` scratch words.
    """
    tr = as_tracer(tracer)
    with tr.span("contract_map") as sp:
        mapping, k = _mapping_from_matching(graph, matching)
        sp.set(items=graph.n_vertices, n_communities=k)
    new_graph = _build_contracted(graph, mapping, k, tracer=tr)

    if recorder is not None:
        e = graph.edges
        m = graph.n_edges
        ni = mapping[e.ei]
        nj = mapping[e.ej]
        keep = ni != nj
        first, second = parity_canonical(ni[keep], nj[keep])
        keys = first * np.int64(k) + second
        table_size = max(1, m + graph.n_vertices)
        chain_ops = _chain_walk_lengths(keys, table_size)
        recorder.record(
            KernelRecord(name="contract_relabel", items=m, mem_words=6 * m)
        )
        recorder.record(
            KernelRecord(
                name="contract_chase",
                items=m,
                mem_words=2 * m,
                # Full/empty acquisition guards every chain head + append.
                locks=2 * m,
                contention=min(
                    1.0, 1.0 - len(np.unique(keys % table_size)) / max(1, m)
                ),
                chain_ops=chain_ops,
            )
        )
    return new_graph, mapping
