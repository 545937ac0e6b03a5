"""Graph contraction (§III step 3, §IV-C) — the dominant cost (40–80 %).

:func:`contract` is the paper's *new* bucket-sort method: relabel each
edge's endpoints through the match map, re-apply the parity hash, bucket by
the first stored endpoint (an atomic fetch-and-add per edge — no locks),
sort within buckets by the second endpoint, accumulate duplicates, and copy
back out.  Our vectorized expression fuses bucketing and in-bucket sorting
into one stable LSD radix sort (:func:`~repro.util.arrays.radix_order`,
each 16-bit digit a counting sort) of the int64 key ``first * k + second``,
computed as ``first * (k - 1) + lo + hi`` from the pair's smaller and
larger endpoint, plus a segmented reduction, touching each edge O(1) times
per digit like the paper's linear-time bucket sort.  Only the key and the
weights are permuted; the endpoints are split back out of the summed keys.
When ``k * k`` overflows int64 the key is held as Python ints and the
pairs are ordered by ``np.lexsort``.

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
    parity_canonical,
    parity_min_first,
)
from repro.graph.graph import CommunityGraph
from repro.obs.metrics import Histogram
from repro.obs.trace import NullTracer, Tracer, as_tracer
from repro.platform.kernels import KernelRecord, TraceRecorder
from repro.types import NO_VERTEX, VERTEX_DTYPE
from repro.util.arrays import (
    INT64_MAX,
    radix_digits,
    radix_order,
    renumber_dense,
    segment_starts,
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

    with tr.span("contract_relabel") as sp:
        ni = mapping[e.ei]
        nj = mapping[e.ej]

        # Edges inside a merged pair become self weight.
        loops = ni == nj
        new_self = np.bincount(
            mapping, weights=graph.self_weights, minlength=k
        )
        at = loops.nonzero()[0]
        if len(at):
            new_self += np.bincount(ni[at], weights=e.w[at], minlength=k)

        # All but a few percent of the edges survive, and a boolean mask
        # that keeps nearly every element compacts as fast as an index
        # gather (see the module docstring of repro.util.arrays).
        keep = ~loops
        w = e.w[keep]
        ni = ni[keep]
        nj = nj[keep]
        lo = np.minimum(ni, nj)
        hi = np.maximum(ni, nj)
        # Each array dropped here or below before the sort lowers the
        # contraction's peak memory.
        del loops, keep, ni, nj
        first = np.where(parity_min_first(lo, hi), lo, hi)
        sp.set(items=e.n_edges, n_loops=len(at))

    with tr.span("contract_bucket_sort") as sp:
        if tr.enabled and len(first):
            occupancy = np.bincount(first, minlength=k)
            h = Histogram("contract.bucket_occupancy")
            h.observe_many(occupancy[occupancy > 0])
            sp.set(
                occupancy={"counts": h.counts, "total": h.total, "sum": h.sum}
            )
        if k * k <= INT64_MAX:
            # first * k + second, as first + second = lo + hi
            key = first * (k - 1)
            key += lo
            key += hi
            del first, lo, hi
            order = radix_order(radix_digits(key, k))
        else:
            # The key overflows int64: hold it as Python ints and sort
            # the pairs themselves.
            second = lo + hi - first
            key = first.astype(object) * k + second
            order = np.lexsort((second, first))
        key = key[order]
        w = w[order]
        sp.set(items=len(key))

    with tr.span("contract_accumulate") as sp:
        if len(key):
            starts = segment_starts(key)
            w = np.add.reduceat(w, starts)
            key = key[starts]
        first = key // k
        edges = EdgeList._from_grouped(
            first.astype(VERTEX_DTYPE, copy=False), key - first * k, w, k
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
