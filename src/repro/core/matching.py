"""Greedy heavy maximal matching (§III step 2, §IV-B).

Two implementations of the same locally-dominant matching:

* :func:`match_locally_dominant` — the paper's *improved* algorithm.  It
  maintains a worklist of currently unmatched vertices; each pass, every
  unmatched vertex proposes its highest-scored unmatched neighbor under a
  total order (score, then index), claims are checked from both sides, and
  winners leave the worklist.  Our vectorized re-expression processes the
  shrinking set of *live* edges (both endpoints unmatched) per pass — the
  same work profile as scanning each worklist vertex's bucket.

  A pass sweeps the live edges twice, for each vertex's best score and
  then for the least priority among the edges at that score, and settles
  the claims per vertex: a vertex's slot holds the priority of the one
  edge it claims, :func:`_edge_of` reads that edge back, and the claim
  wins when the edge's other endpoint holds the same priority.  Partners,
  matched edges and failed claims come from these claimer-length arrays;
  the live list shrinks by one index gather.

  On long dominance chains the passes stop paying: each visits most live
  edges again to match a few.  Before each pass the level decides, rent or
  buy, whether to hand its residual live edges to one sorted greedy scan
  instead (:func:`_scan_pays`): once the edge visits so far reach what the
  scan would cost now, ``_SCAN_COST × |live|``, and the last pass retired
  fewer than ``|live| / _SCAN_COST`` live edges, so the next pass would
  save the scan less work than it costs.  The scan sorts the residual once
  by (score desc, priority asc) and matches greedily in that order.  Under
  a total order the sequential greedy matching *is* the locally dominant
  one, so the result is unchanged; the scan also replays the worklist's
  accounting exactly (an edge matches in round ``1 + max(h[u], h[v])``,
  ``h[x]`` being the latest match round of a neighbour that rejected
  ``x``), so ``passes`` and ``failed_claims`` are the full loop's too.
  With a :class:`~repro.platform.kernels.TraceRecorder` attached the loop
  runs every pass, keeping the per-pass profile the simulator measures.

* :func:`match_full_sweep` — the paper's *legacy* algorithm from [4]: every
  pass sweeps across the entire edge array and contends on per-vertex
  best-match slots with full/empty bits.  It produces the identical
  matching here (both are fixed points of the same dominance relation and
  our tie-break is deterministic) but records the execution profile that
  made it a hot-spot disaster under OpenMP: every scanned edge issues
  atomic updates against its endpoints' slots, so a high-degree vertex
  absorbs its whole degree in atomics each sweep.

Both return a maximal matching over positive-scored edges whose total
score is within a factor of two of the maximum (Preis; Hoepman;
Manne–Bisseling) — property-tested in the suite.

Determinism note: the paper's threaded races make its matching
non-deterministic run to run; the (score, edge index) total order used here
fixes one of the valid outcomes, which is what makes exact regression
testing possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConvergenceError
from repro.graph.graph import CommunityGraph
from repro.obs.trace import NullTracer, Tracer, as_tracer
from repro.platform.kernels import KernelRecord, TraceRecorder
from repro.types import NO_VERTEX, VERTEX_DTYPE

__all__ = [
    "MatchingResult",
    "match_locally_dominant",
    "match_full_sweep",
    "is_maximal_matching",
    "matching_weight",
    "approximation_certificate",
]

_SENTINEL_EDGE = np.iinfo(np.int64).max
#: Price of the sorted greedy scan in worklist edge visits per residual
#: edge, the rent-or-buy constant of :func:`_scan_pays`.  Measured on the
#: 489k-edge planted level 0 of the benchmark (2-vCPU VM, NumPy 2.4), an
#: interpreted scan step, its two-argsort ranking included, costs 7–9
#: vectorized visits of a live edge in a pass.  Kept at 12 for margin: 8
#: and 10 switch the planted levels within three passes of 12 and still
#: scan no R-MAT level, while 6 already scans two to four R-MAT hub levels
#: per input, whose passes speed up once the hubs are matched, and made
#: R-MAT matching ~10% slower.
_SCAN_COST = 12
#: Residual edges the scan converts to Python ints at a time.
_SCAN_CHUNK = 1 << 14
_MIX_MULTIPLIER = np.int64(-7046029254386353131)  # 0x9E3779B97F4A7C15 as int64
#: The inverse of ``_MIX_MULTIPLIER`` mod 2**64.
_MIX_INVERSE = np.int64(-1018231460777725123)


def _edge_priority(edge_index: np.ndarray) -> np.ndarray:
    """Deterministic pseudorandom tie-break priority per edge.

    Score ties are broken by this splitmix-style bijective hash of the edge
    index rather than the raw index: with raw indices, a chain of
    equal-scored edges (common on unit-weight graphs where scores depend
    only on degrees) resolves one handshake per pass — an O(chain) pass
    count.  Random priorities cut dominance chains to expected O(log n)
    passes (the same argument as Luby's algorithm), while remaining a fixed
    total order, which is all the paper's correctness argument needs.
    The product of int64 arrays wraps mod 2**64 without a warning.
    """
    return edge_index * _MIX_MULTIPLIER


def _edge_of(priority: np.ndarray) -> np.ndarray:
    """The edge indices whose priorities are ``priority``.

    Inverts :func:`_edge_priority`: the multiplier is odd, so it has an
    inverse mod 2**64, and multiplying by it undoes the hash.
    """
    return priority * _MIX_INVERSE


@dataclass
class MatchingResult:
    """Outcome of a matching kernel.

    Attributes
    ----------
    partner:
        ``|V|``-long array; ``partner[v]`` is v's matched vertex or
        :data:`~repro.types.NO_VERTEX`.
    matched_edges:
        Indices (into the graph's edge arrays) of the matched edges.
    passes:
        Number of worklist passes until the worklist drained, counted
        exactly even when the scan finishes the level.
    failed_claims:
        Total one-sided claims that lost to a better neighbor — the
        paper's re-queued worklist entries.
    """

    partner: np.ndarray
    matched_edges: np.ndarray
    passes: int
    failed_claims: int

    @property
    def n_pairs(self) -> int:
        return len(self.matched_edges)


def _scan_pays(visits: int, n_live: int, retired: int) -> bool:
    """Whether one sorted scan should finish the level now.

    ``visits`` are the level's edge visits so far, ``n_live`` the live
    edges left and ``retired`` the live edges the last pass took out.
    The scan of the residual costs about ``_SCAN_COST × n_live`` visits;
    buy it once the passes have already paid that much and the last pass
    retired fewer than ``n_live / _SCAN_COST`` edges, so the next pass
    is predicted to save the scan less work than it costs.  Before the
    first pass ``visits`` is 0 and the test cannot hold.
    """
    return visits >= _SCAN_COST * n_live and retired * _SCAN_COST < n_live


def _rank_residual(live: np.ndarray, live_scores: np.ndarray) -> np.ndarray:
    """The edges ``live`` in (score desc, priority asc) order.

    ``live[np.lexsort((_edge_priority(live), -live_scores))]`` from two
    argsorts, a quarter to a third faster on residuals of 286k–457k
    edges: distinct edge indices have distinct priorities, so an order by
    priority, re-sorted stably by score, breaks every score tie the same
    way.
    """
    order = np.argsort(_edge_priority(live))
    order = order[np.argsort(-live_scores[order], kind="stable")]
    return live[order]


def _greedy_scan(
    graph: CommunityGraph, scores: np.ndarray, live: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """Match the live edges greedily in (score desc, priority asc) order.

    Returns ``(matched, rounds, failed_claims)``: the matched edge indices,
    and the passes and failed claims the worklist would have spent on
    these edges.  An edge matches in round ``1 + max(h[u], h[v])``, where
    ``h[x]`` is the latest match round of a neighbour reached through an
    edge rejected while ``x`` was free; a vertex matched in round ``r``
    lost ``r - 1`` claims, an unmatched one ``h``.
    """
    e = graph.edges
    ranked = _rank_residual(live, scores[live])
    n = graph.n_vertices
    rnd = [0] * n  # match round, 0 while free
    h = [0] * n
    won: list[int] = []
    rounds = 0
    # Endpoints become Python ints a chunk at a time, bounding the boxed
    # copies to a fixed size whatever the residual.
    for start in range(0, len(ranked), _SCAN_CHUNK):
        chunk = ranked[start : start + _SCAN_CHUNK]
        for k, a, b in zip(
            range(start, start + len(chunk)),
            e.ei[chunk].tolist(),
            e.ej[chunk].tolist(),
        ):
            ra = rnd[a]
            rb = rnd[b]
            # h of a matched vertex is never read again, so it may grow.
            if ra:
                if ra > h[b]:
                    h[b] = ra
            elif rb:
                if rb > h[a]:
                    h[a] = rb
            else:
                r = h[a]
                if h[b] > r:
                    r = h[b]
                r += 1
                rnd[a] = rnd[b] = r
                won.append(k)
                if r > rounds:
                    rounds = r
    matched_round = np.array(rnd)
    wait = np.where(matched_round > 0, matched_round - 1, np.array(h))
    return ranked[won], rounds, int(wait.sum())


def _run_passes(
    graph: CommunityGraph,
    scores: np.ndarray,
    recorder: TraceRecorder | None,
    *,
    legacy_sweep: bool,
    tracer: Tracer | NullTracer | None = None,
    max_passes: int | None = None,
) -> MatchingResult:
    tr = as_tracer(tracer)
    e = graph.edges
    n = graph.n_vertices
    if len(scores) != e.n_edges:
        raise ValueError("scores length must equal edge count")

    scores = np.asarray(scores, dtype=np.float64)
    partner = np.full(n, NO_VERTEX, dtype=VERTEX_DTYPE)
    candidates = (scores > 0.0).nonzero()[0]
    matched_edges: list[np.ndarray] = []
    unmatched = np.ones(n, dtype=bool)
    # Per-vertex claim slots, reset after each pass where it wrote them:
    # the best live score's bits (positive floats order as their int64
    # bit patterns do, above the 0 of an empty slot) and the priority of
    # the claimed edge.
    score_bits = scores.view(np.int64)
    best = np.zeros(n, dtype=np.int64)
    best_edge = np.full(n, _SENTINEL_EDGE, dtype=np.int64)
    total_failed = 0
    passes = 0
    if max_passes is None:
        max_passes = 2 * n + 4  # worst case one pair per pass
    elif max_passes < 0:
        raise ValueError("max_passes must be non-negative")

    # Once the passes stop paying, one sorted scan finishes the level.
    # Never with a recorder or on the legacy sweep: their per-pass
    # profile is what the simulated exhibits measure.
    may_scan = recorder is None and not legacy_sweep
    visits = retired = 0
    live = candidates
    while len(live):
        if may_scan and _scan_pays(visits, len(live), retired):
            with tr.span("match_scan", residual_edges=len(live)) as scan_span:
                won, rounds, failed = _greedy_scan(graph, scores, live)
                scan_span.set(
                    rounds=rounds, matched=len(won), failed_claims=failed
                )
            passes += rounds
            if passes > max_passes:
                raise ConvergenceError("matching exceeded its pass budget")
            total_failed += failed
            partner[e.ei[won]] = e.ej[won]
            partner[e.ej[won]] = e.ei[won]
            matched_edges.append(won)
            break
        passes += 1
        if passes > max_passes:
            raise ConvergenceError("matching exceeded its pass budget")

        with tr.span("match_pass", pass_index=passes) as pass_span:
            if legacy_sweep:
                # Legacy: rescan the whole edge array and re-derive liveness.
                scanned = candidates
                mask = unmatched[e.ei[scanned]] & unmatched[e.ej[scanned]]
                live = scanned[mask.nonzero()[0]]
                scan_items = len(scanned)
            else:
                scan_items = len(live)
            visits += scan_items
            pass_span.set(items=scan_items, live_edges=len(live))
            if len(live) == 0:
                break

            u = e.ei[live]
            v = e.ej[live]
            s = score_bits[live]
            prio = _edge_priority(live)

            # Per-vertex best score over live incident edges (atomic-max in C).
            np.maximum.at(best, u, s)
            np.maximum.at(best, v, s)

            # Tie-break on minimum hashed priority among score-maximal edges —
            # a fixed total order, as the paper requires (it uses score then
            # vertex indices; see _edge_priority for why we hash).
            at_u = (s == best[u]).nonzero()[0]
            at_v = (s == best[v]).nonzero()[0]
            np.minimum.at(best_edge, u[at_u], prio[at_u])
            np.minimum.at(best_edge, v[at_v], prio[at_v])

            # Every endpoint of a live edge claims exactly one edge, the one
            # whose priority it now holds; an edge wins when its other
            # endpoint claims it too (the two-sided claim).
            claimers = (best_edge != _SENTINEL_EDGE).nonzero()[0]
            claim = best_edge[claimers]
            edge = _edge_of(claim)
            # The claimed edge's endpoint that is not the claimer.
            target = e.ei[edge] + e.ej[edge] - claimers
            won = (best_edge[target] == claim).nonzero()[0]
            best[claimers] = 0
            best_edge[claimers] = _SENTINEL_EDGE
            n_new = len(won) // 2
            if n_new == 0:
                raise ConvergenceError(
                    "no locally dominant edge found among live edges; "
                    "scores may contain NaN"
                )

            failed = len(claimers) - len(won)
            total_failed += failed

            winners = claimers[won]
            partner[winners] = target[won]
            unmatched[winners] = False
            # Each won edge has two claimers; keep its lower end's claim.
            matched_edges.append(edge[won][winners < target[won]])
            pass_span.set(matched=n_new, failed_claims=failed)

            if recorder is not None:
                if legacy_sweep:
                    # Every scanned live edge pounds both endpoint slots with
                    # atomic-max updates: a high-degree vertex absorbs its whole
                    # degree in contended traffic each sweep (§IV-B hot spots).
                    # The distinct endpoints are the claimers.
                    atomics = 2 * len(live)
                    contention = 1.0 - len(claimers) / max(1, atomics)
                else:
                    # Worklist algorithm: each unmatched vertex issues exactly
                    # one two-sided claim for its chosen edge.  Collisions only
                    # occur when several proposers target the same partner slot.
                    n_prop = len(claimers)
                    atomics = 2 * n_prop
                    colliding = n_prop - len(np.unique(target))
                    contention = 0.5 * colliding / max(1, n_prop)
                if legacy_sweep:
                    # Full sweep: every candidate edge pays a cheap liveness
                    # test; only still-live edges do the scoring reads.
                    mem_words = 2 * scan_items + 5 * len(live) + 2 * n_new
                else:
                    mem_words = 5 * scan_items + 2 * n_new
                recorder.record(
                    KernelRecord(
                        name="match_pass",
                        items=max(scan_items, 1),
                        mem_words=mem_words,
                        atomics=atomics,
                        locks=2 * n_new,
                        contention=min(1.0, contention),
                    )
                )

            if not legacy_sweep:
                keep = unmatched[u] & unmatched[v]
                live = live[keep.nonzero()[0]]
                retired = len(keep) - len(live)

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


def match_locally_dominant(
    graph: CommunityGraph,
    scores: np.ndarray,
    recorder: TraceRecorder | None = None,
    *,
    tracer: Tracer | NullTracer | None = None,
    max_passes: int | None = None,
) -> MatchingResult:
    """The paper's improved worklist matching (see module docstring).

    ``max_passes`` overrides the default ``2|V| + 4`` pass budget
    (exceeding it raises :class:`~repro.errors.ConvergenceError`).
    """
    return _run_passes(
        graph,
        scores,
        recorder,
        legacy_sweep=False,
        tracer=tracer,
        max_passes=max_passes,
    )


def match_full_sweep(
    graph: CommunityGraph,
    scores: np.ndarray,
    recorder: TraceRecorder | None = None,
    *,
    tracer: Tracer | NullTracer | None = None,
    max_passes: int | None = None,
) -> MatchingResult:
    """The legacy whole-edge-array sweep matching from the 2011 paper [4].

    Identical output to :func:`match_locally_dominant`; records the
    hot-spot-heavy execution profile for the ablation benchmarks.
    ``max_passes`` overrides the default ``2|V| + 4`` pass budget.
    """
    return _run_passes(
        graph,
        scores,
        recorder,
        legacy_sweep=True,
        tracer=tracer,
        max_passes=max_passes,
    )


# ----------------------------------------------------------------- checking
def is_maximal_matching(
    graph: CommunityGraph, scores: np.ndarray, result: MatchingResult
) -> bool:
    """Verify matching validity and maximality over positive-scored edges.

    Valid: ``partner`` is a symmetric involution and matched edges connect
    exactly the paired vertices.  Maximal: no positive-scored edge has both
    endpoints unmatched.
    """
    partner = result.partner
    matched_mask = partner != NO_VERTEX
    verts = np.flatnonzero(matched_mask)
    if np.any(partner[partner[verts]] != verts):
        return False
    if np.any(partner[verts] == verts):
        return False
    e = graph.edges
    me = result.matched_edges
    if len(me) != np.count_nonzero(matched_mask) // 2:
        return False
    if len(me) and not np.all(partner[e.ei[me]] == e.ej[me]):
        return False
    positive = scores > 0
    both_free = ~matched_mask[e.ei] & ~matched_mask[e.ej]
    return not np.any(positive & both_free)


def matching_weight(scores: np.ndarray, result: MatchingResult) -> float:
    """Total score of the matched edges."""
    return float(scores[result.matched_edges].sum())


def approximation_certificate(
    graph: CommunityGraph, scores: np.ndarray, result: MatchingResult
) -> tuple[float, float]:
    """A cheap ``(achieved, upper_bound)`` certificate for the matching.

    Any matching's weight is at most
    ``min(Σ positive scores, ½ Σ_v max positive incident score)`` —
    each matched edge consumes both endpoints, and an endpoint can
    contribute at most its best incident score once.  Together with the
    greedy guarantee ``achieved ≥ optimum / 2`` this gives a per-run,
    verifiable quality interval: ``achieved / upper_bound`` lower-bounds
    the true approximation ratio of this particular matching.
    """
    e = graph.edges
    if len(scores) != e.n_edges:
        raise ValueError("scores length must equal edge count")
    achieved = matching_weight(scores, result)
    positive = scores > 0
    sum_positive = float(scores[positive].sum())
    best = np.zeros(graph.n_vertices)
    np.maximum.at(best, e.ei[positive], scores[positive])
    np.maximum.at(best, e.ej[positive], scores[positive])
    upper = min(sum_positive, 0.5 * float(best.sum()))
    return achieved, upper
