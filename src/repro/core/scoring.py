"""Edge scoring (§III step 1, §IV-B).

Each community-graph edge gets an independent score: the change in the
optimization metric if its two endpoint communities merged.  Per the paper,
a score needs only the edge's weight, the two endpoints' community volumes
(strengths) and the graph total weight — one O(|V|) strength pass plus one
flat O(|E|) loop, both vectorized here.

Scorers implement the :class:`EdgeScorer` protocol, making the algorithm
"agnostic towards edge scoring methods" exactly as the paper claims; a
problem-specific scorer drops in without touching matching or contraction.

Exactness invariants (exploited by the tests):

* ``ModularityScorer``: contracting a matching increases graph modularity
  by exactly the sum of the matched edges' scores.
* ``ConductanceScorer``: contracting a matching decreases the sum of
  community conductances by exactly the matched score sum (scores are the
  *negated* conductance change, so maximizing still applies).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import ScoreValidationError
from repro.graph.graph import CommunityGraph
from repro.platform.kernels import KernelRecord, TraceRecorder
from repro.types import SCORE_DTYPE

__all__ = [
    "EdgeScorer",
    "ModularityScorer",
    "ConductanceScorer",
    "WeightScorer",
    "validate_scores",
]


def validate_scores(
    scores: np.ndarray, *, scorer: str = "scorer"
) -> np.ndarray:
    """Reject NaN/inf scorer output; returns ``scores`` unchanged when clean.

    A NaN score breaks the matching's total order silently (every
    comparison is false, so NaN edges vanish from candidate sets and can
    starve the worklist), so non-finite output is a hard
    :class:`~repro.errors.ScoreValidationError` at the source.  The
    ``-inf`` veto the driver applies *after* scoring is exempt by
    construction — it never passes through this check.
    """
    finite = np.isfinite(scores)
    if not finite.all():
        bad = int(len(scores) - np.count_nonzero(finite))
        first = int(np.argmin(finite))
        raise ScoreValidationError(
            f"{scorer}: {bad} non-finite score(s) out of {len(scores)} "
            f"(first at edge {first}: {scores[first]!r})"
        )
    return scores


@runtime_checkable
class EdgeScorer(Protocol):
    """Protocol for merge-gain edge scorers.

    Implementations that validate their own output (all built-ins call
    :func:`validate_scores` before returning) advertise it with a
    ``validates_output = True`` class attribute so the engine skips its
    driver-side re-validation; external implementations without the
    attribute are validated once by the engine's score phase.
    """

    name: str

    def score(
        self, graph: CommunityGraph, recorder: TraceRecorder | None = None
    ) -> np.ndarray:
        """Score every edge of ``graph``; positive means the merge improves
        the metric."""
        ...  # pragma: no cover - protocol stub


def _record_scoring(
    recorder: TraceRecorder | None, graph: CommunityGraph, name: str
) -> None:
    if recorder is None:
        return
    n, m = graph.n_vertices, graph.n_edges
    # One strength reduction over the edges (2|E| reads, |V| atomic adds)
    # plus the flat per-edge score loop (4 words in, 1 out per edge).
    recorder.record(
        KernelRecord(
            name="score",
            items=m,
            mem_words=2 * m + n + 5 * m,
            atomics=2 * m,
            contention=0.0,
        )
    )


class ModularityScorer:
    """ΔQ of merging an edge's endpoints: ``w/W - vol_i * vol_j / (2 W²)``."""

    name = "modularity"
    validates_output = True

    def score(
        self, graph: CommunityGraph, recorder: TraceRecorder | None = None
    ) -> np.ndarray:
        w_total = graph.total_weight()
        e = graph.edges
        if w_total == 0:
            return np.zeros(e.n_edges, dtype=SCORE_DTYPE)
        vol = graph.strengths()
        scores = e.w / w_total - vol[e.ei] * vol[e.ej] / (2.0 * w_total**2)
        _record_scoring(recorder, graph, self.name)
        return validate_scores(
            scores.astype(SCORE_DTYPE, copy=False), scorer=self.name
        )


class ConductanceScorer:
    """Negated change in summed conductance when merging an edge's endpoints.

    For communities ``i, j`` with volumes ``vol`` and cuts
    ``cut = vol - 2 * self_weight``:

    ``score = φ(i) + φ(j) - φ(i ∪ j)`` with
    ``φ(c) = cut_c / min(vol_c, 2W - vol_c)`` and
    ``cut_{i∪j} = cut_i + cut_j - 2 w_ij``.

    Minimizing conductance becomes maximizing this score, as §III notes.
    """

    name = "conductance"
    validates_output = True

    def score(
        self, graph: CommunityGraph, recorder: TraceRecorder | None = None
    ) -> np.ndarray:
        w_total = graph.total_weight()
        e = graph.edges
        if w_total == 0:
            return np.zeros(e.n_edges, dtype=SCORE_DTYPE)
        two_w = 2.0 * w_total
        vol = graph.strengths()
        cut = vol - 2.0 * graph.self_weights

        def phi(cut_c: np.ndarray, vol_c: np.ndarray) -> np.ndarray:
            denom = np.minimum(vol_c, two_w - vol_c)
            out = np.zeros_like(cut_c, dtype=SCORE_DTYPE)
            np.divide(cut_c, denom, out=out, where=denom > 0)
            return out

        phi_i = phi(cut[e.ei], vol[e.ei])
        phi_j = phi(cut[e.ej], vol[e.ej])
        cut_merged = cut[e.ei] + cut[e.ej] - 2.0 * e.w
        vol_merged = vol[e.ei] + vol[e.ej]
        phi_merged = phi(cut_merged, vol_merged)
        _record_scoring(recorder, graph, self.name)
        return validate_scores(
            (phi_i + phi_j - phi_merged).astype(SCORE_DTYPE, copy=False),
            scorer=self.name,
        )


class WeightScorer:
    """Raw edge weight: turns the matcher into plain heavy-edge matching.

    Not a community metric — used for multilevel-partitioning-style
    coarsening and as a reference workload in the matching tests.
    """

    name = "weight"
    validates_output = True

    def score(
        self, graph: CommunityGraph, recorder: TraceRecorder | None = None
    ) -> np.ndarray:
        _record_scoring(recorder, graph, self.name)
        return validate_scores(
            graph.edges.w.astype(SCORE_DTYPE), scorer=self.name
        )
