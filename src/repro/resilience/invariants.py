"""Invariant auditor: conservation-law checks over the contraction loop.

The paper's agglomeration (§IV) preserves a small set of algebraic
invariants by construction — total edge weight is constant under
contraction, absorbed intra-merge weight reappears as self-loop weight,
the relabel map is a surjection onto the contracted vertex set, and the
matching is a valid (maximal) matching.  The engine additionally tracks
modularity and coverage incrementally via the contracted graph's
closed-form expressions, which must agree with a from-scratch recompute
on the input graph.

:class:`InvariantAuditor` re-derives these properties *independently*
after each contract phase and raises
:class:`~repro.errors.InvariantViolation` with a forensic dump (level,
phase, check name, offending array summaries) the moment one fails —
turning silent partition corruption into a loud, located error.

Strictness modes
----------------
``off``
    No checks (the auditor is inert).
``sample``
    Every cheap aggregate check each level — O(|V| + |E|) scalar
    reductions: weight conservation, aggregate self-loop accounting,
    mapping surjection, matching validity — plus the expensive
    from-scratch quality recompute every ``sample_every`` levels.
``full``
    Everything, every level: per-community self-loop accounting,
    matching maximality, and the quality recompute at each level.

The degradation ladder lowers strictness ``full → sample → off`` under
pressure (see :mod:`repro.resilience.guardian`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import InvariantViolation
from repro.graph.graph import CommunityGraph
from repro.metrics.modularity import modularity_and_coverage
from repro.metrics.partition import Partition
from repro.types import NO_VERTEX

if TYPE_CHECKING:  # avoid importing repro.core from the resilience package
    from repro.core.matching import MatchingResult

__all__ = [
    "AUDIT_MODES",
    "InvariantAuditor",
    "lower_audit_mode",
    "check_weight_conservation",
    "check_self_loop_accounting",
    "check_mapping_surjection",
    "check_matching_validity",
    "check_matching_maximality",
    "check_tracked_quality",
]

#: Valid strictness modes, weakest first.
AUDIT_MODES = ("off", "sample", "full")


def lower_audit_mode(mode: str) -> str:
    """One rung down the strictness ladder (``off`` stays ``off``)."""
    idx = AUDIT_MODES.index(mode)
    return AUDIT_MODES[max(0, idx - 1)]


def _summary(name: str, arr: np.ndarray) -> str:
    """Compact forensic description of an array for violation messages."""
    arr = np.asarray(arr)
    if arr.size == 0:
        return f"{name}: shape={arr.shape} dtype={arr.dtype} (empty)"
    head = np.array2string(arr[:8], threshold=8)
    parts = [
        f"{name}: shape={arr.shape} dtype={arr.dtype}",
        f"min={arr.min()} max={arr.max()}",
    ]
    if np.issubdtype(arr.dtype, np.floating):
        parts.append(f"sum={float(arr.sum()):.6g}")
        n_bad = int(np.count_nonzero(~np.isfinite(arr)))
        if n_bad:
            parts.append(f"non_finite={n_bad}")
    parts.append(f"head={head}")
    return " ".join(parts)


def _close(a: float, b: float, tolerance: float) -> bool:
    return abs(a - b) <= tolerance * max(1.0, abs(a), abs(b))


# --------------------------------------------------------------------------
# Individual checks.  Each raises InvariantViolation with local forensics;
# the auditor prefixes level/phase context and stamps attributes.
# --------------------------------------------------------------------------


def check_weight_conservation(
    graph_before: CommunityGraph,
    graph_after: CommunityGraph,
    *,
    tolerance: float = 1e-6,
) -> None:
    """Total edge weight (cross + self) is invariant under contraction."""
    before = graph_before.total_weight()
    after = graph_after.total_weight()
    if not _close(before, after, tolerance):
        raise InvariantViolation(
            "total edge weight not conserved by contraction: "
            f"before={before!r} after={after!r} "
            f"drift={after - before!r} (tolerance={tolerance}); "
            + _summary("after.edges.w", graph_after.edges.w)
            + "; "
            + _summary("after.self_weights", graph_after.self_weights)
        )


def check_self_loop_accounting(
    graph_before: CommunityGraph,
    mapping: np.ndarray,
    graph_after: CommunityGraph,
    *,
    tolerance: float = 1e-6,
    per_community: bool = False,
) -> None:
    """Contracted self-loop weight equals carried-over self weight plus
    the intra-merge edge weight absorbed by the contraction.

    The aggregate (scalar) form compares total sums; ``per_community``
    recomputes the expected self-weight array and compares elementwise.
    """
    e = graph_before.edges
    k = graph_after.n_vertices
    ni = mapping[e.ei]
    nj = mapping[e.ej]
    loops = ni == nj
    absorbed = float(e.w[loops].sum())
    expected_total = float(graph_before.self_weights.sum()) + absorbed
    actual_total = float(graph_after.self_weights.sum())
    if not _close(expected_total, actual_total, tolerance):
        raise InvariantViolation(
            "self-loop weight does not equal carried self weight plus "
            f"absorbed intra-merge weight: expected={expected_total!r} "
            f"actual={actual_total!r} (absorbed={absorbed!r}, "
            f"tolerance={tolerance}); "
            + _summary("after.self_weights", graph_after.self_weights)
        )
    if per_community:
        expected = np.bincount(
            mapping, weights=graph_before.self_weights, minlength=k
        )
        if loops.any():
            expected += np.bincount(ni[loops], weights=e.w[loops], minlength=k)
        bad = ~np.isclose(
            expected, graph_after.self_weights, rtol=tolerance, atol=tolerance
        )
        if bad.any():
            idx = np.flatnonzero(bad)
            raise InvariantViolation(
                f"per-community self-loop accounting broken for "
                f"{len(idx)} of {k} communities "
                f"(first offenders: {idx[:8].tolist()}); "
                + _summary("expected", expected[idx])
                + "; "
                + _summary("actual", graph_after.self_weights[idx])
            )


def check_mapping_surjection(
    mapping: np.ndarray, n_before: int, n_after: int
) -> None:
    """The relabel map is a total function onto the new vertex set."""
    if len(mapping) != n_before:
        raise InvariantViolation(
            f"relabel mapping covers {len(mapping)} vertices, "
            f"expected {n_before}; " + _summary("mapping", mapping)
        )
    if not np.issubdtype(np.asarray(mapping).dtype, np.integer):
        raise InvariantViolation(
            "relabel mapping is not integral; " + _summary("mapping", mapping)
        )
    if n_before == 0:
        if n_after != 0:
            raise InvariantViolation(
                f"empty mapping cannot be surjective onto {n_after} vertices"
            )
        return
    lo = int(mapping.min())
    hi = int(mapping.max())
    if lo < 0 or hi >= n_after:
        raise InvariantViolation(
            f"relabel mapping range [{lo}, {hi}] escapes the new vertex "
            f"set [0, {n_after}); " + _summary("mapping", mapping)
        )
    hit = np.bincount(mapping, minlength=n_after)
    missing = np.flatnonzero(hit == 0)
    if len(missing):
        raise InvariantViolation(
            f"relabel mapping is not surjective: {len(missing)} of "
            f"{n_after} new vertices unhit "
            f"(first: {missing[:8].tolist()}); "
            + _summary("mapping", mapping)
        )


def check_matching_validity(
    graph: CommunityGraph, matching: MatchingResult
) -> None:
    """The matching is a symmetric involution with no overlapping pairs."""
    partner = matching.partner
    n = graph.n_vertices
    if len(partner) != n:
        raise InvariantViolation(
            f"matching partner array covers {len(partner)} vertices, "
            f"expected {n}; " + _summary("partner", partner)
        )
    matched = partner != NO_VERTEX
    verts = np.flatnonzero(matched)
    if np.any(partner[verts] == verts):
        bad = verts[partner[verts] == verts]
        raise InvariantViolation(
            f"self-matched vertices: {bad[:8].tolist()}; "
            + _summary("partner", partner)
        )
    if len(verts) and (
        int(partner[verts].min()) < 0 or int(partner[verts].max()) >= n
    ):
        raise InvariantViolation(
            "matching partner ids escape the vertex set; "
            + _summary("partner", partner)
        )
    bad = verts[partner[partner[verts]] != verts]
    if len(bad):
        # partner[a] = b without partner[b] = a means two pairs overlap
        # on b (or the involution is otherwise broken).
        raise InvariantViolation(
            f"matching is not a symmetric involution (overlapping pairs) "
            f"at vertices {bad[:8].tolist()}; "
            + _summary("partner", partner)
        )
    me = matching.matched_edges
    if 2 * len(me) != int(np.count_nonzero(matched)):
        raise InvariantViolation(
            f"matched_edges lists {len(me)} pairs but partner marks "
            f"{int(np.count_nonzero(matched))} matched endpoints; "
            + _summary("matched_edges", me)
        )
    e = graph.edges
    if len(me) and not np.all(partner[e.ei[me]] == e.ej[me]):
        raise InvariantViolation(
            "matched_edges disagree with the partner array; "
            + _summary("matched_edges", me)
        )


def check_matching_maximality(
    graph: CommunityGraph, scores: np.ndarray, matching: MatchingResult
) -> None:
    """No positive-scored edge has both endpoints unmatched."""
    e = graph.edges
    matched = matching.partner != NO_VERTEX
    both_free = ~matched[e.ei] & ~matched[e.ej]
    missed = np.flatnonzero((scores > 0) & both_free)
    if len(missed):
        raise InvariantViolation(
            f"matching is not maximal: {len(missed)} positive-scored "
            f"edges have both endpoints free "
            f"(first edge indices: {missed[:8].tolist()}); "
            + _summary("scores[missed]", scores[missed])
        )


def _drifted(recomputed: float, tracked: float, tolerance: float) -> bool:
    """True unless both values are finite and within tolerance.

    Written as ``not (… <= …)`` so that a NaN on either side drifts.
    """
    return not (
        np.isfinite(recomputed)
        and np.isfinite(tracked)
        and abs(recomputed - tracked) <= max(tolerance, tolerance * abs(recomputed))
    )


def check_tracked_quality(
    input_graph: CommunityGraph,
    partition: Partition,
    *,
    tracked_modularity: float,
    tracked_coverage: float,
    tolerance: float = 1e-6,
) -> None:
    """The engine's incrementally tracked modularity/coverage agree with
    a from-scratch recompute on the input graph (one pass over its edges)."""
    q, cov = modularity_and_coverage(input_graph, partition)
    if _drifted(q, tracked_modularity, tolerance):
        raise InvariantViolation(
            f"tracked modularity {tracked_modularity!r} diverges from "
            f"from-scratch recompute {q!r} "
            f"(drift={tracked_modularity - q!r}, tolerance={tolerance})"
        )
    if _drifted(cov, tracked_coverage, tolerance):
        raise InvariantViolation(
            f"tracked coverage {tracked_coverage!r} diverges from "
            f"from-scratch recompute {cov!r} "
            f"(drift={tracked_coverage - cov!r}, tolerance={tolerance})"
        )


# --------------------------------------------------------------------------
# The auditor.
# --------------------------------------------------------------------------


class InvariantAuditor:
    """Runs the conservation checks at a configurable strictness.

    Parameters
    ----------
    mode:
        ``off``, ``sample`` (default), or ``full`` — see the module
        docstring for what each tier runs.
    tolerance:
        Relative/absolute tolerance for floating-point conservation and
        quality-drift comparisons.
    sample_every:
        In ``sample`` mode, run the expensive quality recompute at every
        ``sample_every``-th level (level 0 always included).
    """

    def __init__(
        self,
        mode: str = "sample",
        *,
        tolerance: float = 1e-6,
        sample_every: int = 4,
    ) -> None:
        if mode not in AUDIT_MODES:
            raise ValueError(
                f"audit mode must be one of {AUDIT_MODES}, got {mode!r}"
            )
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.mode = mode
        self.tolerance = tolerance
        self.sample_every = sample_every
        #: Total individual checks executed (visible in guardian metrics).
        self.checks_run = 0
        #: Violations raised (sticks at the first one unless caught).
        self.violations = 0

    def lower(self) -> str:
        """Drop one strictness rung in place; returns the new mode."""
        self.mode = lower_audit_mode(self.mode)
        return self.mode

    # -------------------------------------------------------------- internals
    def _run(
        self, check: str, phase: str, level: int, fn: Callable[[], None]
    ) -> None:
        self.checks_run += 1
        try:
            fn()
        except InvariantViolation as exc:
            self.violations += 1
            wrapped = InvariantViolation(
                f"[level {level} / phase {phase} / check {check}] {exc}"
            )
            wrapped.level = level  # type: ignore[attr-defined]
            wrapped.phase = phase  # type: ignore[attr-defined]
            wrapped.check = check  # type: ignore[attr-defined]
            raise wrapped from exc

    def _quality_due(self, level: int) -> bool:
        if self.mode == "full":
            return True
        return level % self.sample_every == 0

    # ------------------------------------------------------------------ audits
    def audit_contraction(
        self,
        level: int,
        *,
        graph_before: CommunityGraph,
        scores: np.ndarray,
        matching: MatchingResult,
        mapping: np.ndarray,
        graph_after: CommunityGraph,
        limited: bool = False,
    ) -> int:
        """Audit one completed contract phase; returns checks executed.

        ``limited=True`` marks a matching deliberately truncated by the
        driver's pair cap (``min_communities``) — maximality is skipped
        for it, since the truncation un-matches pairs by design.
        """
        if self.mode == "off":
            return 0
        before = self.checks_run
        tol = self.tolerance
        self._run(
            "weight_conservation",
            "contract",
            level,
            lambda: check_weight_conservation(
                graph_before, graph_after, tolerance=tol
            ),
        )
        self._run(
            "self_loop_accounting",
            "contract",
            level,
            lambda: check_self_loop_accounting(
                graph_before,
                mapping,
                graph_after,
                tolerance=tol,
                per_community=self.mode == "full",
            ),
        )
        self._run(
            "mapping_surjection",
            "contract",
            level,
            lambda: check_mapping_surjection(
                mapping, graph_before.n_vertices, graph_after.n_vertices
            ),
        )
        self._run(
            "matching_validity",
            "match",
            level,
            lambda: check_matching_validity(graph_before, matching),
        )
        if self.mode == "full" and not limited:
            self._run(
                "matching_maximality",
                "match",
                level,
                lambda: check_matching_maximality(
                    graph_before, scores, matching
                ),
            )
        return self.checks_run - before

    def audit_quality(
        self,
        level: int,
        *,
        input_graph: CommunityGraph,
        partition: Partition,
        tracked_modularity: float,
        tracked_coverage: float,
    ) -> int:
        """Cross-check tracked quality against a from-scratch recompute.

        Sampled in ``sample`` mode (every ``sample_every`` levels),
        every level in ``full`` mode; returns checks executed (0 when
        skipped).
        """
        if self.mode == "off" or not self._quality_due(level):
            return 0
        before = self.checks_run
        tol = self.tolerance
        self._run(
            "tracked_quality",
            "contract",
            level,
            lambda: check_tracked_quality(
                input_graph,
                partition,
                tracked_modularity=tracked_modularity,
                tracked_coverage=tracked_coverage,
                tolerance=tol,
            ),
        )
        return self.checks_run - before
