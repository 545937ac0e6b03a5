"""The community graph: bucketed edges plus per-vertex self-loop weights.

In the agglomerative algorithm every vertex of this graph *is* a community.
Edge weights count input-graph edges collapsed onto a community-graph edge;
the ``self_weights`` array counts input edges contained wholly inside each
community vertex (the paper stores self-loop weight sums in a |V|-long
array).  The sum of all edge weights plus all self weights is invariant
under contraction — it always equals the input graph's total edge weight —
which gives both a cheap global invariant for testing and the *coverage*
termination measure for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import InvariantViolation
from repro.graph.edgelist import EdgeList
from repro.types import WEIGHT_DTYPE

__all__ = ["CommunityGraph"]


def _freeze(a: np.ndarray) -> None:
    """Make ``a`` and every array it is a view of read-only."""
    while isinstance(a, np.ndarray):
        a.flags.writeable = False
        a = a.base


def _sealed(a: np.ndarray) -> bool:
    """True while no write can reach ``a``'s data: ``a`` and every array it
    is a view of are read-only, and one of them owns the memory."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


@dataclass
class _Aggregates:
    """Strengths and total weight derived from one set of frozen arrays."""

    arrays: tuple[np.ndarray, ...]
    strengths: np.ndarray | None = None
    total_weight: float | None = None


@dataclass
class CommunityGraph:
    """A weighted undirected graph in the paper's representation.

    :meth:`strengths` and :meth:`total_weight` are each computed on first
    use and cached.  The first measurement makes ``edges.ei``, ``edges.ej``,
    ``edges.w`` and ``self_weights`` read-only, together with any array they
    are views of, so an in-place write raises ``ValueError`` instead of
    leaving a stale cache; the returned strengths are read-only too.
    Reassigning any of those attributes drops the cache.  Copy a measured
    graph (:meth:`copy` returns writable arrays) before mutating it.

    Parameters
    ----------
    edges:
        Bucketed edge list (no self loops, each edge stored once).
    self_weights:
        ``|V|``-long array of intra-community edge weight.  For a freshly
        loaded input graph this is all zeros unless the input had self loops.
    """

    edges: EdgeList
    self_weights: np.ndarray = field(default=None)  # type: ignore[assignment]
    _aggregates: _Aggregates | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.self_weights is None:
            self.self_weights = np.zeros(self.edges.n_vertices, dtype=WEIGHT_DTYPE)
        else:
            self.self_weights = np.asarray(self.self_weights, dtype=WEIGHT_DTYPE)
            if len(self.self_weights) != self.edges.n_vertices:
                raise ValueError(
                    "self_weights length must equal number of vertices"
                )

    # ------------------------------------------------------------- properties
    @property
    def n_vertices(self) -> int:
        return self.edges.n_vertices

    @property
    def n_edges(self) -> int:
        return self.edges.n_edges

    def _measured(self) -> _Aggregates:
        """The aggregate cache for the graph's current arrays.

        The cache holds while the graph keeps the same array objects and
        they stay sealed; otherwise the arrays are frozen and a fresh,
        empty cache replaces it.
        """
        e = self.edges
        arrays = (e.ei, e.ej, e.w, self.self_weights)
        agg = self._aggregates
        if (
            agg is None
            or any(a is not b for a, b in zip(agg.arrays, arrays))
            or not all(map(_sealed, arrays))
        ):
            for a in arrays:
                _freeze(a)
            agg = self._aggregates = _Aggregates(arrays)
        return agg

    def total_weight(self) -> float:
        """Total input edge weight: cross-community + intra-community."""
        agg = self._measured()
        if agg.total_weight is None:
            agg.total_weight = self.edges.total_weight() + float(
                self.self_weights.sum()
            )
        return agg.total_weight

    def internal_weight(self) -> float:
        """Input edge weight contained inside communities."""
        return float(self.self_weights.sum())

    def coverage(self) -> float:
        """Fraction of input edge weight inside communities (DIMACS coverage).

        The performance experiments in the paper terminate once this reaches
        0.5.  Zero-weight graphs have coverage 1.0 by convention (everything
        — i.e. nothing — is covered).
        """
        total = self.total_weight()
        if total == 0:
            return 1.0
        return self.internal_weight() / total

    def strengths(self) -> np.ndarray:
        """Volume of every community: ``2 * self_weight + incident weight``.

        Matches the usual modularity convention where an internal edge
        contributes 2 to its community's degree sum.  The array is cached
        and read-only.
        """
        agg = self._measured()
        if agg.strengths is None:
            s = self.edges.strengths() + 2.0 * self.self_weights
            s.flags.writeable = False
            agg.strengths = s
        return agg.strengths

    def memory_words(self) -> int:
        """64-bit words used: 3|E| + 2|V| (edges, buckets) + |V| self weights.

        This is the paper's ``3|V| + 3|E|`` accounting.
        """
        return self.edges.memory_words() + self.n_vertices

    def copy(self) -> "CommunityGraph":
        """Deep copy with writable arrays and no cached aggregates."""
        return CommunityGraph(self.edges.copy(), self.self_weights.copy())

    # ------------------------------------------------------------- validation
    def validate(self) -> None:
        """Check representation invariants (delegates to the edge list)."""
        self.edges.validate()
        if np.any(self.self_weights < 0):
            raise InvariantViolation("negative self weight")
        if np.any(~np.isfinite(self.self_weights)):
            raise InvariantViolation("non-finite self weight")
        if len(self.edges.w) and np.any(~np.isfinite(self.edges.w)):
            raise InvariantViolation("non-finite edge weight")
