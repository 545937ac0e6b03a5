"""Merge dendrogram: the level-by-level community maps.

Each contraction produces a dense old→new map over the previous level's
communities.  Composing prefixes of these maps yields the input-graph
community assignment at any level, which is how the driver reports both
its final partition and the whole agglomeration history (useful for the
paper's "smaller communities … form the basis for multi-level algorithms"
use case).

The newest level's labels are kept and advanced by one gather per push, so
the final partition costs O(|V|) however many levels the run took.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.metrics.partition import Partition
from repro.types import VERTEX_DTYPE

__all__ = ["Dendrogram"]


@dataclass
class Dendrogram:
    """A sequence of contraction maps over ``n_vertices`` input vertices.

    Grow it only through :meth:`push`, which keeps the newest labels current.
    """

    n_vertices: int
    maps: list[np.ndarray] = field(default_factory=list)
    # Read-only input-vertex labels after every map in ``maps``.
    _newest: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = np.arange(self.n_vertices, dtype=VERTEX_DTYPE)
        for mapping in self.maps:
            labels = mapping[labels]
        labels.flags.writeable = False
        self._newest = labels

    def push(self, mapping: np.ndarray) -> None:
        """Append one contraction's old→new community map."""
        mapping = np.asarray(mapping, dtype=VERTEX_DTYPE)
        expected = self.communities_at(self.n_levels)
        if len(mapping) != expected:
            raise ValueError(
                f"mapping covers {len(mapping)} communities, expected {expected}"
            )
        if len(mapping) and mapping.max() >= len(mapping):
            raise ValueError("contraction map must shrink (or keep) the range")
        labels = mapping[self._newest]
        labels.flags.writeable = False
        self.maps.append(mapping)
        self._newest = labels

    @property
    def n_levels(self) -> int:
        return len(self.maps)

    def communities_at(self, level: int) -> int:
        """Number of communities after ``level`` contractions."""
        if not 0 <= level <= self.n_levels:
            raise IndexError(f"level {level} out of range")
        if level == 0:
            return self.n_vertices
        return int(self.maps[level - 1].max()) + 1 if len(self.maps[level - 1]) else 0

    def labels_at(self, level: int) -> np.ndarray:
        """Input-vertex community labels after ``level`` contractions."""
        if not 0 <= level <= self.n_levels:
            raise IndexError(f"level {level} out of range")
        labels = np.arange(self.n_vertices, dtype=VERTEX_DTYPE)
        for mapping in self.maps[:level]:
            labels = mapping[labels]
        return labels

    def partition_at(self, level: int) -> Partition:
        """Input-graph :class:`Partition` after ``level`` contractions."""
        return Partition(self.labels_at(level))

    def final_partition(self) -> Partition:
        """Input-graph :class:`Partition` after every contraction (its
        labels are read-only)."""
        return Partition(self._newest)
