"""Workload generators for the paper's three evaluation graphs plus
deterministic fixtures for testing."""

from repro.generators.rmat import rmat_edges, rmat_graph
from repro.generators.sbm import planted_partition_graph
from repro.generators.webgraph import webgraph
from repro.generators.lfr import lfr_graph
from repro.generators.classic import (
    karate_club,
    ring_of_cliques,
    star_graph,
    path_graph,
    complete_graph,
    grid_graph,
    two_triangles,
)

__all__ = [
    "rmat_edges",
    "rmat_graph",
    "planted_partition_graph",
    "webgraph",
    "lfr_graph",
    "karate_club",
    "ring_of_cliques",
    "star_graph",
    "path_graph",
    "complete_graph",
    "grid_graph",
    "two_triangles",
]
