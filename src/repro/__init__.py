"""repro — Scalable Multi-threaded Community Detection in Social Networks.

A complete reimplementation of Riedy, Meyerhenke & Bader (IPDPSW 2012):
parallel agglomerative community detection (score → match → contract) on
the paper's bucketed parity-hashed edge representation, together with its
workload generators, sequential quality baselines, and trace-driven models
of the five evaluation platforms (two Cray XMT generations, three Intel
OpenMP servers) that regenerate the paper's scaling results.

Quickstart::

    from repro import detect_communities, generators, metrics

    graph = generators.planted_partition_graph(5_000, seed=42)
    result = detect_communities(graph)
    q = metrics.modularity(graph, result.partition)
    print(result.n_communities, q)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro import (
    analysis,
    baselines,
    bench,
    core,
    generators,
    graph,
    kernels,
    metrics,
    obs,
    platform,
    pregel,
    resilience,
    spmatrix,
    util,
)
from repro.core import (
    AgglomerationResult,
    ConductanceScorer,
    ModularityScorer,
    TerminationCriteria,
    WeightScorer,
    detect_communities,
    refine_partition,
)
from repro.graph import CommunityGraph, from_edges, largest_component
from repro.metrics import Partition, coverage, modularity
from repro.obs import Tracer, read_trace, render_profile, write_trace
from repro.platform import TraceRecorder, get_machine, simulate_time
from repro.resilience import RecoveryReport, RetryPolicy

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # subpackages
    "analysis",
    "baselines",
    "bench",
    "core",
    "generators",
    "graph",
    "kernels",
    "metrics",
    "obs",
    "platform",
    "pregel",
    "resilience",
    "spmatrix",
    "util",
    # headline API
    "detect_communities",
    "AgglomerationResult",
    "ModularityScorer",
    "ConductanceScorer",
    "WeightScorer",
    "TerminationCriteria",
    "refine_partition",
    "CommunityGraph",
    "from_edges",
    "largest_component",
    "Partition",
    "modularity",
    "coverage",
    "TraceRecorder",
    "get_machine",
    "simulate_time",
    "Tracer",
    "write_trace",
    "read_trace",
    "render_profile",
    "RecoveryReport",
    "RetryPolicy",
]
