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

import importlib
import sys

__version__ = "1.0.0"


def _lazy_exports(package, table):
    """PEP 562 lazy exports for the package named *package*.

    *table* maps each exported name to the submodule of *package* that
    defines it; a name that maps to itself is that submodule.  Returns the
    ``(__getattr__, __dir__)`` pair the package assigns at module level.
    The first access to a name imports its submodule and caches the
    attribute on the package; a name not in *table* raises
    :class:`AttributeError`, so ``hasattr`` stays False.  It lives here,
    not in a submodule, so that ``import repro`` loads only this module.
    """
    module = sys.modules[package]

    def __getattr__(name):
        try:
            submodule = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = importlib.import_module(f"{package}.{submodule}")
        if submodule != name:
            value = getattr(value, name)
        setattr(module, name, value)
        return value

    def __dir__():
        return sorted(set(vars(module)) | set(table))

    return __getattr__, __dir__


# Nothing below is imported until first use: ``import repro`` loads no
# subpackage, and ``repro detect`` pays only for the pipeline it runs.
__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        # subpackages
        "analysis": "analysis",
        "baselines": "baselines",
        "bench": "bench",
        "core": "core",
        "generators": "generators",
        "graph": "graph",
        "metrics": "metrics",
        "obs": "obs",
        "platform": "platform",
        "resilience": "resilience",
        "util": "util",
        # headline API
        "AgglomerationResult": "core",
        "ConductanceScorer": "core",
        "ModularityScorer": "core",
        "TerminationCriteria": "core",
        "WeightScorer": "core",
        "detect_communities": "core",
        "refine_partition": "core",
        "CommunityGraph": "graph",
        "from_edges": "graph",
        "largest_component": "graph",
        "Partition": "metrics",
        "coverage": "metrics",
        "modularity": "metrics",
        "Tracer": "obs",
        "read_trace": "obs",
        "render_profile": "obs",
        "write_trace": "obs",
        "TraceRecorder": "platform",
        "get_machine": "platform",
        "simulate_time": "platform",
        "RecoveryReport": "resilience",
        "RetryPolicy": "resilience",
    },
)

__all__ = [
    "__version__",
    # subpackages
    "analysis",
    "baselines",
    "bench",
    "core",
    "generators",
    "graph",
    "metrics",
    "obs",
    "platform",
    "resilience",
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
