"""Community quality metrics: modularity, conductance, coverage, and
partition-comparison measures (NMI/ARI)."""

from repro import _lazy_exports
from repro.metrics.partition import Partition
from repro.metrics.modularity import (
    modularity,
    modularity_and_coverage,
    community_graph_modularity,
)
from repro.metrics.conductance import conductances, average_conductance
from repro.metrics.coverage import coverage, mirror_coverage

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "normalized_mutual_information": "comparison",
        "adjusted_rand_index": "comparison",
        "performance": "dimacs",
        "expansion": "dimacs",
        "intercluster_conductance": "dimacs",
        "min_intracluster_density": "dimacs",
    },
)

__all__ = [
    "Partition",
    "modularity",
    "modularity_and_coverage",
    "community_graph_modularity",
    "conductances",
    "average_conductance",
    "coverage",
    "mirror_coverage",
    "normalized_mutual_information",
    "adjusted_rand_index",
    "performance",
    "expansion",
    "intercluster_conductance",
    "min_intracluster_density",
]
