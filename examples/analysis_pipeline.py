#!/usr/bin/env python3
"""Drill-down analysis: §I's motivation, end to end.

"Finding communities ... plays a role both in developing new parallel
algorithms as well as opening smaller portions of the data to current
analysis tools."  This example runs the full pipeline:

1. cluster a web-crawl graph (coverage-terminated, the paper's rule);
2. summarize every community (sizes, density, conductance);
3. extract the largest community as a standalone subgraph, small enough
   to hand to any analysis tool;
4. recurse: detect sub-communities inside it.

Run:  python examples/analysis_pipeline.py
"""

import numpy as np

from repro import TerminationCriteria, detect_communities, modularity
from repro.analysis import (
    best_modularity_level,
    community_subgraph,
    community_summary,
)
from repro.bench.reporting import format_table
from repro.generators import webgraph
from repro.metrics import intercluster_conductance, performance


def main() -> None:
    print("1. Clustering a 20,000-page web crawl (coverage >= 0.5)...")
    graph = webgraph(20_000, seed=8)
    result = detect_communities(
        graph, termination=TerminationCriteria(coverage=0.5)
    )
    part = result.partition
    print(
        f"   {part.n_communities:,} communities, "
        f"Q={modularity(graph, part):.3f}, "
        f"DIMACS performance={performance(graph, part):.3f}, "
        f"intercluster conductance={intercluster_conductance(graph, part):.3f}"
    )

    level, best_part = best_modularity_level(graph, result.dendrogram)
    print(
        f"   best dendrogram level: {level}/{result.n_levels} "
        f"(Q={modularity(graph, best_part):.3f})"
    )

    print("\n2. Community summary (largest five):")
    stats = community_summary(graph, part)
    print(
        format_table(
            ["community", "size", "internal", "cut", "density", "conductance"],
            stats.as_rows(top=5),
        )
    )

    biggest = int(np.argmax(stats.sizes))
    print(f"\n3. Extracting community {biggest} as a standalone subgraph...")
    sub, _ = community_subgraph(graph, part, biggest)
    print(f"   |V|={sub.n_vertices:,} |E|={sub.n_edges:,}")

    print("\n4. Recursing: communities inside the community...")
    inner = detect_communities(
        sub, termination=TerminationCriteria.local_maximum()
    )
    print(
        f"   {inner.n_communities} sub-communities, "
        f"Q={modularity(sub, inner.partition):.3f}"
    )


if __name__ == "__main__":
    main()
