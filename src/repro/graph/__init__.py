"""Graph substrate: the paper's bucketed edge-array representation plus
builders, CSR views, connected components and file I/O."""

from repro.graph.edgelist import EdgeList, parity_canonical
from repro.graph.graph import CommunityGraph
from repro.graph.build import (
    from_edges,
    from_networkx,
    to_networkx,
)
from repro.graph.csr import CSRAdjacency
from repro.graph.components import connected_components
from repro.graph.subgraph import induced_subgraph, largest_component
from repro.graph.io import (
    read_edgelist,
    write_edgelist,
    read_metis,
    write_metis,
    save_npz,
    load_npz,
)

__all__ = [
    "EdgeList",
    "parity_canonical",
    "CommunityGraph",
    "from_edges",
    "from_networkx",
    "to_networkx",
    "CSRAdjacency",
    "connected_components",
    "induced_subgraph",
    "largest_component",
    "read_edgelist",
    "write_edgelist",
    "read_metis",
    "write_metis",
    "save_npz",
    "load_npz",
]
