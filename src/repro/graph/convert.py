"""NetworkX bridge (one way: CSR → networkx).

Strictly a convenience/validation layer: tests cross-check CSR
algorithms (connected components, PageRank, cuts) against networkx on
small graphs. Never used on hot paths — networkx objects are orders of
magnitude heavier than CSR arrays.
"""

from __future__ import annotations

from repro.graph.csr import CSRGraph

__all__ = ["to_networkx"]


def to_networkx(graph: CSRGraph):
    """Convert to ``networkx.Graph`` / ``DiGraph`` (imports lazily)."""
    import networkx as nx

    g = nx.DiGraph() if graph.directed else nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    src, dst = graph.edge_array()
    if not graph.directed:
        keep = src <= dst
        src, dst = src[keep], dst[keep]
    g.add_edges_from(zip(src.tolist(), dst.tolist()))
    return g
