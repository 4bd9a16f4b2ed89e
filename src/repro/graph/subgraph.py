"""Subgraph extraction from partitions.

After partitioning, each simulated machine owns the induced subgraph of
its vertex set plus knowledge of which neighbours are remote. This
module materialises those per-part structures and is also the basis of
the §3.3 connectivity experiment (edge connections between pieces) and
of every BPart layer after the first. The induced rows are built in C,
one checked call through the graph's block table (``graph/_sample.c``'s
``induce_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph
from repro.utils import native

__all__ = ["Subgraph", "extract_subgraph"]


@dataclass(frozen=True)
class Subgraph:
    """One machine's share of a partitioned graph.

    Attributes
    ----------
    graph:         induced CSR over local vertices only (relabelled 0..k).
    global_ids:    local id → original vertex id.
    local_of:      original id → local id (−1 for non-members).
    num_cut_arcs:  arcs from a local vertex to a remote vertex.
    num_total_arcs: all arcs leaving local vertices (local + cut); the
                    paper's ``|E_i|``.
    """

    graph: CSRGraph
    global_ids: np.ndarray
    local_of: np.ndarray
    num_cut_arcs: int
    num_total_arcs: int

    @property
    def num_vertices(self) -> int:
        """The paper's ``|V_i|``."""
        return self.graph.num_vertices


def extract_subgraph(graph: CSRGraph, members: np.ndarray) -> Subgraph:
    """Induce the subgraph over ``members`` (a vertex-id array or mask)."""
    n = graph.num_vertices
    members = np.asarray(members)
    if members.dtype == bool:
        if members.size != n:
            raise PartitionError("boolean membership mask has wrong length")
        ids = np.nonzero(members)[0].astype(np.int64)
    else:
        ids = np.unique(members.astype(np.int64))
        if ids.size and (ids[0] < 0 or ids[-1] >= n):
            raise PartitionError("membership ids outside vertex range")

    # Identity extraction (all vertices are members): the induced graph
    # IS the input — return it without building a copy. This is the path
    # multi-layer combine's first layer takes; it keeps layer 1 of BPart
    # zero-copy on dense graphs and natively out-of-core on sharded ones.
    # A dense graph qualifies only with ascending rows, since the induced
    # adjacency below always comes out row-sorted.
    if ids.size == n and (not isinstance(graph, CSRGraph) or graph.rows_sorted):
        return Subgraph(
            graph=graph,
            global_ids=ids,
            local_of=np.arange(n, dtype=np.int64),
            num_cut_arcs=0,
            num_total_arcs=graph.num_edges,
        )

    local_of = np.full(n, -1, dtype=np.int64)
    local_of[ids] = np.arange(ids.size)

    # One C call writes the members' induced degrees and relabelled rows, in member
    # order, into an output sized by the members' arcs.
    total_arcs = int(graph.degrees[ids].sum())
    counts = np.zeros(ids.size, dtype=np.int64)
    indices = np.empty(total_arcs, dtype=np.int32 if ids.size <= 2**31 - 1 else np.int64)
    native.call("induce_rows", graph.table, ids, local_of, counts, indices)
    kept = int(counts.sum())
    new_indptr = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(counts, out=new_indptr[1:])
    # The relabelling is monotone, so sorted input rows come out sorted;
    # only hand-assembled graphs with unsorted rows pay for a sort
    # (has_edge needs ascending neighbour lists).
    sub = CSRGraph(new_indptr, indices[:kept], directed=graph.directed, validate=False)
    if not sub.rows_sorted:
        order = np.lexsort((sub.indices, np.repeat(np.arange(ids.size), counts)))
        sub = CSRGraph(new_indptr, sub.indices[order], directed=graph.directed, validate=False)
    return Subgraph(
        graph=sub,
        global_ids=ids,
        local_of=local_of,
        num_cut_arcs=total_arcs - kept,
        num_total_arcs=total_arcs,
    )
