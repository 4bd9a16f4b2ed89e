"""Subgraph extraction from partitions.

After partitioning, each simulated machine owns the induced subgraph of
its vertex set plus knowledge of which neighbours are remote. This
module materialises those per-part structures and is also the basis of
the §3.3 connectivity experiment (edge connections between pieces).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph

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
        mask = members
    else:
        ids = np.unique(members.astype(np.int64))
        if ids.size and (ids[0] < 0 or ids[-1] >= n):
            raise PartitionError("membership ids outside vertex range")
        mask = np.zeros(n, dtype=bool)
        mask[ids] = True

    # Identity extraction (all vertices are members): the induced graph
    # IS the input — return it without building a copy. This is the path
    # multi-layer combine's first layer takes; it keeps layer 1 of BPart
    # zero-copy on dense graphs and natively out-of-core on sharded ones.
    # A dense graph qualifies only with ascending rows, since the induced
    # adjacency below always comes out row-sorted.
    if ids.size == n and (getattr(graph, "gather_block", None) is not None or graph.rows_sorted):
        return Subgraph(
            graph=graph,
            global_ids=ids,
            local_of=np.arange(n, dtype=np.int64),
            num_cut_arcs=0,
            num_total_arcs=graph.num_edges,
        )

    local_of = np.full(n, -1, dtype=np.int64)
    local_of[ids] = np.arange(ids.size)

    # Gather all arcs of the member vertices one block at a time (dense
    # graphs yield a single zero-copy block), keeping only local targets
    # for the induced adjacency. Blocks ascend, so kept arcs come out
    # grouped by source in the same order as a global gather.
    total_arcs = 0
    cut_arcs = 0
    kept_src_chunks: list[np.ndarray] = []
    kept_dst_chunks: list[np.ndarray] = []
    for start, stop, local, idx in graph.iter_blocks():
        a = int(np.searchsorted(ids, start))
        b = int(np.searchsorted(ids, stop))
        if a == b:
            continue
        off = ids[a:b] - start
        starts, ends = local[off], local[off + 1]
        lens = ends - starts
        block_total = int(lens.sum())
        total_arcs += block_total
        if block_total == 0:
            continue
        first = np.concatenate(([0], np.cumsum(lens)[:-1]))
        slots = np.repeat(starts - first, lens) + np.arange(block_total)
        targets = idx[slots]
        local_mask = mask[targets]
        cut_arcs += block_total - int(local_mask.sum())
        kept_src_chunks.append(np.repeat(np.arange(a, b), lens)[local_mask])
        kept_dst_chunks.append(local_of[targets[local_mask]])

    if kept_src_chunks:
        kept_src = np.concatenate(kept_src_chunks)
        kept_dst = np.concatenate(kept_dst_chunks)
    else:
        kept_src = np.empty(0, dtype=np.int64)
        kept_dst = np.empty(0, dtype=np.int64)
    counts = np.bincount(kept_src, minlength=ids.size)
    new_indptr = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(counts, out=new_indptr[1:])
    # Kept arcs are already grouped by source (we walked sources in order)
    # and the relabelling is monotone, so sorted input rows come out
    # sorted; only hand-assembled graphs with unsorted rows pay for a sort
    # (has_edge needs ascending neighbour lists).
    indices = kept_dst.astype(np.int32 if ids.size <= 2**31 - 1 else np.int64)
    sub = CSRGraph(new_indptr, indices, directed=graph.directed, validate=False)
    if not sub.rows_sorted:
        order = np.lexsort((kept_dst, kept_src))
        sub = CSRGraph(new_indptr, indices[order], directed=graph.directed, validate=False)
    return Subgraph(
        graph=sub,
        global_ids=ids,
        local_of=local_of,
        num_cut_arcs=cut_arcs,
        num_total_arcs=total_arcs,
    )
