"""The reference model of ``extract_subgraph``'s induced rows.

This is the NumPy block loop ``extract_subgraph`` ran before its rows
moved into ``graph/_sample.c``'s ``induce_rows``, line for line: per
``iter_blocks()`` block, the slot ``repeat``/``arange`` gather of the
members' arcs, the target mask, the relabel and the ``bincount`` of kept
sources, then the sort of hand-assembled unsorted rows.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph


def induced(graph, members: np.ndarray) -> dict:
    """``extract_subgraph(graph, mask)``'s outputs for a boolean mask that
    leaves out at least one vertex (the identity shortcut is not modelled)."""
    n = graph.num_vertices
    mask = np.asarray(members, dtype=bool)
    ids = np.nonzero(mask)[0].astype(np.int64)
    local_of = np.full(n, -1, dtype=np.int64)
    local_of[ids] = np.arange(ids.size)

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
    indices = kept_dst.astype(np.int32 if ids.size <= 2**31 - 1 else np.int64)
    if not CSRGraph(new_indptr, indices, validate=False).rows_sorted:
        indices = indices[np.lexsort((kept_dst, kept_src))]
    return {
        "indptr": new_indptr,
        "indices": indices,
        "global_ids": ids,
        "local_of": local_of,
        "num_cut_arcs": cut_arcs,
        "num_total_arcs": total_arcs,
    }
