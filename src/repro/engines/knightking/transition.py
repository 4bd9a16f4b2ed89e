"""Vectorised transition sampling primitives for walker engines.

All functions operate on *batches* of walkers at once and check every
vertex id against ``[0, n)`` (a ``ConfigurationError`` names the first
bad one); the per-walker loops are C (``engines/_superstep.c``), block by
block of ``iter_blocks`` or through ``take_arcs``, so sharded graphs are
served too.
"""

from __future__ import annotations

import numpy as np

from repro.engines import superstep
from repro.errors import ConfigurationError, GraphFormatError
from repro.graph.csr import CSRGraph
from repro.utils import native
from repro.utils.validation import check_vertex_ids

__all__ = ["uniform_neighbor", "arcs_exist"]


def uniform_neighbor(
    graph: CSRGraph, positions: np.ndarray, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one uniform out-neighbour per walker.

    Returns ``(targets, dead_end)``. Walkers at zero-degree vertices get
    ``dead_end=True`` and their target set to their current position
    (callers terminate them).
    """
    pos = check_vertex_ids("positions", positions, None)
    u = rng.random(pos.size)
    slots, dead = np.empty(pos.size, dtype=np.int64), np.empty(pos.size, dtype=bool)
    native.call("uniform_slots", graph.indptr, pos, u, slots, dead)
    # take_arcs == indices[slots], but shard-aware for out-of-core graphs.
    targets = graph.take_arcs(slots).astype(np.int64) if graph.num_edges else pos.copy()
    np.copyto(targets, pos, where=dead)
    return targets, dead


def arcs_exist(graph: CSRGraph, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Vectorised ``graph.has_edge(sources[i], targets[i])``: a binary search of each
    query's row, which every builder stores sorted (else a :class:`GraphFormatError`)."""
    src = check_vertex_ids("sources", sources, None)
    tgt = check_vertex_ids("targets", targets, graph.num_vertices)
    if src.size != tgt.size:
        raise ConfigurationError(f"{src.size} sources but {tgt.size} targets")
    if isinstance(graph, CSRGraph):
        if graph.num_edges and not graph.rows_sorted:
            raise GraphFormatError("arcs_exist needs every neighbour list sorted ascending")
        return superstep.arcs_sorted(graph.indptr, graph.indices, src, tgt)
    # each block's C call sees only its own rows, so sources outside [0, n) are refused here
    src = check_vertex_ids("sources", src, graph.num_vertices)
    hit = np.zeros(src.size, dtype=bool)
    for start, stop, local, ids in graph.iter_blocks():
        sel = np.flatnonzero((src >= start) & (src < stop))
        hit[sel] = superstep.arcs_sorted(local, ids, src[sel], tgt[sel], start)
    return hit
