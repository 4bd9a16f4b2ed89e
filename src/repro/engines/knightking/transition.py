"""Vectorised transition sampling primitives for walker engines.

All functions operate on *batches* of walkers at once and check every
vertex id against ``[0, n)`` first (a ``ConfigurationError`` names the
first bad one); the per-walker loops are C (``engines/_superstep.c``).
:func:`uniform_neighbor` gets its arc slots there and its targets from
``take_arcs``, so sharded graphs are served too. The second-order
membership test (:func:`arcs_exist`) binary-searches each query's row,
which every builder stores sorted; a sharded graph, which must go
through ``take_arcs``, runs a vectorised binary search instead.
"""

from __future__ import annotations

import numpy as np

from repro.engines import superstep
from repro.errors import ConfigurationError, GraphFormatError
from repro.graph.csr import CSRGraph
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
    pos = check_vertex_ids("positions", positions, graph.num_vertices)
    slots, dead = superstep.uniform_slots(graph.indptr, pos, rng.random(pos.size))
    # take_arcs == indices[slots], but shard-aware for out-of-core graphs.
    targets = graph.take_arcs(slots).astype(np.int64) if graph.num_edges else pos.copy()
    np.copyto(targets, pos, where=dead)
    return targets, dead


def arcs_exist(graph: CSRGraph, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Vectorised ``graph.has_edge(sources[i], targets[i])`` for batches.

    A dense graph answers each query with one binary search of its
    sorted row in C (an unsorted row is a :class:`GraphFormatError`).
    Other graphs take O(log d) rounds of masked ``take_arcs`` gathers.
    """
    src = check_vertex_ids("sources", sources, graph.num_vertices)
    tgt = check_vertex_ids("targets", targets, graph.num_vertices)
    if src.size != tgt.size:
        raise ConfigurationError(f"{src.size} sources but {tgt.size} targets")
    if graph.num_edges == 0:
        return np.zeros(src.size, dtype=bool)
    if isinstance(graph, CSRGraph):
        if not graph.rows_sorted:
            raise GraphFormatError("arcs_exist needs every neighbour list sorted ascending")
        return superstep.arcs_sorted(graph.indptr, graph.indices, src, tgt)
    lo = graph.indptr[src].copy()
    hi = graph.indptr[src + 1].copy()
    num_arcs = graph.num_edges
    # Invariant: the answer slot, if any, is in [lo, hi).
    while True:
        open_mask = lo < hi
        if not open_mask.any():
            break
        mid = (lo + hi) // 2
        # Only compare where the range is still open; closed ranges keep
        # lo == hi and drop out.
        vals = np.where(
            open_mask, graph.take_arcs(np.minimum(mid, num_arcs - 1)), 0
        )
        go_right = open_mask & (vals < tgt)
        go_left = open_mask & (vals > tgt)
        found = open_mask & (vals == tgt)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(go_left, mid, hi)
        # Collapse found ranges to a sentinel "hit" state.
        lo = np.where(found, -1, lo)
        hi = np.where(found, -2, hi)  # lo > hi ⇒ loop ignores, mark as hit
    return lo == -1
