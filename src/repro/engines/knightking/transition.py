"""Vectorised transition sampling primitives for walker engines.

All functions operate on *batches* of walkers at once — the engine never
loops over individual walkers in Python. The second-order membership
test (:func:`arcs_exist`) exploits that the builder stores neighbour
lists sorted: on an in-RAM :class:`CSRGraph` the arc keys ``row·n + col``
are then globally ascending, and one ``searchsorted`` of the sorted
query keys answers the whole batch; a sharded graph, which must go
through ``take_arcs``, runs a vectorised binary search over each
walker's neighbour range instead.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["uniform_neighbor", "arcs_exist"]


def uniform_neighbor(
    graph: CSRGraph, positions: np.ndarray, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one uniform out-neighbour per walker.

    Returns ``(targets, dead_end)``. Walkers at zero-degree vertices get
    ``dead_end=True`` and their target set to their current position
    (callers terminate them).
    """
    pos = np.asarray(positions, dtype=np.int64)
    deg = graph.degrees[pos]
    dead = deg == 0
    # floor(u · deg) is uniform over [0, deg); guard deg=0 with max(…,1).
    offsets = (rng.random(pos.size) * deg).astype(np.int64)
    slots = graph.indptr[pos] + np.minimum(offsets, np.maximum(deg - 1, 0))
    # Dead-end walkers may sit at the last vertex, where indptr[pos]
    # already equals m — point their slot at 0 and overwrite below.
    slots[dead] = 0
    # take_arcs == indices[slots], but shard-aware for out-of-core graphs.
    targets = graph.take_arcs(slots).astype(np.int64) if graph.num_edges else pos.copy()
    targets[dead] = pos[dead]
    return targets, dead


def arcs_exist(graph: CSRGraph, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Vectorised ``graph.has_edge(sources[i], targets[i])`` for batches.

    Ids must lie in ``[0, n)``. A dense graph sorts the query keys once
    and looks them all up in :attr:`CSRGraph.arc_keys` with one
    ``searchsorted`` — in-order probes, the group-once idea of buffered
    streaming — then scatters the hits back into query order. Other
    graphs take O(log d) rounds of masked ``take_arcs`` gathers.
    """
    src = np.asarray(sources, dtype=np.int64)
    tgt = np.asarray(targets, dtype=np.int64)
    if graph.num_edges == 0:
        return np.zeros(src.size, dtype=bool)
    if isinstance(graph, CSRGraph):
        keys = graph.arc_keys
        query = (src * graph.num_vertices + tgt).astype(keys.dtype)
        order = np.argsort(query)
        query = query[order]
        slot = np.searchsorted(keys, query)
        hit = np.empty(src.size, dtype=bool)
        hit[order] = keys[np.minimum(slot, keys.size - 1)] == query
        return hit
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
