"""Label propagation community detection (Raghavan et al., 2007).

Every vertex adopts the *most frequent* label among its neighbours
(ties broken toward the smallest label id so the algorithm is
deterministic, a common synchronous-LPA convention). Converges when no
label changes; the result maps each vertex to a community label.

The mode-per-vertex gather is fully vectorised: per adjacency block,
one ``lexsort`` over (vertex, label) pairs, run-length counting with ``reduceat``, then a
second lexsort picking each vertex's (−count, label)-minimal run.
"""

from __future__ import annotations

import numpy as np

from repro.engines.gemini.vertex_program import VertexProgram
from repro.graph.csr import CSRGraph

__all__ = ["LabelPropagation"]


def _neighbor_mode(graph: CSRGraph, labels: np.ndarray) -> np.ndarray:
    """Most frequent neighbour label per vertex.

    A vertex keeps its current label whenever that label is *tied* for
    the maximum — the standard damping that breaks synchronous LPA's
    period-2 oscillations (without it, bipartite-ish substructures swap
    labels forever). Among strictly better labels, the smallest id wins
    so the computation is deterministic. Vertices without neighbours
    keep their own label.
    """
    out = labels.copy()
    # Blockwise, so a sharded graph sorts one mapped shard at a time; a
    # dense graph is a single zero-copy block.
    for start, stop, local, idx in graph.iter_blocks():
        if idx.size == 0:
            continue
        s = np.repeat(np.arange(start, stop, dtype=np.int64), np.diff(local))
        lab = labels[idx].astype(np.int64)
        order = np.lexsort((lab, s))
        l = lab[order]
        run_start = np.empty(s.size, dtype=bool)
        run_start[0] = True
        np.logical_or(s[1:] != s[:-1], l[1:] != l[:-1], out=run_start[1:])
        starts = np.nonzero(run_start)[0]
        counts = np.diff(np.append(starts, s.size))
        run_vertex = s[starts]
        run_label = l[starts]
        # Per vertex, pick the run with the largest count, smallest label
        # on ties: sort runs by (vertex, -count, label) and keep each
        # vertex's first run.
        pick_order = np.lexsort((run_label, -counts, run_vertex))
        rv = run_vertex[pick_order]
        first = np.empty(rv.size, dtype=bool)
        first[0] = True
        np.not_equal(rv[1:], rv[:-1], out=first[1:])
        best_vertex = rv[first]
        best_label = run_label[pick_order][first]
        best_count = counts[pick_order][first]
        # Count of each vertex's *current* label among its neighbours.
        current_count = np.zeros(stop - start, dtype=np.int64)
        is_current = run_label == labels[run_vertex]
        current_count[run_vertex[is_current] - start] = counts[is_current]
        keep = current_count[best_vertex - start] >= best_count
        out[best_vertex[~keep]] = best_label[~keep]
    return out


class LabelPropagation(VertexProgram):
    """Semi-synchronous LPA; labels initialised to vertex ids.

    Fully synchronous LPA oscillates with period 2 on symmetric
    substructures (a provable failure mode). Following the
    semi-synchronous scheme of Cordasco & Gargano (2010), each superstep
    updates the even-id half of the vertices first and the odd-id half
    against the refreshed labels — deterministic, BSP-compatible (two
    sub-phases per superstep), and convergent in practice.
    """

    name = "label-propagation"

    def __init__(self, max_iterations: int = 100) -> None:
        self.max_iterations = int(max_iterations)

    def initialize(self, graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
        n = graph.num_vertices
        return np.arange(n, dtype=np.float64), np.ones(n, dtype=bool)

    def iterate(
        self, graph: CSRGraph, state: np.ndarray, active: np.ndarray, iteration: int
    ) -> tuple[np.ndarray, np.ndarray]:
        labels = state.astype(np.int64)
        even = np.arange(graph.num_vertices) % 2 == 0
        changed_any = np.zeros_like(active)
        for batch in (even, ~even):
            proposal = _neighbor_mode(graph, labels)
            moved = batch & (proposal != labels)
            labels[moved] = proposal[moved]
            changed_any |= moved
        return labels.astype(np.float64), changed_any
