"""k-core decomposition via H-index iteration (Lü et al., Nature Comm. 2016).

Each vertex repeatedly replaces its core estimate with the *H-index* of
its neighbours' estimates (the largest ``h`` such that at least ``h``
neighbours have estimate ≥ ``h``). Starting from the degrees, this
converges to the exact coreness of every vertex — a classic
vertex-centric formulation that, unlike sequential peeling, fits the
BSP model.

The per-vertex H-index over CSR segments is vectorised: one lexsort per
adjacency block by (vertex, −value) gives each segment in descending
order; positions within segments come from subtracting the block's
offsets; the H-index is the per-segment count of positions where
``value ≥ position + 1``.
"""

from __future__ import annotations

import numpy as np

from repro.engines.gemini.vertex_program import VertexProgram
from repro.graph.csr import CSRGraph

__all__ = ["KCore"]


def _segment_h_index(graph: CSRGraph, values: np.ndarray) -> np.ndarray:
    """H-index of ``values`` over each vertex's neighbour list."""
    out = np.zeros(graph.num_vertices, dtype=np.int64)
    # Blockwise, so a sharded graph sorts one mapped shard at a time; a
    # dense graph is a single zero-copy block.
    for start, stop, local, idx in graph.iter_blocks():
        if idx.size == 0:
            continue
        lens = np.diff(local)
        src = np.repeat(np.arange(stop - start, dtype=np.int64), lens)
        vals = values[idx].astype(np.int64)
        order = np.lexsort((-vals, src))
        # After the (src, −val) sort, segments stay contiguous in vertex
        # order, so per-segment positions follow directly from the offsets.
        pos_in_segment = np.arange(src.size) - np.repeat(local[:-1], lens)
        qualifies = vals[order] >= (pos_in_segment + 1)
        out[start:stop] = np.bincount(src[order][qualifies], minlength=stop - start)
    return out


class KCore(VertexProgram):
    """Coreness of every vertex (state converges to the core number)."""

    name = "k-core"
    max_iterations = 10_000

    def initialize(self, graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
        return graph.degrees.astype(np.float64), np.ones(graph.num_vertices, dtype=bool)

    def iterate(
        self, graph: CSRGraph, state: np.ndarray, active: np.ndarray, iteration: int
    ) -> tuple[np.ndarray, np.ndarray]:
        new_state = _segment_h_index(graph, state.astype(np.int64)).astype(np.float64)
        # H-operator is monotone non-increasing from the degree start.
        changed = new_state != state
        next_active = np.zeros_like(active)
        next_active[changed] = True
        return new_state, next_active
