"""Single-source shortest paths (Bellman–Ford style) vertex program.

:class:`~repro.graph.csr.CSRGraph` stores topology only, so edge weights
are supplied as a per-*target-degree-slot* array aligned with
``graph.indices`` (weight of arc ``indices[i]`` is ``weights[i]``), or
default to 1.0 — in which case SSSP coincides with BFS, a property the
tests exploit.
"""

from __future__ import annotations

import numpy as np

from repro.engines.gemini.vertex_program import VertexProgram
from repro.graph.csr import CSRGraph
from repro.utils.validation import check_nonnegative

__all__ = ["SSSP"]


class SSSP(VertexProgram):
    """Iterative relaxation SSSP from ``source`` with non-negative weights."""

    name = "sssp"
    max_iterations = 10_000

    def __init__(self, source: int = 0, weights: np.ndarray | None = None) -> None:
        check_nonnegative("source", source)
        self._source = int(source)
        self._weights = weights

    def initialize(self, graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
        n = graph.num_vertices
        if self._source >= n:
            raise ValueError(f"source {self._source} outside graph of {n} vertices")
        if self._weights is None:
            self._w = np.ones(graph.num_edges)
        else:
            w = np.asarray(self._weights, dtype=np.float64)
            if w.shape != (graph.num_edges,):
                raise ValueError(
                    f"weights must align with indices (length {graph.num_edges})"
                )
            if (w < 0).any():
                raise ValueError("SSSP requires non-negative weights")
            self._w = w
        dist = np.full(n, np.inf)
        dist[self._source] = 0.0
        active = np.zeros(n, dtype=bool)
        active[self._source] = True
        return dist, active

    def iterate(
        self, graph: CSRGraph, state: np.ndarray, active: np.ndarray, iteration: int
    ) -> tuple[np.ndarray, np.ndarray]:
        n = graph.num_vertices
        # Relax all arcs: candidate[v] = min over in-arcs (dist[u] + w(u,v)).
        # Symmetric storage means out-arcs of v are exactly its in-arcs
        # reversed, so gather over v's own slots with reversed roles:
        # dist[indices[i]] + w[i] relaxes *into* the slot owner. Blockwise,
        # so a sharded graph relaxes one mapped shard at a time.
        candidate = np.full(n, np.inf)
        slot = 0
        for start, stop, local, idx in graph.iter_blocks():
            nonzero = np.diff(local) > 0
            if nonzero.any():
                gathered = state[idx] + self._w[slot : slot + idx.size]
                candidate[start:stop][nonzero] = np.minimum.reduceat(
                    gathered, local[:-1][nonzero]
                )
            slot += idx.size
        new_state = np.minimum(state, candidate)
        next_active = new_state < state
        return new_state, next_active
