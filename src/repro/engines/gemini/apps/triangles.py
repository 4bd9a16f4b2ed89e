"""Triangle counting via sparse matrix algebra.

Per-vertex triangle counts are ``diag(A³) / 2`` for symmetrised
adjacency; the global count divides by 3 again. Computed as
``(A·A) ∘ A`` row sums with SciPy sparse — one "superstep" whose
per-machine work is Σ d(v)² over local vertices (the cost of
enumerating each vertex's 2-paths), which is how distributed triangle
counters are load-modelled.

Memory scales with the number of length-2 paths (Σ d²); fine for the
bundled datasets, but quadratic-in-hub-degree — not for million-vertex
hubs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.engines.gemini.vertex_program import VertexProgram
from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph

__all__ = ["TriangleCount"]


class TriangleCount(VertexProgram):
    """Per-vertex triangle counts in a single dense superstep."""

    name = "triangle-count"
    max_iterations = 1

    def initialize(self, graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
        if not isinstance(graph, CSRGraph):
            raise GraphFormatError(
                f"{self.name} multiplies the whole adjacency as one sparse matrix "
                f"and cannot run on a {type(graph).__name__}; load the graph densely"
            )
        n = graph.num_vertices
        return np.zeros(n), np.ones(n, dtype=bool)

    def iterate(
        self, graph: CSRGraph, state: np.ndarray, active: np.ndarray, iteration: int
    ) -> tuple[np.ndarray, np.ndarray]:
        n = graph.num_vertices
        if graph.num_edges == 0:
            return np.zeros(n), np.zeros(n, dtype=bool)
        adj = sp.csr_matrix(
            (np.ones(graph.num_edges), graph.indices, graph.indptr), shape=(n, n)
        )
        paths2 = adj @ adj
        closed = paths2.multiply(adj)
        per_vertex = np.asarray(closed.sum(axis=1)).ravel() / 2.0
        return per_vertex, np.zeros(n, dtype=bool)

    @staticmethod
    def global_count(per_vertex: np.ndarray) -> int:
        """Total triangles from the per-vertex counts."""
        return int(round(per_vertex.sum() / 3.0))
