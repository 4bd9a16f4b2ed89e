"""Connected Components via min-label propagation.

Every vertex starts with its own id as label and repeatedly adopts the
minimum label in its closed neighbourhood; convergence (an iteration
with no change) labels each component by its smallest vertex id. This is
the HCC formulation used in Pregel-family systems, and the algorithm the
paper runs on Gemini "until convergence".
"""

from __future__ import annotations

import numpy as np

from repro.engines.gemini.vertex_program import VertexProgram, neighbor_min
from repro.graph.csr import CSRGraph, gather_rows

__all__ = ["ConnectedComponents"]


class ConnectedComponents(VertexProgram):
    """Min-label propagation; converges in O(diameter) iterations."""

    name = "connected-components"
    max_iterations = 10_000  # effectively "until convergence"

    def initialize(self, graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
        n = graph.num_vertices
        return np.arange(n, dtype=np.float64), np.ones(n, dtype=bool)

    def iterate(
        self, graph: CSRGraph, state: np.ndarray, active: np.ndarray, iteration: int
    ) -> tuple[np.ndarray, np.ndarray]:
        nbr = neighbor_min(graph, state, default=np.inf)
        new_state = np.minimum(state, nbr)
        changed = new_state < state
        # Frontier semantics: a vertex participates next round if its
        # label changed or a neighbour's did. Using the changed set keeps
        # the accounting sparse as components settle.
        next_active = changed.copy()
        # Neighbours of changed vertices must re-check their minima.
        next_active[gather_rows(graph, np.flatnonzero(changed))[1]] = True
        return new_state, next_active
