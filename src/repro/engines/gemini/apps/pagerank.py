"""PageRank vertex program.

The paper's canon (§4.1): 10 iterations on Gemini. Damping 0.85,
uniform teleport, dangling mass redistributed uniformly — the same
semantics as ``networkx.pagerank``, which the tests cross-check against.
"""

from __future__ import annotations

import numpy as np

from repro.engines.gemini.vertex_program import VertexProgram, neighbor_sum
from repro.graph.csr import CSRGraph
from repro.utils.validation import check_positive

__all__ = ["PageRank"]

#: the teleport damping factor (the paper's, and networkx's default).
DAMPING = 0.85


class PageRank(VertexProgram):
    """Power-iteration PageRank.

    Parameters
    ----------
    iterations: fixed iteration count (paper: 10).
    """

    name = "pagerank"

    def __init__(self, iterations: int = 10) -> None:
        check_positive("iterations", iterations)
        self.max_iterations = int(iterations)

    def initialize(self, graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
        n = graph.num_vertices
        state = np.full(n, 1.0 / n)
        return state, np.ones(n, dtype=bool)  # every vertex active every iter

    def iterate(
        self, graph: CSRGraph, state: np.ndarray, active: np.ndarray, iteration: int
    ) -> tuple[np.ndarray, np.ndarray]:
        n = graph.num_vertices
        deg = graph.degrees
        d = DAMPING
        contrib = np.where(deg > 0, state / np.maximum(deg, 1), 0.0)
        dangling = state[deg == 0].sum()
        new_state = (1.0 - d) / n + d * (neighbor_sum(graph, contrib) + dangling / n)
        # Fixed-iteration program: frontier stays full until the cap.
        return new_state, active
