"""GD: 2-D balanced bisection via projected gradient descent.

The paper's related-work section cites GD (Avdiukhin, Pupyrev &
Yaroslavtsev, VLDB 2019) as the other scheme achieving two-dimensional
balance — at the cost of being "very time-consuming and only partition
a graph into power of two subgraphs". This module implements that
family as an extension baseline so the trade-off can be measured:

- Relax the bisection indicator to ``x ∈ [−1, 1]^n`` and minimise the
  quadratic cut ``½·xᵀLx`` by gradient descent (sparse mat-vec via
  SciPy).
- After every step, project onto the intersection of the two balance
  hyperplanes ``Σ x_i = 0`` (vertices) and ``Σ d_i x_i = 0`` (edges),
  then clip to the box (alternating projections).
- Round by sweeping vertices in ``x`` order into the first half, then
  run a degree-aware swap repair to tighten edge balance.
- Recurse for ``k = 2^t`` parts.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.partition.assignment import PartitionAssignment
from repro.partition.base import Partitioner, register_partitioner
from repro.utils.rng import as_rng

__all__ = ["GDPartitioner"]

#: gradient steps per bisection.
ITERATIONS = 60
#: normalised step size.
LR = 0.05


def _project_balance(x: np.ndarray, d: np.ndarray, rounds: int = 4) -> np.ndarray:
    """Alternating projection onto {Σx=0, Σdx=0} ∩ [−1, 1]^n.

    The two hyperplane normals (1 and d) are orthogonalised once; each
    round removes both components then clips to the box.
    """
    n = x.size
    ones = np.full(n, 1.0 / np.sqrt(n))
    d2 = d - d.dot(ones) * ones
    norm = np.linalg.norm(d2)
    d2 = d2 / norm if norm > 0 else None
    for _ in range(rounds):
        x = x - x.dot(ones) * ones
        if d2 is not None:
            x = x - x.dot(d2) * d2
        np.clip(x, -1.0, 1.0, out=x)
    return x


def _bisect(adj: sp.csr_matrix, degrees: np.ndarray, rng) -> np.ndarray:
    """One 2-D balanced bisection; returns a boolean side mask."""
    n = adj.shape[0]
    if n == 1:
        return np.zeros(1, dtype=bool)
    d = degrees.astype(np.float64)
    x = _project_balance(rng.uniform(-0.5, 0.5, size=n), d)
    for _ in range(ITERATIONS):
        grad = d * x - adj.dot(x)  # ∇(½ xᵀLx) = Lx
        gnorm = np.linalg.norm(grad)
        if gnorm == 0:
            break
        # Descend on −cut: we *minimise* cut, so step along −grad.
        x = _project_balance(x - LR * grad / gnorm * np.sqrt(n), d)

    order = np.argsort(-x, kind="stable")
    side0 = np.zeros(n, dtype=bool)
    side0[order[: n // 2]] = True  # exact vertex balance

    # Degree-aware swap repair: move edge mass across the median without
    # touching vertex counts.
    e_target = d.sum() / 2.0
    e0 = d[side0].sum()
    idx0 = order[: n // 2][::-1]  # part-0 vertices nearest the boundary first
    idx1 = order[n // 2 :]
    i = j = 0
    max_swaps = max(16, n // 8)
    swaps = 0
    while abs(e0 - e_target) > max(1.0, 0.01 * e_target) and swaps < max_swaps:
        if e0 > e_target:
            # Need to export degree from side 0: swap a heavy 0-vertex
            # with a light 1-vertex.
            while i < idx0.size and j < idx1.size and d[idx0[i]] <= d[idx1[j]]:
                i += 1
            if i >= idx0.size or j >= idx1.size:
                break
            u, v = idx0[i], idx1[j]
        else:
            while i < idx0.size and j < idx1.size and d[idx0[i]] >= d[idx1[j]]:
                i += 1
            if i >= idx0.size or j >= idx1.size:
                break
            u, v = idx0[i], idx1[j]
        side0[u], side0[v] = False, True
        e0 += d[v] - d[u]
        i += 1
        j += 1
        swaps += 1
    return side0


class GDPartitioner(Partitioner):
    """Recursive projected-gradient 2-D balanced bisection, with
    :data:`ITERATIONS` gradient steps of size :data:`LR` per bisection.

    Raises
    ------
    ConfigurationError
        If ``num_parts`` is not a power of two (the method's structural
        limitation, which the paper calls out).
    """

    name = "gd"

    def __init__(self, *, seed: int = 0) -> None:
        self._seed = seed

    def _partition(
        self, graph: CSRGraph, num_parts: int
    ) -> tuple[PartitionAssignment, dict[str, Any]]:
        if num_parts & (num_parts - 1):
            raise ConfigurationError(
                f"GD supports only power-of-two part counts, got {num_parts}"
            )
        rng = as_rng(self._seed)
        n = graph.num_vertices
        adj = sp.csr_matrix(
            (np.ones(graph.num_edges), graph.indices, graph.indptr), shape=(n, n)
        )
        degrees = graph.degrees.astype(np.float64)
        parts = np.zeros(n, dtype=np.int32)

        def recurse(vertex_ids: np.ndarray, k: int, base: int) -> None:
            if k == 1 or vertex_ids.size <= 1:
                parts[vertex_ids] = base
                return
            sub = adj[vertex_ids][:, vertex_ids].tocsr()
            side0 = _bisect(sub, degrees[vertex_ids], rng)
            recurse(vertex_ids[side0], k // 2, base)
            recurse(vertex_ids[~side0], k // 2, base + k // 2)

        with self._phase("bisect"):
            recurse(np.arange(n), num_parts, 0)
        return PartitionAssignment(graph, parts, num_parts), {"iterations": ITERATIONS}


register_partitioner("gd", GDPartitioner)
