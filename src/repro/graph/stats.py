"""Graph statistics: degree distribution, power-law fit, summaries.

Used by the dataset stand-ins to verify they preserve the real graphs'
skew (DESIGN.md §2), and by reports to annotate experiment output the
way the paper's Table 1 does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["GraphSummary", "summarize", "powerlaw_exponent", "gini"]


@dataclass(frozen=True)
class GraphSummary:
    """Table-1-style dataset statistics."""

    num_vertices: int
    num_edges: int
    avg_degree: float
    max_degree: int
    degree_gini: float
    powerlaw_exponent: float

    def __str__(self) -> str:
        return (
            f"n={self.num_vertices:,} arcs={self.num_edges:,} "
            f"d̄={self.avg_degree:.2f} dmax={self.max_degree:,} "
            f"gini={self.degree_gini:.3f} γ̂={self.powerlaw_exponent:.2f}"
        )


def summarize(graph: CSRGraph) -> GraphSummary:
    """Compute the summary statistics for a graph."""
    deg = graph.degrees
    return GraphSummary(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        avg_degree=graph.avg_degree,
        max_degree=int(deg.max()) if deg.size else 0,
        degree_gini=gini(deg),
        powerlaw_exponent=powerlaw_exponent(deg),
    )


def powerlaw_exponent(degrees: np.ndarray, *, dmin: int = 2) -> float:
    """Maximum-likelihood (Hill/Clauset) estimate of the tail exponent.

    ``γ̂ = 1 + n_tail / Σ ln(d_i / (dmin - 0.5))`` over degrees ≥ ``dmin``.
    Returns ``nan`` when fewer than 10 tail samples exist (e.g. a ring).
    """
    d = np.asarray(degrees, dtype=np.float64)
    tail = d[d >= dmin]
    if tail.size < 10:
        return float("nan")
    return float(1.0 + tail.size / np.log(tail / (dmin - 0.5)).sum())


def gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative sequence (0 = uniform).

    A compact scalar for "how skewed is this degree distribution"; the
    social-network stand-ins land around 0.5–0.7 like their originals.
    """
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0 or v.sum() == 0:
        return 0.0
    n = v.size
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float((2.0 * (ranks * v).sum() - (n + 1) * v.sum()) / (n * v.sum()))
