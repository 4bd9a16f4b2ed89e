"""Gemini-like iteration-based vertex-centric BSP engine."""

from repro.engines.gemini.apps import BFS, ConnectedComponents, PageRank
from repro.engines.gemini.engine import GeminiEngine, GeminiResult
from repro.engines.gemini.vertex_program import VertexProgram, neighbor_min, neighbor_sum

__all__ = [
    "GeminiEngine",
    "GeminiResult",
    "VertexProgram",
    "neighbor_sum",
    "neighbor_min",
    "PageRank",
    "ConnectedComponents",
    "BFS",
]
