"""Vertex programs for the Gemini-like engine."""

from repro.engines.gemini.apps.bfs import BFS
from repro.engines.gemini.apps.cc import ConnectedComponents
from repro.engines.gemini.apps.pagerank import PageRank

__all__ = ["PageRank", "ConnectedComponents", "BFS"]
