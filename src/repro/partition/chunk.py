"""Chunk-V and Chunk-E partitioners (§2.2, Figure 2a/2b).

Both treat the vertex stream as one contiguous sequence and slice it
into ``k`` consecutive ranges:

- **Chunk-V** closes a range when it has accumulated ``n / k`` vertices
  (Gemini's and GridGraph's scheme) → balanced ``|V_i|``.
- **Chunk-E** closes a range when it has accumulated ``m / k`` out-arcs
  (KnightKing's and GraphChi's scheme) → balanced ``|E_i|``.

Because real graphs are scale-free, the dimension *not* being balanced
ends up highly skewed — the paper's Limitation #1 and Figure 6. Both are
fully vectorised (a cumulative sum and a division), which is why Table 2
shows them orders of magnitude faster than score-based streaming.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.assignment import PartitionAssignment
from repro.partition.base import Partitioner, register_partitioner

__all__ = ["ChunkVPartitioner", "ChunkEPartitioner"]


class ChunkVPartitioner(Partitioner):
    """Contiguous vertex-id ranges of (near-)equal vertex count — the
    natural order real systems use because it preserves locality of
    adjacent ids."""

    name = "chunk-v"

    def __init__(self, *, seed: int | None = None) -> None:
        self._seed = seed

    def _partition(
        self, graph: CSRGraph, num_parts: int
    ) -> tuple[PartitionAssignment, dict[str, Any]]:
        n = graph.num_vertices
        # Vertex j goes to part ⌊j·k/n⌋ — equal-size slices.
        parts = (np.arange(n, dtype=np.int64) * num_parts // max(n, 1)).astype(np.int32)
        return PartitionAssignment(graph, parts, num_parts), {"order": "natural"}


class ChunkEPartitioner(Partitioner):
    """Contiguous vertex-id ranges of (near-)equal out-arc count."""

    name = "chunk-e"

    def __init__(self, *, seed: int | None = None) -> None:
        self._seed = seed

    def _partition(
        self, graph: CSRGraph, num_parts: int
    ) -> tuple[PartitionAssignment, dict[str, Any]]:
        n = graph.num_vertices
        deg = graph.degrees.astype(np.float64)
        total = deg.sum()
        if total == 0:
            # Edgeless graph: fall back to vertex chunking.
            parts = (np.arange(n, dtype=np.int64) * num_parts // max(n, 1)).astype(np.int32)
        else:
            # A vertex belongs to the part indicated by the arc mass
            # accumulated *before* it: "add to the current subgraph until
            # it reaches the balanced indicator" (Fig. 2b).
            cum_before = np.concatenate([[0.0], np.cumsum(deg)[:-1]])
            target = total / num_parts
            parts = np.minimum((cum_before / target).astype(np.int32), num_parts - 1)
        return PartitionAssignment(graph, parts, num_parts), {"order": "natural"}


register_partitioner("chunk-v", ChunkVPartitioner)
register_partitioner("chunk-e", ChunkEPartitioner)
