"""Edge-partition data model and partitioner interface."""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ConfigurationError, PartitionError
from repro.graph.csr import CSRGraph

__all__ = ["canonical_edges", "EdgePartition", "EdgePartitioner"]


def canonical_edges(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """Each undirected edge once, as ``(u, v)`` with ``u < v``.

    For directed graphs, every arc is its own edge.
    """
    src, dst = graph.edge_array()
    if graph.directed:
        return src.astype(np.int64), dst.astype(np.int64)
    keep = src < dst
    return src[keep].astype(np.int64), dst[keep].astype(np.int64)


class EdgePartition:
    """An edge → part mapping plus derived replication structure.

    Attributes
    ----------
    src, dst:   the canonical edge arrays the mapping refers to.
    edge_parts: part id per edge.
    num_parts:  ``k``.
    """

    __slots__ = ("graph", "src", "dst", "edge_parts", "num_parts", "_copies")

    def __init__(
        self,
        graph: CSRGraph,
        src: np.ndarray,
        dst: np.ndarray,
        edge_parts: np.ndarray,
        num_parts: int,
    ) -> None:
        if not (src.size == dst.size == edge_parts.size):
            raise PartitionError("edge arrays and edge_parts length mismatch")
        if edge_parts.size and (edge_parts.min() < 0 or edge_parts.max() >= num_parts):
            raise PartitionError("edge part ids outside [0, num_parts)")
        self.graph = graph
        self.src = src
        self.dst = dst
        self.edge_parts = np.ascontiguousarray(edge_parts, dtype=np.int32)
        self.num_parts = int(num_parts)
        self._copies: np.ndarray | None = None

    @property
    def num_edges(self) -> int:
        return self.src.size

    @property
    def edge_counts(self) -> np.ndarray:
        """Edges per part (the dimension vertex-cut schemes balance)."""
        return np.bincount(self.edge_parts, minlength=self.num_parts).astype(np.int64)

    @property
    def copies(self) -> np.ndarray:
        """Number of parts each vertex is replicated into (0 for
        isolated vertices)."""
        if self._copies is None:
            n = self.graph.num_vertices
            k = self.num_parts
            # membership matrix via unique (vertex, part) pairs
            pairs = np.concatenate(
                [
                    self.src.astype(np.int64) * k + self.edge_parts,
                    self.dst.astype(np.int64) * k + self.edge_parts,
                ]
            )
            uniq = np.unique(pairs)
            self._copies = np.bincount((uniq // k).astype(np.int64), minlength=n).astype(
                np.int64
            )
        return self._copies

    def __repr__(self) -> str:
        return (
            f"EdgePartition(k={self.num_parts}, edges={self.num_edges}, "
            f"replication={self.copies[self.copies > 0].mean() if self.num_edges else 0:.3f})"
        )


class EdgePartitioner(abc.ABC):
    """Base class for vertex-cut (edge) partitioners."""

    name: str = "edge-base"

    def partition(self, graph: CSRGraph, num_parts: int) -> EdgePartition:
        """Partition the edge set of ``graph`` into ``num_parts`` parts."""
        if num_parts <= 0:
            raise ConfigurationError(f"num_parts must be positive, got {num_parts}")
        src, dst = canonical_edges(graph)
        edge_parts = self._assign(graph, src, dst, int(num_parts))
        return EdgePartition(graph, src, dst, edge_parts, num_parts)

    @abc.abstractmethod
    def _assign(
        self, graph: CSRGraph, src: np.ndarray, dst: np.ndarray, num_parts: int
    ) -> np.ndarray:
        """Return the part id of every canonical edge."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
