"""Compressed-sparse-row graph storage.

:class:`CSRGraph` is the central data structure of the library. It holds
an adjacency structure in two NumPy arrays:

- ``indptr``  — ``int64`` array of length ``n + 1``; the out-neighbours of
  vertex ``v`` live in ``indices[indptr[v]:indptr[v + 1]]``.
- ``indices`` — ``int32`` (or ``int64`` for > 2^31 vertices) array of
  length ``m`` holding neighbour ids.

Undirected graphs are stored *symmetrised*: each undirected edge
``{u, v}`` occupies two arcs, ``u→v`` and ``v→u``. This matches how
Gemini and KnightKing lay out social graphs, and it means "the number of
edges of a subgraph" in the paper's sense — the out-edges travelling
with each assigned vertex — is simply the sum of out-degrees over the
subgraph's vertices.

All accessors return views, never copies, so iterating partitions over a
multi-million-arc graph allocates nothing (see the hpc-parallel guide:
"use views, not copies").
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

import numpy as np

from repro.errors import GraphFormatError
from repro.utils import native
from repro.utils.validation import check_vertex_ids

__all__ = ["CSRGraph", "fingerprint_stream", "gather_rows", "FINGERPRINT_CHUNK"]

#: Elements hashed per :func:`fingerprint_stream` update — bounds the
#: extra memory of fingerprinting to one int64 chunk (8 MiB) regardless
#: of graph size.
FINGERPRINT_CHUNK = 1 << 20


def _index_dtype(num_vertices: int) -> np.dtype:
    """Smallest integer dtype able to index ``num_vertices`` vertices."""
    return np.dtype(np.int32) if num_vertices <= np.iinfo(np.int32).max else np.dtype(np.int64)


def _hash_as_int64(h, array: np.ndarray, chunk: int = FINGERPRINT_CHUNK) -> None:
    """Feed ``array`` to ``h`` as int64 bytes, ``O(chunk)`` extra memory.

    Equivalent to ``h.update(ascontiguousarray(array, int64).tobytes())``
    but never materialises more than one chunk: already-int64 contiguous
    slices are hashed through a zero-copy memoryview, everything else is
    cast chunk by chunk.
    """
    for start in range(0, array.size, chunk):
        block = array[start : start + chunk]
        if block.dtype != np.int64 or not block.flags["C_CONTIGUOUS"]:
            block = np.ascontiguousarray(block, dtype=np.int64)
        h.update(memoryview(block))


def fingerprint_stream(
    directed: bool,
    num_vertices: int,
    indptr_chunks: Iterable[np.ndarray],
    indices_chunks: Iterable[np.ndarray],
) -> str:
    """Content hash of a CSR structure delivered as array chunks.

    The digest is byte-identical to hashing the concatenated global
    ``indptr`` followed by ``indices`` (as int64), so every graph
    representation — dense :class:`CSRGraph`, memory-mapped shards —
    that describes the same adjacency produces the same fingerprint and
    shares artifact-cache entries.
    """
    h = hashlib.sha256()
    h.update(b"csr-v1:")
    h.update(b"directed" if directed else b"undirected")
    h.update(np.int64(num_vertices).tobytes())
    for block in indptr_chunks:
        _hash_as_int64(h, block)
    for block in indices_chunks:
        _hash_as_int64(h, block)
    return h.hexdigest()


def gather_rows(graph, vertices) -> tuple[np.ndarray, np.ndarray]:
    """``(lens, nbrs)``: the degree of each of ``vertices`` (ids in ``[0, n)``) and their
    neighbour ids (int64), row after row, read in C through ``graph.table``."""
    vertices = check_vertex_ids("vertices", vertices, graph.num_vertices)
    lens = graph.degrees[vertices]
    nbrs = np.empty(int(lens.sum()), dtype=np.int64)
    native.call("gather_rows", graph.table, vertices, graph.num_vertices, nbrs)
    return lens, nbrs


class CSRGraph:
    """Immutable CSR adjacency structure.

    Parameters
    ----------
    indptr:
        ``int64`` offsets array of length ``num_vertices + 1``. ``indptr[0]``
        must be 0 and the array must be non-decreasing.
    indices:
        Neighbour ids, length ``indptr[-1]``.
    directed:
        ``False`` (default) marks the graph as an undirected graph stored
        symmetrically; ``True`` marks a genuinely directed graph. The flag
        only affects edge *counting* (``num_undirected_edges``) and IO —
        the adjacency layout is identical.
    validate:
        When ``True`` (default), structural invariants are checked once at
        construction; disable for trusted internal callers on hot paths.
    """

    __slots__ = ("_indptr", "_indices", "_directed", "_degrees", "_fingerprint", "_rows_sorted",
                 "_table")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        directed: bool = False,
        validate: bool = True,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices)
        if indices.dtype not in (np.dtype(np.int32), np.dtype(np.int64)):
            indices = indices.astype(_index_dtype(max(indptr.size - 1, 1)))
        self._indptr = indptr
        self._indices = indices
        self._directed = bool(directed)
        self._degrees: np.ndarray | None = None
        self._fingerprint: str | None = None
        self._rows_sorted: bool | None = None
        self._table: native.Table | None = None
        if validate:
            self.validate()
        # Freeze the backing arrays: CSRGraph is shared across partitioners
        # and engines, so accidental in-place mutation must fail loudly.
        self._indptr.setflags(write=False)
        self._indices.setflags(write=False)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`GraphFormatError`."""
        if self._indptr.ndim != 1 or self._indptr.size < 1:
            raise GraphFormatError("indptr must be a 1-D array of length >= 1")
        if self._indptr[0] != 0:
            raise GraphFormatError(f"indptr[0] must be 0, got {self._indptr[0]}")
        if np.any(np.diff(self._indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        if self._indptr[-1] != self._indices.size:
            raise GraphFormatError(
                f"indptr[-1] ({self._indptr[-1]}) must equal len(indices) ({self._indices.size})"
            )
        n = self.num_vertices
        if self._indices.size and (
            self._indices.min() < 0 or self._indices.max() >= n
        ):
            raise GraphFormatError("indices reference vertex ids outside [0, num_vertices)")

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of stored arcs ``m`` (undirected edges count twice)."""
        return self._indices.size

    @property
    def num_undirected_edges(self) -> int:
        """Number of logical edges: ``m / 2`` for undirected graphs."""
        return self._indices.size if self._directed else self._indices.size // 2

    @property
    def directed(self) -> bool:
        """Whether the graph is genuinely directed."""
        return self._directed

    @property
    def indptr(self) -> np.ndarray:
        """Read-only CSR offsets array (length ``n + 1``)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Read-only neighbour array (length ``m``)."""
        return self._indices

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (computed once, then cached)."""
        if self._degrees is None:
            deg = np.diff(self._indptr)
            deg.setflags(write=False)
            self._degrees = deg
        return self._degrees

    @property
    def rows_sorted(self) -> bool:
        """Whether every neighbour list ascends (computed once, then cached).

        One vectorised O(arcs) pass: a descent between adjacent slots
        counts only when both slots belong to the same row. Every builder
        guarantees it; hand-assembled graphs may not.
        """
        if self._rows_sorted is None:
            descents = self._indices[1:] < self._indices[:-1]
            starts = self._indptr[1:-1]
            descents[starts[(starts > 0) & (starts < self._indices.size)] - 1] = False
            self._rows_sorted = not descents.any()
        return self._rows_sorted

    @property
    def avg_degree(self) -> float:
        """Average out-degree ``m / n`` (the paper's ``d̄``)."""
        n = self.num_vertices
        return float(self.num_edges) / n if n else 0.0

    def fingerprint(self) -> str:
        """Stable content hash of the adjacency structure (hex digest).

        Two graphs with equal ``indptr``/``indices`` contents and the
        same ``directed`` flag share a fingerprint regardless of how or
        when they were built — the indices dtype is normalised before
        hashing, so an ``int32`` and an ``int64`` encoding of the same
        graph hash identically. The digest is the graph half of the
        artifact-cache key (see :mod:`repro.bench.artifacts`); computed
        once, then cached on the instance (the arrays are frozen).
        """
        if self._fingerprint is None:
            # Chunked hashing: tobytes() + an int64 cast of indices would
            # transiently duplicate the whole edge array (3× peak on
            # int32 graphs); fingerprint_stream is O(chunk) extra memory.
            self._fingerprint = fingerprint_stream(
                self._directed, self.num_vertices, (self._indptr,), (self._indices,)
            )
        return self._fingerprint

    @property
    def table(self) -> native.Table:
        """The graph as every C reader takes it: a block table of one block (built once)."""
        if self._table is None:
            self._table = native.Table([(self._indptr, self._indices)])
        return self._table

    def tables(self, stream: np.ndarray) -> Iterator[tuple[np.ndarray, native.Table]]:
        """``(run, table)``: ``stream`` cut into runs, each read through one table; here one."""
        yield stream, self.table

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbours of ``v`` as a zero-copy view."""
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Out-degree of a single vertex."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(sources, targets)`` arrays covering every stored arc.

        ``sources`` is materialised with :func:`numpy.repeat`; ``targets``
        is the ``indices`` array itself (a view).
        """
        sources = np.repeat(
            np.arange(self.num_vertices, dtype=self._indices.dtype), self.degrees
        )
        return sources, self._indices

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Iterate ``(u, v)`` arcs. For tests and tiny graphs only."""
        for u in range(self.num_vertices):
            for v in self.neighbors(u):
                yield u, int(v)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether arc ``u→v`` exists (binary search; neighbours sorted)."""
        nbrs = self.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        return i < nbrs.size and nbrs[i] == v

    def take_arcs(self, slots: np.ndarray) -> np.ndarray:
        """Neighbour ids at global arc slots — ``indices[slots]``.

        The representation-neutral arc gather: walker engines address
        arcs by flat CSR slot, and this method is what
        :class:`~repro.graph.sharded.ShardedCSRGraph` overrides to serve
        the same slots from memory-mapped shards.
        """
        return self._indices[slots]

    def iter_blocks(self) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """Yield ``(start, stop, local_indptr, indices_view)`` blocks.

        The blockwise scan contract shared with
        :class:`~repro.graph.sharded.ShardedCSRGraph`: vertices
        ``start ≤ v < stop`` have their neighbours in
        ``indices_view[local_indptr[v - start] : local_indptr[v - start + 1]]``.
        ``local_indptr`` has length ``stop - start + 1`` and starts at 0.

        The in-RAM representation is a single block of zero-copy views
        (``indptr[0] == 0``, so the global array is a valid local one),
        so blockwise consumers pay nothing on dense graphs.
        """
        if self.num_vertices:
            yield 0, self.num_vertices, self._indptr, self._indices

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self._directed == other._directed
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        kind = "directed" if self._directed else "undirected"
        return (
            f"CSRGraph(n={self.num_vertices}, arcs={self.num_edges}, "
            f"{kind}, avg_degree={self.avg_degree:.2f})"
        )
