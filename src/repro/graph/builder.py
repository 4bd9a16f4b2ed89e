"""Edge data → CSR rows: the one intake and the one canonicaliser.

:func:`from_edges` builds a :class:`~repro.graph.csr.CSRGraph` from
``(src, dst)`` arrays in RAM; :class:`~repro.graph.sharded.ShardedCSRBuilder`
builds the same adjacency on disk from a stream of batches. Both check,
de-loop and symmetrise their input through :func:`intake_edges`, and
both turn composite keys into rows through :func:`rows_from_keys` —
``from_edges`` once over the whole key array, the shard writer once per
bounded block — so the storage contract of :mod:`repro.graph.csr`
(sorted, unique destinations per source) has a single implementation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph, _index_dtype

__all__ = ["from_edges"]


def intake_edges(
    src, dst, num_vertices: int | None, *, directed: bool
) -> tuple[np.ndarray, np.ndarray, int]:
    """Check one batch of edges and expand it to the arcs it stores.

    Returns ``(s, d, max_id)``: fresh int64 arc arrays with self-loops
    dropped (social-network datasets have none, and they make
    random-walk semantics ambiguous) and, unless ``directed``, both arcs
    of every edge; ``max_id`` is the largest id seen *before* the drop
    (``-1`` for an empty batch). Raises :class:`GraphFormatError` on
    ids that are not integers, unequal lengths, a negative id, or an id
    that ``num_vertices`` (when given) cannot hold.
    """
    s, d = np.asarray(src).ravel(), np.asarray(dst).ravel()
    for a in (s, d):
        # An empty Python list arrives as float64 and is still no edges.
        if a.size and a.dtype.kind not in "iu":
            raise GraphFormatError(
                f"vertex ids must be integers, got an array of dtype {a.dtype}"
            )
    if s.size != d.size:
        raise GraphFormatError(f"src and dst lengths differ: {s.size} != {d.size}")
    s, d = s.astype(np.int64, copy=False), d.astype(np.int64, copy=False)
    max_id = -1
    if s.size:
        if min(s.min(), d.min()) < 0:
            raise GraphFormatError("negative vertex id in edge list")
        max_id = int(max(s.max(), d.max()))
    if num_vertices is not None and max_id >= num_vertices:
        raise GraphFormatError(
            f"num_vertices={num_vertices} too small for max vertex id {max_id}"
        )
    keep = s != d
    s, d = s[keep], d[keep]
    if not directed:
        s, d = np.concatenate([s, d]), np.concatenate([d, s])
    return s, d, max_id


def rows_from_keys(key: np.ndarray, row_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique destinations per source, from composite keys.

    ``key`` holds ``row · n + dst`` per arc in any order, duplicates
    included, and is consumed (sorted in place); ``row_keys`` is
    ``arange(rows + 1) · n``, the first key of every row. Returns
    ``(degrees, dests)``: the rows' final lengths and their destinations
    laid end to end, as int64. Searching the row keys in the sorted
    survivors splits them by source without dividing.
    """
    key.sort()
    keep = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    kept = key[keep]
    degrees = np.diff(np.searchsorted(kept, row_keys))
    kept -= np.repeat(row_keys[:-1], degrees)
    return degrees, kept


def from_edges(
    src,
    dst,
    num_vertices: int | None = None,
    *,
    directed: bool = False,
) -> CSRGraph:
    """Build a CSR graph from parallel source/target arrays.

    Parallel arcs and self-loops are dropped; ``src`` and ``dst`` are
    not written to.

    Parameters
    ----------
    src, dst:
        Integer array-likes of equal length; arc ``src[i] → dst[i]``.
    num_vertices:
        Vertex-count override; defaults to ``max(id) + 1``. Needed when
        trailing vertices are isolated.
    directed:
        ``False`` (default) symmetrises: every input edge yields both
        arcs. ``True`` keeps arcs as given.
    """
    if num_vertices is not None:
        num_vertices = int(num_vertices)
    s, d, max_id = intake_edges(src, dst, num_vertices, directed=directed)
    n = max_id + 1 if num_vertices is None else num_vertices
    # n can exceed 2^31, so the (src, dst) key is int64.
    s *= n
    s += d
    del d
    degrees, dests = rows_from_keys(s, np.arange(n + 1, dtype=np.int64) * n)
    del s
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return CSRGraph(indptr, dests.astype(_index_dtype(n)), directed=directed, validate=False)
