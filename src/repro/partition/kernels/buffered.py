"""Buffered streaming kernel: Eq. 2 in C, LDG over chunked gathers.

Eq. 2's sequential decision runs in C (``_fennel.c``'s ``fennel_rows``)
with ``fennel_scalar``'s semantics, so assignments are bit-identical. It
reads rows in place through the graph's block tables
(:meth:`~repro.graph.csr.CSRGraph.tables`), one checked call
(:func:`repro.utils.native.call`) a run: a pass is one run on a dense graph,
and on shards one a shard in natural order (within the LRU) or one through
the table of every shard otherwise. With no working compiler
the kernel raises ``ConfigurationError``.

LDG's loop stays in Python over a ``bincount`` snapshot of each chunk's
overlaps (``gather_rows``), patched with the current part of
already-resolved chunk-mates.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph, gather_rows
from repro.partition.kernels.base import KernelBackend, register_kernel
from repro.utils import native

__all__ = ["BACKEND", "DEFAULT_CHUNK"]

#: Chunk size ``B``. Large enough to amortise the gather's fixed cost,
#: small enough that the ``B·k`` overlap table stays cache-resident.
DEFAULT_CHUNK = 256

_NEG_INF = float("-inf")


def _chunk_overlap(graph, parts, posmap, chunk, k):
    """Vectorised snapshot overlap + intra-chunk pull lists for one chunk.

    ``gather_rows`` reads the chunk's degrees and concatenated neighbour
    lists, dense or sharded alike. Returns ``(overlap, pulls, num_assigned)``
    where ``overlap[i][p]`` counts ``chunk[i]``'s neighbours assigned to
    part ``p`` as of the chunk boundary, ``pulls[i]`` lists earlier
    chunk positions adjacent to ``i`` (or ``None``), and
    ``num_assigned[i]`` is the row sum.
    """
    B = chunk.size
    lens, nbrs = gather_rows(graph, chunk)
    total = int(np.asarray(lens).sum())
    if total == 0:
        return [[0] * k for _ in range(B)], [None] * B, [0] * B
    owner = np.repeat(np.arange(B, dtype=np.int64), lens)
    nbr_parts = parts[nbrs]
    valid = nbr_parts >= 0
    flat = np.bincount(owner[valid] * k + nbr_parts[valid], minlength=B * k)
    table = flat.reshape(B, k)
    num_assigned = table.sum(axis=1).tolist()
    overlap = table.tolist()

    pulls: list[list[int] | None] = [None] * B
    nbr_pos = posmap[nbrs]
    intra = np.nonzero(nbr_pos >= 0)[0]
    if intra.size:
        for i, j in zip(owner[intra].tolist(), nbr_pos[intra].tolist()):
            if j < i:  # only already-resolved chunk-mates can diverge
                if pulls[i] is None:
                    pulls[i] = [j]
                else:
                    pulls[i].append(j)
    return overlap, pulls, num_assigned


def fennel_buffered(
    indptr: np.ndarray,
    indices: np.ndarray,
    stream: np.ndarray,
    parts: np.ndarray,
    loads: np.ndarray,
    weights: np.ndarray,
    *,
    alpha: float,
    gamma: float,
    capacity: float,
    passes: int,
    graph=None,
) -> None:
    parts_c = np.ascontiguousarray(parts, dtype=np.int32)
    loads_c = np.ascontiguousarray(loads, dtype=np.float64)
    state = (parts_c, loads_c, np.ascontiguousarray(weights, dtype=np.float64), alpha * gamma,
             gamma - 1.0, capacity, np.empty(loads_c.size), np.zeros(loads_c.size, dtype=np.int64))
    stream = np.ascontiguousarray(stream, dtype=np.int64)
    if graph is None:  # the shared kernel signature's dense arrays
        graph = CSRGraph(indptr, indices, validate=False)
    for _pass in range(passes):
        for run, table in graph.tables(stream):
            native.call("fennel_rows", table, run, *state)
    parts[:] = parts_c
    loads[:] = loads_c


def ldg_buffered(
    graph,
    stream: np.ndarray,
    parts: np.ndarray,
    loads: np.ndarray,
    *,
    capacity: float,
) -> None:
    n = parts.shape[0]
    k = loads.shape[0]
    parts_l = parts.tolist()
    loads_l = loads.tolist()
    weight = [1.0 - x / capacity for x in loads_l]
    saturated = [x >= capacity for x in loads_l]
    num_saturated = sum(saturated)
    posmap = np.full(n, -1, dtype=np.int64)

    for begin in range(0, n, DEFAULT_CHUNK):
        chunk = stream[begin : begin + DEFAULT_CHUNK]
        B = chunk.size
        posmap[chunk] = np.arange(B)
        overlap, pulls, num_assigned = _chunk_overlap(graph, parts, posmap, chunk, k)
        posmap[chunk] = -1
        chunk_l = chunk.tolist()
        for i in range(B):
            v = chunk_l[i]
            row = overlap[i]
            assigned = num_assigned[i]
            pull = pulls[i]
            if pull is not None:
                for j in pull:
                    # LDG is single-pass: chunk-mates were unassigned at
                    # the snapshot, so every pull is a pure addition.
                    row[parts_l[chunk_l[j]]] += 1
                    assigned += 1
            if num_saturated == k:
                choice = 0
                best_load = loads_l[0]
                for p in range(1, k):
                    if loads_l[p] < best_load:
                        best_load = loads_l[p]
                        choice = p
            else:
                choice = -1
                best = _NEG_INF
                if assigned:
                    for p in range(k):
                        if saturated[p]:
                            continue
                        s = row[p] * weight[p]
                        if s > best:
                            best = s
                            choice = p
                else:
                    for p in range(k):  # empty overlap → fill least loaded
                        if saturated[p]:
                            continue
                        if weight[p] > best:
                            best = weight[p]
                            choice = p
            parts_l[v] = choice
            grown = loads_l[choice] + 1.0
            loads_l[choice] = grown
            weight[choice] = 1.0 - grown / capacity
            if not saturated[choice] and grown >= capacity:
                saturated[choice] = True
                num_saturated += 1
        parts[chunk] = np.fromiter(
            (parts_l[v] for v in chunk_l), dtype=parts.dtype, count=B
        )

    loads[:] = loads_l


BACKEND = KernelBackend(name="buffered", fennel=fennel_buffered)
register_kernel(BACKEND)
