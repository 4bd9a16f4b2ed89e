"""Buffered streaming kernel: chunked adjacency gather, sequential resolve.

The stream is processed in chunks of ``B`` vertices (Chhabra et al.'s
buffered-streaming idea, 2024): one vectorised gather fetches the whole
chunk's neighbour lists (``_dense_gather`` for in-RAM CSR,
``ShardedCSRGraph.gather_block`` for shards). The decision stays
sequential. For Eq. 2 it runs in C: ``_fennel.c`` resolves a chunk in
one checked call (:func:`repro.utils.native.call`) with ``fennel_scalar``'s
semantics, so assignments are bit-identical; with no working compiler the
kernel raises ``ConfigurationError``.

LDG's loop stays in Python over a ``bincount`` snapshot of the chunk's
overlaps, patched with the current part of already-resolved chunk-mates.
"""

from __future__ import annotations

import numpy as np

from repro.partition.kernels.base import KernelBackend, register_kernel
from repro.utils import native

__all__ = ["BACKEND", "DEFAULT_CHUNK"]

#: Chunk size ``B``. Large enough to amortise the gather's fixed cost,
#: small enough that the ``B·k`` overlap table stays cache-resident.
DEFAULT_CHUNK = 256

_NEG_INF = float("-inf")


def _dense_gather(indptr, indices):
    """Adjacency gather over in-RAM CSR arrays: the native path for
    :class:`~repro.graph.csr.CSRGraph`. Sharded graphs supply their own
    shard-grouped equivalent (``ShardedCSRGraph.gather_block``)."""

    def gather(chunk):
        lens = indptr[chunk + 1] - indptr[chunk]
        first = np.concatenate(([0], np.cumsum(lens)[:-1]))
        slots = np.repeat(indptr[chunk] - first, lens) + np.arange(int(lens.sum()))
        return lens, indices[slots]

    return gather


def _chunk_overlap(gather, parts, posmap, chunk, k):
    """Vectorised snapshot overlap + intra-chunk pull lists for one chunk.

    ``gather(chunk)`` returns ``(lens, nbrs)`` — per-vertex degrees and
    the concatenated neighbour lists in chunk order; everything else is
    representation-agnostic. Returns ``(overlap, pulls, num_assigned)``
    where ``overlap[i][p]`` counts ``chunk[i]``'s neighbours assigned to
    part ``p`` as of the chunk boundary, ``pulls[i]`` lists earlier
    chunk positions adjacent to ``i`` (or ``None``), and
    ``num_assigned[i]`` is the row sum.
    """
    B = chunk.size
    lens, nbrs = gather(chunk)
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
    chunk_size: int = DEFAULT_CHUNK,
    gather=None,
) -> None:
    if gather is None:
        gather = _dense_gather(indptr, indices)
    parts_c = np.ascontiguousarray(parts, dtype=np.int32)
    loads_c = np.ascontiguousarray(loads, dtype=np.float64)
    w = np.ascontiguousarray(weights, dtype=np.float64)
    scratch = (np.empty(loads_c.size), np.zeros(loads_c.size, dtype=np.int64))
    for _pass in range(passes):
        for begin in range(0, parts.shape[0], chunk_size):
            chunk = np.ascontiguousarray(stream[begin : begin + chunk_size], dtype=np.int64)
            lens, nbrs = (np.ascontiguousarray(a, dtype=np.int64) for a in gather(chunk))
            native.call("fennel_chunk", chunk, lens, nbrs, parts_c, loads_c, w, alpha * gamma,
                        gamma - 1.0, capacity, *scratch)
    parts[:] = parts_c
    loads[:] = loads_c


def ldg_buffered(
    indptr: np.ndarray,
    indices: np.ndarray,
    stream: np.ndarray,
    parts: np.ndarray,
    loads: np.ndarray,
    *,
    capacity: float,
    chunk_size: int = DEFAULT_CHUNK,
    gather=None,
) -> None:
    if gather is None:
        gather = _dense_gather(indptr, indices)
    n = parts.shape[0]
    k = loads.shape[0]
    parts_l = parts.tolist()
    loads_l = loads.tolist()
    weight = [1.0 - x / capacity for x in loads_l]
    saturated = [x >= capacity for x in loads_l]
    num_saturated = sum(saturated)
    posmap = np.full(n, -1, dtype=np.int64)

    for begin in range(0, n, chunk_size):
        chunk = stream[begin : begin + chunk_size]
        B = chunk.size
        posmap[chunk] = np.arange(B)
        overlap, pulls, num_assigned = _chunk_overlap(gather, parts, posmap, chunk, k)
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
