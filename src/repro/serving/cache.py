"""Partition-aware hot-vertex block cache for the serving layer.

Each simulated machine keeps an LRU cache of fixed-size vertex blocks
(``vertex // block_size``). A query batch first touches the cache; only
blocks absent from it pay the storage fetch (costed by the simulator as
wire reads of ``block_bytes`` each). Capacity is *fixed per machine*,
so a machine hosting an oversized part — more distinct vertices, more
distinct blocks — cycles its cache harder and shows a lower hit rate.
That is the mechanism by which vertex-balance (the |V_i| axis of the
paper's two-dimensional objective) surfaces in serving telemetry, not
just in batch runtimes.

The LRU lives in arrays: ``prev``/``next`` block ids and a ``resident``
flag per (machine, block), and per machine one row of ``head, tail,
size`` and the counters. One call into ``_serve.c`` applies a batch:
move-to-end on hit, append on miss, eviction from the LRU end once the
whole batch is in. The arrays grow before a call, never inside one.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.utils import native
from repro.utils.validation import check_count

__all__ = ["PartitionAwareCache"]

# Slots of the context array, named as in the enum of ``_serve.c``.
(_EDGES, _REMOTE, _PTR, _BLOCK, _COUNT, _PARTS, _PREV, _NEXT, _RESIDENT, _ROWS, _ACC, _SEEN,
 _NBLOCKS, _BLOCK_SIZE, _CAPACITY, WORK, READS) = range(17)
_RUN_DTYPES = ("f8", "i8", "i8", "i4", "i4", "i4")  # demand columns (_plan_demand), parts


@functools.cache
def _library() -> ctypes.CDLL:
    """``_serve.c``, built once per cache directory and loaded once per process."""
    lib = native.load(Path(__file__).with_name("_serve.c"), "serving.kernels.build",
                      "serving kernel")
    p, i = ctypes.c_void_p, ctypes.c_int64
    lib.serve_reads.argtypes, lib.serve_reads.restype = [p, i, p, i, p, p, i], i
    return lib


class PartitionAwareCache:
    """Per-machine LRU over vertex blocks with hit/miss telemetry.

    ``serve_reads(context_address, machine, batch, len, visited, homes,
    len)`` is the batch step: it returns the fetched blocks and leaves
    the edge work (float64 bits) and remote reads in ``context[WORK]``
    and ``context[READS]``.
    """

    __slots__ = (
        "num_machines",
        "block_size",
        "capacity",
        "serve_reads",
        "context",
        "context_address",
        "_rows",
        "_links",
        "_merge",
        "_run",
        "hits",
        "misses",
        "miss_blocks",
        "evictions",
        "flushes",
    )

    def __init__(self, num_machines: int, *, block_size: int = 64, capacity: int = 256) -> None:
        check_count("num_machines", num_machines)
        check_count("block_size", block_size)
        check_count("capacity", capacity)
        self.num_machines = k = int(num_machines)
        self.block_size = int(block_size)
        self.capacity = int(capacity)
        self.serve_reads = _library().serve_reads
        self.context = np.zeros(READS + 1, dtype=np.int64)
        self.context_address = self.context.ctypes.data
        self._rows = np.zeros((k, 8), dtype=np.int64)  # head, tail, size, then the counters
        self._rows[:, :2] = -1
        self.hits, self.misses, self.miss_blocks, self.evictions, self.flushes = self._rows[:, 3:].T
        self.context[[_ROWS, _BLOCK_SIZE, _CAPACITY]] = (
            self._rows.ctypes.data, self.block_size, self.capacity)
        # prev, next, resident per (machine, block); grown before any call
        self._links = tuple(np.zeros((k, 0), t) for t in (np.int32, np.int32, np.uint8))
        self._grow(1)

    def _grow(self, blocks: int) -> None:
        """Room for block ids below ``blocks``, at least doubling; resident lists survive."""
        old = self._links[0].shape[1]
        if blocks > old:
            new = max(blocks, 2 * old)
            self._links = tuple(np.pad(a, ((0, 0), (0, new - old))) for a in self._links)
            self._merge = (np.zeros(new, np.int64), np.empty(new, np.int64))
            self.context[[_PREV, _NEXT, _RESIDENT, _ACC, _SEEN, _NBLOCKS]] = (
                *(a.ctypes.data for a in (*self._links, *self._merge)), new)

    def attach(self, demand: tuple, parts: np.ndarray) -> None:
        """Point the batch step at a run's demand table and parts; size for its graph."""
        self._grow(parts.size // self.block_size + 1)
        self._run = tuple(  # kept alive while the context holds their addresses
            np.ascontiguousarray(a, dtype=t) for a, t in zip((*demand, parts), _RUN_DTYPES))
        self.context[_EDGES : _PARTS + 1] = [a.ctypes.data for a in self._run]

    def _machine(self, machine: int) -> int:
        if isinstance(machine, bool) or not isinstance(machine, (int, np.integer)) or not (
                0 <= machine < self.num_machines):
            raise ConfigurationError(
                f"machine must be an integer in [0, {self.num_machines}), got {machine!r}")
        return int(machine)

    def touch(self, machine: int, vertices: np.ndarray) -> int:
        """Access ``vertices`` on ``machine``; returns fetched blocks.

        Per-vertex hits/misses are tallied by whether the vertex's block
        was resident *before* this call; the return value is the number
        of distinct blocks that had to be fetched (the quantity the
        simulator turns into wire reads). The blocks are applied in
        ascending order, the LRU order they are left in.
        """
        machine, verts = self._machine(machine), np.asarray(vertices)
        if verts.size == 0:
            return 0
        if verts.dtype.kind not in "iu" or verts.min() < 0:
            raise ConfigurationError(
                f"vertices must be non-negative integer ids, got {verts.dtype} "
                f"with minimum {verts.min()!r}")
        verts = np.ascontiguousarray(verts, dtype=np.int64).ravel()
        self._grow(int(verts.max()) // self.block_size + 1)
        return self.serve_reads(
            self.context_address, machine, None, 0, verts.ctypes.data, None, verts.size)

    def flush(self, machine: int) -> int:
        """Drop every block on ``machine`` (chaos: cache corruption).

        Returns how many blocks were discarded.
        """
        dropped = self.reset(machine)
        self.flushes[machine] += 1
        return dropped

    def reset(self, machine: int) -> int:
        """Cold-start ``machine`` after recovery (not a chaos flush).

        Drops every resident block like :meth:`flush` but does not
        count toward the ``flushes`` telemetry — a re-replicated
        machine legitimately starts cold. Returns dropped blocks.
        """
        machine = self._machine(machine)
        dropped = int(self._rows[machine, 2])
        self._links[2][machine] = 0
        self._rows[machine, :3] = (-1, -1, 0)
        return dropped

    def stats(self) -> dict:
        """Aggregate counters in JSON-ready form; ``hit_rate`` is per vertex, 0.0 if idle."""
        hits, misses = int(self.hits.sum()), int(self.misses.sum())
        return {
            "hits": hits,
            "misses": misses,
            "miss_blocks": int(self.miss_blocks.sum()),
            "evictions": int(self.evictions.sum()),
            "flushes": int(self.flushes.sum()),
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }
