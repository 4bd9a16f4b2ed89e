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
whole batch is in. The arrays grow before a call, never inside one; ``context``
(a :class:`repro.utils.native.Struct`) checks and holds them."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.utils import native
from repro.utils.validation import check_count

__all__ = ["PartitionAwareCache"]

#: where a batch step leaves the edge work (float64 bits), remote reads and fetched blocks, and
#: serve_batch its walker visits and service seconds (float64 bits)
WORK, READS, FETCHED, WALKED, SECONDS = (
    native.Struct().index[s] for s in ("work", "reads", "fetched", "walked", "seconds"))
_RUN_DTYPES = ("f8", "i8", "i8", "i4", "i4", "i4")  # demand columns (_plan_demand), parts


class PartitionAwareCache:
    """Per-machine LRU over vertex blocks with hit/miss telemetry; a serving run's batch
    step is ``native.call("serve_batch", context, machine, batch_id, batch)``."""

    __slots__ = (
        "num_machines",
        "block_size",
        "capacity",
        "context",
        "_rows",
        "_links",
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
        self._rows = np.zeros((k, 8), dtype=np.int64)  # head, tail, size, then the counters
        self._rows[:, :2] = -1
        self.hits, self.misses, self.miss_blocks, self.evictions, self.flushes = self._rows[:, 3:].T
        self.context = native.Struct(rows=self._rows, k=k, block_size=self.block_size,
                                     capacity=self.capacity)
        # prev, next, resident per (machine, block); grown before any call
        self._links = tuple(np.zeros((k, 0), t) for t in (np.int32, np.int32, np.uint8))
        self._grow(1)

    def _grow(self, blocks: int) -> None:
        """Room for block ids below ``blocks``, at least doubling; resident lists survive."""
        old = self._links[0].shape[1]
        if blocks > old:
            new = max(blocks, 2 * old)
            self._links = tuple(np.pad(a, ((0, 0), (0, new - old))) for a in self._links)
            self.context.set(**dict(zip(("prev", "next", "resident"), self._links)),
                             acc=np.zeros(new, np.int64), seen=np.empty(new, np.int64))

    def attach(self, demand: tuple, parts: np.ndarray) -> None:
        """Point the batch step at a run's demand table and parts; size for its graph."""
        self._grow(parts.size // self.block_size + 1)
        self.context.set(**{name: np.ascontiguousarray(a, dtype=t) for name, a, t in zip(
            ("edges", "remote", "ptr", "block", "count", "parts"), (*demand, parts), _RUN_DTYPES)})

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
        if verts.dtype.kind not in "iu":
            raise ConfigurationError(f"vertices must be integer ids, got {verts.dtype}")
        verts = np.ascontiguousarray(verts, dtype=np.int64).ravel()
        self._grow(int(verts.max()) // self.block_size + 1)
        native.call("serve_reads", self.context, machine, np.empty(0, np.int64), verts, None)
        return int(self.context.slots[FETCHED])

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
