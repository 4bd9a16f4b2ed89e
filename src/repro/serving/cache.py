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

The cache is plain deterministic Python: an :class:`OrderedDict` per
machine with move-to-end on hit and FIFO-of-LRU eviction, no clocks, no
randomness.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["PartitionAwareCache"]


class PartitionAwareCache:
    """Per-machine LRU over vertex blocks with hit/miss telemetry."""

    __slots__ = (
        "num_machines",
        "block_size",
        "capacity",
        "_blocks",
        "hits",
        "misses",
        "miss_blocks",
        "evictions",
        "flushes",
    )

    def __init__(self, num_machines: int, *, block_size: int = 64, capacity: int = 256) -> None:
        check_positive("num_machines", num_machines)
        check_positive("block_size", block_size)
        check_positive("capacity", capacity)
        self.num_machines = int(num_machines)
        self.block_size = int(block_size)
        self.capacity = int(capacity)
        self._blocks: list[OrderedDict] = [OrderedDict() for _ in range(self.num_machines)]
        self.hits = np.zeros(self.num_machines, dtype=np.int64)
        self.misses = np.zeros(self.num_machines, dtype=np.int64)
        self.miss_blocks = np.zeros(self.num_machines, dtype=np.int64)
        self.evictions = np.zeros(self.num_machines, dtype=np.int64)
        self.flushes = np.zeros(self.num_machines, dtype=np.int64)

    def touch(self, machine: int, vertices: np.ndarray) -> int:
        """Access ``vertices`` on ``machine``; returns fetched blocks.

        ``np.unique`` over the vertices' blocks, then
        :meth:`touch_blocks` on the resulting sorted pairs.
        """
        verts = np.asarray(vertices, dtype=np.int64)
        if verts.size == 0:
            return 0
        blocks, counts = np.unique(verts // self.block_size, return_counts=True)
        return self.touch_blocks(machine, zip(blocks.tolist(), counts.tolist()))

    def touch_blocks(self, machine: int, pairs) -> int:
        """Access ``(block, vertex count)`` pairs, ascending by block.

        Per-vertex hits/misses are tallied by whether the vertex's block
        was resident *before* this call; the return value is the number
        of distinct blocks that had to be fetched (the quantity the
        simulator turns into wire reads). Missing blocks are inserted
        and the LRU trimmed back to capacity. Blocks must be distinct;
        their order is the LRU order they are left in.
        """
        lru = self._blocks[machine]
        hits = misses = fetched = 0
        for block, count in pairs:
            if block in lru:
                hits += count
                lru.move_to_end(block)
            else:
                misses += count
                fetched += 1
                lru[block] = True
        self.hits[machine] += hits
        if fetched:  # only an insertion can push the LRU past capacity
            self.misses[machine] += misses
            self.miss_blocks[machine] += fetched
            evicted = max(len(lru) - self.capacity, 0)
            for _ in range(evicted):
                lru.popitem(last=False)
            self.evictions[machine] += evicted
        return fetched

    def flush(self, machine: int) -> int:
        """Drop every block on ``machine`` (chaos: cache corruption).

        Returns how many blocks were discarded.
        """
        dropped = len(self._blocks[machine])
        self._blocks[machine].clear()
        self.flushes[machine] += 1
        return dropped

    def reset(self, machine: int) -> int:
        """Cold-start ``machine`` after recovery (not a chaos flush).

        Drops every resident block like :meth:`flush` but does not
        count toward the ``flushes`` telemetry — a re-replicated
        machine legitimately starts cold. Returns dropped blocks.
        """
        dropped = len(self._blocks[machine])
        self._blocks[machine].clear()
        return dropped

    def resident_blocks(self, machine: int) -> int:
        """Blocks currently cached on ``machine``."""
        return len(self._blocks[machine])

    def hit_rate(self, machine: int | None = None) -> float:
        """Vertex-level hit rate, per machine or overall; 0.0 if idle."""
        if machine is None:
            hits, misses = int(self.hits.sum()), int(self.misses.sum())
        else:
            hits, misses = int(self.hits[machine]), int(self.misses[machine])
        total = hits + misses
        return hits / total if total else 0.0

    def stats(self) -> dict:
        """Aggregate counters in JSON-ready form."""
        return {
            "hits": int(self.hits.sum()),
            "misses": int(self.misses.sum()),
            "miss_blocks": int(self.miss_blocks.sum()),
            "evictions": int(self.evictions.sum()),
            "flushes": int(self.flushes.sum()),
            "hit_rate": self.hit_rate(),
        }
